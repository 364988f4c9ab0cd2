#!/usr/bin/env python3
"""Whole-SoC case study: co-testing firmware against a composed system.

A 4-peripheral SoC (timer, GPIO, UART, AES-128) behind one generated
AXI4-Lite interconnect — the paper's "synthetic design composed of
open-source hardware peripherals" — runs a boot-style firmware:

1. configure GPIO and UART,
2. arm a periodic timer,
3. kick the AES engine to encrypt a block,
4. (BUG) wait a guessed delay instead of polling DONE, then consume.

HardSnap explores the symbolic delay, isolates the premature-consume
paths, and the snapshot diff shows exactly which hardware registers
separate the failing state from the clean post-boot state.

Run:  python examples/soc_case_study.py
"""

import _bootstrap  # noqa: F401  — src/ fallback for fresh checkouts
from repro import HardSnapSession
from repro.analysis import diff_snapshots
from repro.peripherals import catalog
from repro.peripherals.soc import SocSpec

BASE = 0x4000_0000
TIMER_W, GPIO_W, UART_W, AES_W = 0x00000, 0x10000, 0x20000, 0x30000

FIRMWARE = f"""
.equ TIMER, 0x{BASE + TIMER_W:x}
.equ GPIO, 0x{BASE + GPIO_W:x}
.equ UART, 0x{BASE + UART_W:x}
.equ AES, 0x{BASE + AES_W:x}
start:
    movi r1, TIMER
    movi r10, GPIO
    movi r11, UART
    movi r12, AES
    ; ---- boot: configure GPIO + UART ----
    movi r2, 0xFF
    sw   r2, 0(r10)         ; GPIO.DIR
    movi r2, 0x01
    sw   r2, 4(r10)         ; GPIO.OUT = boot LED
    movi r2, 4
    sw   r2, 16(r11)        ; UART.BAUDDIV
    ; ---- arm a periodic house-keeping timer ----
    movi r2, 50
    sw   r2, 4(r1)          ; TIMER.LOAD
    movi r2, 0b101
    sw   r2, 0(r1)          ; EN | AUTO_RELOAD
    ; ---- load AES key + block ----
    movi r2, 0x00010203
    sw   r2, 16(r12)
    movi r2, 0x04050607
    sw   r2, 20(r12)
    movi r2, 0x08090a0b
    sw   r2, 24(r12)
    movi r2, 0x0c0d0e0f
    sw   r2, 28(r12)
    movi r2, 0xdeadbeef
    sw   r2, 32(r12)
    movi r2, 1
    sw   r2, 0(r12)         ; AES.START
    ; ---- BUG: guessed delay instead of polling DONE ----
    sym  r4
    andi r4, r4, 0x1f
delay:
    beq  r4, r0, consume
    dec  r4
    j    delay
consume:
    lw   r5, 4(r12)         ; AES.STATUS
    andi r5, r5, 2          ; DONE
    movi r8, 1
    bne  r5, r0, fine
    movi r8, 0
fine:
    lw   r6, 48(r12)        ; consume RESULT[0]
    assert r8
    ; ---- signal completion on the LED ----
    movi r2, 0x03
    sw   r2, 4(r10)
    halt r6
"""


def main() -> None:
    soc = SocSpec([catalog.TIMER, catalog.GPIO, catalog.UART,
                   catalog.AES128], name="socboot")
    design = soc.elaborate()
    print(f"SoC: 4 peripherals behind one AXI port, "
          f"{design.state_bit_count} state bits, one scan chain\n")

    session = HardSnapSession(FIRMWARE, [(soc, BASE)],
                              scan_mode="functional")
    # Take the clean post-boot hardware state for later diffing.
    session.target.reset()
    boot_snapshot = session.target.save_snapshot()

    report = session.run(max_instructions=500_000)
    print(report.summary())
    bad = [b for b in report.bugs if b.kind == "assertion-failure"]
    good = report.halted_paths
    print(f"\npremature-consume delays: "
          f"{sorted(list(b.test_case.values())[0] & 0x1F for b in bad)}")
    print(f"safe delays: "
          f"{sorted(list(p.test_case.values())[0] & 0x1F for p in good)}")

    bug = bad[0]
    diff = diff_snapshots(boot_snapshot, bug.hw_snapshot)
    aes_changes = [d for d in diff.nets
                   if d.net.startswith("p3.") and
                   d.net.split(".")[-1] in ("busy", "done", "round")]
    print("\nhardware state at the failure vs clean boot (AES engine):")
    for d in aes_changes:
        print(f"  {d.net}: 0x{d.before:x} -> 0x{d.after:x}")
    print("\n-> the engine was still mid-encryption (busy=1, done=0) when")
    print("   the driver read RESULT: the root cause, straight from the")
    print("   hardware half of the combined HW/SW state.")
    assert bad and good


if __name__ == "__main__":
    main()
