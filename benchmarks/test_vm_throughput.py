"""E12 — VM dispatch throughput: the predecoded executor vs the legacy
stepper.

After PR 6 made the RTL simulator ~4x faster, the fuzz/DSE loop became
dominated by the symbolic VM's per-instruction dispatch (ROADMAP item
1). This experiment measures what the predecoded instruction table,
per-opcode handler dispatch, and batched ``step_block`` entry buy on a
fully concrete workload — the configuration the fuzzer and the concrete
stretches of DSE paths run in:

* **legacy** — original fetch → decode → if/elif chain, the differential
  oracle ``tests/vm_oracle.py:LegacyExecutor``,
* **fast, per-step** — predecoded table + handler dispatch, one
  ``step()`` call per instruction,
* **fast, batched** — the same executor through ``step_block`` bursts
  (the engine's stepping entry).

CI gates on batched ≥ 2x legacy (instructions/second). The concrete
``Cpu`` core (the fuzzer's executor) is measured in the same shape:
forced byte-accurate fetch and predecoded ops, one ``step()`` call per
instruction, and the fuzzer's own path — one ``Cpu.run`` call recording
an edge set — with the generated superblocks and, with the block table
emptied, through the per-pc ops alone. CI gates the superblock run loop
at ≥ 3x the per-pc run loop. All tiers must agree on the halt code —
verdict identity is recorded in ``BENCH_vm.json``.

The bus rows price one MMIO access, ``target.read``/``target.write``
on TIMER, through the compiled backend's generated AXI4-Lite entry and
through the Python handshake it replaced (the entry's differential
reference). Both must return the same data and cycle counts; CI gates
the entry at >= 2x the handshake.
"""

import os
import time

from benchmarks.conftest import PERIPH_BASE, emit, emit_json, fpga_with
from repro.analysis import format_table
from repro.isa import Cpu, assemble
from repro.peripherals import catalog, timer
from repro.vm import SymbolicExecutor
from tests.vm_oracle import LegacyExecutor

LOOP_COUNT = 12_000
MIN_SPEEDUP = 2.0  # batched fast tier vs legacy stepper, instructions/s
BUS_ACCESSES = 2_000  # per direction and round
BUS_ROUNDS = 5
MIN_BUS_SPEEDUP = 2.0  # generated AXI entry vs Python handshake, per access
MIN_SUPERBLOCK_SPEEDUP = 3.0  # Cpu.run with superblocks vs per-pc ops only

CHECKSUM_SRC = f"""
start:
    movi r1, 0          ; checksum accumulator
    movi r2, 0x2000     ; data pointer
    movi r3, {LOOP_COUNT}
loop:
    lw   r4, 0(r2)
    add  r1, r1, r4
    xor  r1, r1, r3
    addi r2, r2, 4
    dec  r3
    bne  r3, r0, loop
    halt r1
"""

MAX_STEPS = LOOP_COUNT * 8 + 64


def _program():
    return assemble(CHECKSUM_SRC)


def _run_stepped(executor_class):
    """Instructions/s driving the executor one step() at a time."""
    executor = executor_class(_program(), bridge=None)
    state = executor.make_initial_state()
    start = time.perf_counter()
    while state.is_active and state.steps < MAX_STEPS:
        executor.step(state)
    elapsed = time.perf_counter() - start
    assert state.status == "halted"
    return state.steps / elapsed, state


def _run_batched():
    """Instructions/s through step_block bursts."""
    executor = SymbolicExecutor(_program(), bridge=None)
    state = executor.make_initial_state()
    start = time.perf_counter()
    while state.is_active and state.steps < MAX_STEPS:
        executor.step_block(state, 1_000_000)
    elapsed = time.perf_counter() - start
    assert state.status == "halted"
    return state.steps / elapsed, state


def _run_cpu(predecoded):
    """The concrete fuzzing core, predecoded vs forced slow fetch."""
    cpu = Cpu(_program())
    if not predecoded:
        cpu._code_clean = False
    start = time.perf_counter()
    exit_ = None
    while exit_ is None and cpu.steps < MAX_STEPS:
        exit_ = cpu.step()
    elapsed = time.perf_counter() - start
    assert exit_ is not None
    return cpu.steps / elapsed, exit_


def _run_cpu_loop(superblocks):
    """The fuzzer's path: one ``Cpu.run`` call recording edges, with the
    image's superblocks or through the per-pc ops alone."""
    cpu = Cpu(_program())
    if not superblocks:
        cpu._blocks = {}
    edges = set()
    start = time.perf_counter()
    exit_ = cpu.run(MAX_STEPS, edges)
    elapsed = time.perf_counter() - start
    assert exit_.reason == "halt"
    return cpu.steps / elapsed, exit_


def _bus_target(reference):
    target = fpga_with(catalog.TIMER)
    bus = target.instances["timer"].bus
    if reference:
        bus.read, bus.write = bus.handshake_read, bus.handshake_write
    return target


def _bus_round(target, addrs):
    """(µs per ``target.write``, µs per ``target.read``, read data)."""
    start = time.perf_counter()
    for i, addr in enumerate(addrs):
        target.write(addr, i)
    mid = time.perf_counter()
    data = [target.read(addr) for addr in addrs]
    end = time.perf_counter()
    return ((mid - start) / len(addrs) * 1e6,
            (end - mid) / len(addrs) * 1e6, data)


def _run_bus():
    """Best-of-rounds µs per TIMER access through the generated entry
    and through the handshake reference (rounds alternate between the
    two), plus everything each side's accesses returned and cost."""
    offsets = [offset for name, offset in timer.REGISTERS.items()
               if name != "CTRL"]
    addrs = [PERIPH_BASE + offsets[i % len(offsets)]
             for i in range(BUS_ACCESSES)]
    sides = {"entry": _bus_target(False), "handshake": _bus_target(True)}
    best = {side: [float("inf"), float("inf")] for side in sides}
    data = {side: [] for side in sides}
    for _ in range(BUS_ROUNDS):
        for side, target in sides.items():
            write_us, read_us, got = _bus_round(target, addrs)
            best[side] = [min(best[side][0], write_us),
                          min(best[side][1], read_us)]
            data[side].append(got)
    outcome = {side: (data[side], target.instances["timer"].bus.stats,
                      target.cycles)
               for side, target in sides.items()}
    return best, outcome["entry"] == outcome["handshake"]


def test_vm_throughput(benchmark):
    (legacy_ips, legacy_state), (fast_ips, fast_state), \
        (batched_ips, batched_state) = benchmark.pedantic(
            lambda: (_run_stepped(LegacyExecutor),
                     _run_stepped(SymbolicExecutor), _run_batched()),
            rounds=1, iterations=1)

    cpu_slow_ips, cpu_slow_exit = _run_cpu(predecoded=False)
    cpu_fast_ips, cpu_fast_exit = _run_cpu(predecoded=True)
    cpu_ops_ips, cpu_ops_exit = _run_cpu_loop(superblocks=False)
    cpu_run_ips, cpu_run_exit = _run_cpu_loop(superblocks=True)
    bus_us, bus_identical = _run_bus()
    entry_write_us, entry_read_us = bus_us["entry"]
    ref_write_us, ref_read_us = bus_us["handshake"]

    verdict_identical = (
        legacy_state.halt_code == fast_state.halt_code
        == batched_state.halt_code
        and legacy_state.regs == fast_state.regs == batched_state.regs
        and cpu_slow_exit.code == cpu_fast_exit.code == cpu_ops_exit.code
        == cpu_run_exit.code == legacy_state.halt_code)
    step_speedup = fast_ips / legacy_ips
    batch_speedup = batched_ips / legacy_ips
    cpu_speedup = cpu_fast_ips / cpu_slow_ips
    cpu_ops_speedup = cpu_ops_ips / cpu_slow_ips
    cpu_run_speedup = cpu_run_ips / cpu_slow_ips
    superblock_speedup = cpu_run_ips / cpu_ops_ips
    bus_speedup = {"read": ref_read_us / entry_read_us,
                   "write": ref_write_us / entry_write_us}

    rows = [
        ["executor, legacy step", f"{legacy_ips:,.0f} instr/s", "1.00x",
         "reference"],
        ["executor, fast step", f"{fast_ips:,.0f} instr/s",
         f"{step_speedup:.2f}x", "predecode + handler table"],
        ["executor, fast batched", f"{batched_ips:,.0f} instr/s",
         f"{batch_speedup:.2f}x", "step_block bursts"],
        ["cpu core, slow fetch", f"{cpu_slow_ips:,.0f} instr/s", "1.00x",
         "byte-accurate fetch"],
        ["cpu core, predecoded", f"{cpu_fast_ips:,.0f} instr/s",
         f"{cpu_speedup:.2f}x", "per-pc ops, one step() per instruction"],
        ["run loop, per-pc ops", f"{cpu_ops_ips:,.0f} instr/s",
         f"{cpu_ops_speedup:.2f}x",
         "Cpu.run + edge set, block table emptied"],
        ["cpu core, run loop", f"{cpu_run_ips:,.0f} instr/s",
         f"{cpu_run_speedup:.2f}x",
         f"Cpu.run + edge set (fuzzer path), superblocks: "
         f"{superblock_speedup:.2f}x per-pc ops; "
         + ("identical verdict" if verdict_identical else "DIVERGED")],
        ["bus read, handshake", f"{ref_read_us:.1f} us/access", "1.00x",
         "TIMER target.read, Python AXI handshake"],
        ["bus read, entry", f"{entry_read_us:.1f} us/access",
         f"{bus_speedup['read']:.2f}x", "generated axi() entry"],
        ["bus write, handshake", f"{ref_write_us:.1f} us/access", "1.00x",
         "TIMER target.write, Python AXI handshake"],
        ["bus write, entry", f"{entry_write_us:.1f} us/access",
         f"{bus_speedup['write']:.2f}x", "generated axi() entry; "
         + ("identical data and cycles" if bus_identical else "DIVERGED")],
    ]
    emit("vm_throughput", format_table(
        ["configuration", "throughput", "speedup", "notes"], rows,
        title=f"E12: VM dispatch tiers on the concrete checksum loop "
              f"({LOOP_COUNT} iterations)"))

    emit_json("BENCH_vm.json", {
        "experiment": "vm_throughput",
        "workload": f"concrete checksum loop, {LOOP_COUNT} iterations",
        "host_cores": os.cpu_count(),
        "instructions_per_s": {
            "executor_legacy": legacy_ips,
            "executor_fast_step": fast_ips,
            "executor_fast_batched": batched_ips,
            "cpu_slow_fetch": cpu_slow_ips,
            "cpu_predecoded": cpu_fast_ips,
            "cpu_run_loop_per_pc_ops": cpu_ops_ips,
            "cpu_run_loop": cpu_run_ips,
        },
        "speedup": {
            "fast_step": step_speedup,
            "fast_batched": batch_speedup,
            "cpu_predecoded": cpu_speedup,
            "cpu_run_loop_per_pc_ops": cpu_ops_speedup,
            "cpu_run_loop": cpu_run_speedup,
            "superblocks": superblock_speedup,
        },
        "min_speedup": MIN_SPEEDUP,
        "min_superblock_speedup": MIN_SUPERBLOCK_SPEEDUP,
        "verdict_identical": verdict_identical,
        "bus_us_per_access": {
            "entry_read": entry_read_us,
            "entry_write": entry_write_us,
            "handshake_read": ref_read_us,
            "handshake_write": ref_write_us,
        },
        "bus_speedup": bus_speedup,
        "min_bus_speedup": MIN_BUS_SPEEDUP,
        "bus_identical": bus_identical,
    })

    assert verdict_identical, "dispatch tiers diverged on the workload"
    assert batch_speedup >= MIN_SPEEDUP, (
        f"batched fast tier {batch_speedup:.2f}x below the "
        f"{MIN_SPEEDUP}x instructions/s gate")
    assert superblock_speedup >= MIN_SUPERBLOCK_SPEEDUP, (
        f"superblock run loop {superblock_speedup:.2f}x below the "
        f"{MIN_SUPERBLOCK_SPEEDUP}x instructions/s gate")
    assert bus_identical, "AXI entry and handshake diverged"
    for kind, speedup in bus_speedup.items():
        assert speedup >= MIN_BUS_SPEEDUP, (
            f"AXI entry {kind} {speedup:.2f}x below the "
            f"{MIN_BUS_SPEEDUP}x per-access gate")
