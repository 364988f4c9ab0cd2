"""Bookkeeping of the concrete core's run loop.

``Cpu.run`` keeps the dispatch loop in one frame and records edges
itself; ``execute_input`` stages the fuzz input with one slice write and
makes one ``run`` call. Both are checked against the per-step reference
loop kept here: one ``Cpu.step`` call per instruction, the edge tuple
built by the caller, the input staged one byte at a time. Every case
must agree on the exit, edge set, crash text, final pc, and the
hardware's modelled time and cycle count.
"""

import pytest

from repro.core.fuzzer import INPUT_ADDR, MAX_INPUT, execute_input
from repro.errors import FirmwarePanic
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import Cpu, CpuExit, assemble
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget


def _reference_run(cpu, max_steps, edges):
    """``Cpu.run`` as the per-step loop over ``Cpu.step``, the edge tuple
    built by the caller."""
    while cpu.steps < max_steps:
        before = cpu.pc
        exit_ = cpu.step()
        edges.add((before, cpu.pc))
        if exit_ is not None:
            return exit_
    return CpuExit("limit", pc=cpu.pc, steps=cpu.steps)


def _reference_execute(program, target, data, max_steps=20_000):
    """The per-step fuzz execution ``execute_input`` replaces, with the
    input staged one byte at a time."""

    def irq_poll():
        target.step(1)
        return any(target.irq_lines().values())

    cpu = Cpu(program, mmio_read=target.read, mmio_write=target.write,
              irq_poll=irq_poll)
    cpu.store(INPUT_ADDR, len(data), 4)
    for i, byte in enumerate(data[:MAX_INPUT]):
        cpu.store(INPUT_ADDR + 4 + i, byte, 1)
    edges = set()
    try:
        exit_ = _reference_run(cpu, max_steps, edges)
    except FirmwarePanic as exc:
        return None, edges, str(exc), cpu.pc
    return (None if exit_.reason == "limit" else exit_), edges, None, cpu.pc


def _target():
    t = FpgaTarget(scan_mode="functional")
    t.add_peripheral(catalog.TIMER, TIMER_BASE)
    t.reset()
    return t


def _execute_both(source, data=b"", max_steps=20_000):
    """(exit, edges, crash, pc) of *source*, asserted identical between
    ``execute_input`` and the reference loop, each on fresh hardware."""
    program = assemble(source)
    runs = []
    for execute in (_reference_execute, execute_input):
        target = _target()
        exit_, edges, crash, pc = execute(program, target, data,
                                          max_steps=max_steps)
        exit_key = None if exit_ is None else (exit_.reason, exit_.code,
                                               exit_.pc)
        runs.append((exit_key, edges, crash, pc, target.timer.total_s,
                     target.cycles))
    assert runs[0] == runs[1]
    return runs[1][:4]


def _word(line):
    return assemble(f"start:\n    {line}\n").words[0]


@pytest.mark.parametrize("data", [
    b"", b"\x07", bytes([1, 4, 0x41, 0x42, 0x43, 0x44]),
    bytes([1, 0x90]) + bytes(range(40)), bytes([2, 0x1F])],
    ids=["empty", "unknown_cmd", "copy", "planted_crash", "timer_wait"])
def test_fuzz_harness_inputs(data):
    """The packet-parser harness end to end: staging, byte loads, the
    planted crash, and a timer wait over MMIO."""
    exit_, edges, crash, pc = _execute_both(fuzz_packet_parser(), data)
    assert (crash is not None) == (data[:1] == b"\x01" and data[1] >= 0x80)


OOB_LOAD = """
start:
    movi r1, 0xFFFC
    movi r2, 1
    add  r2, r2, r2
    lw   r3, 8(r1)          ; 0x10004: past the end of the 64 KiB RAM
    halt r0
"""


def test_oob_load_panics_mid_program():
    exit_, edges, crash, pc = _execute_both(OOB_LOAD)
    assert exit_ is None
    assert crash == ("out-of-bounds load at 0x00010004 "
                     "(pc=0x00000014)")
    assert pc == 0x14
    assert (0x10, 0x14) in edges
    assert not any(a == 0x14 for a, _ in edges)  # faulting step: no edge


def test_failed_assert():
    exit_, edges, crash, pc = _execute_both(
        "start:\n movi r1, 0\n assert r1\n halt r0\n")
    assert crash == "assertion failed at 0x00000008"
    assert pc == 0x8 and exit_ is None
    assert edges == {(0x0, 0x4), (0x4, 0x8)}


def test_word_written_at_run_time_runs_through_slow_fetch():
    halt_r5 = _word("halt r5")
    exit_, edges, crash, pc = _execute_both(f"""
start:
    movi r1, 0x3000         ; above the image: no predecoded op there
    movi r2, {halt_r5}
    sw   r2, 0(r1)
    movi r5, 42
    jalr r0, r1, 0
""")
    assert crash is None
    assert exit_ == ("halt", 42, 0x3000) and pc == 0x3000
    assert (0x3000, 0x3000) in edges


def test_illegal_data_word_panics():
    exit_, edges, crash, pc = _execute_both("""
start:
    j data
data:
    .word 0xFC000000        ; opcode 0x3f: not an instruction
""")
    assert crash == "illegal instruction 0x3f at 0x00000004"
    assert pc == 0x4 and edges == {(0x0, 0x4)}


STORE_INTO_CODE = """
start:
    movi r1, patch
    movi r2, replacement
    lw   r3, 0(r2)
    sw   r3, 0(r1)          ; self-modifying store into the image
patch:
    addi r4, r0, 1          ; overwritten before it runs
    halt r4
replacement:
    addi r4, r0, 7
"""


def test_store_into_code_region():
    exit_, edges, crash, pc = _execute_both(STORE_INTO_CODE)
    assert exit_[:2] == ("halt", 7)
    cpu = Cpu(assemble(STORE_INTO_CODE))
    assert cpu.run(100).code == 7
    assert not cpu._code_clean


def test_step_limit_is_a_hang():
    exit_, edges, crash, pc = _execute_both("start: j start\n",
                                            max_steps=50)
    assert (exit_, edges, crash, pc) == (None, {(0, 0)}, None, 0)


@pytest.mark.parametrize("max_steps,reason", [(3, "halt"), (2, None)])
def test_halt_on_the_last_allowed_step(max_steps, reason):
    source = "start:\n addi r1, r0, 3\n addi r1, r1, 1\n halt r1\n"
    exit_, edges, crash, pc = _execute_both(source, max_steps=max_steps)
    assert (exit_[0] if exit_ else None) == reason
    cpu = Cpu(assemble(source))
    assert cpu.run(max_steps).reason == (reason or "limit")
    assert cpu.steps == max_steps


IRQ_FIRMWARE = f"""
.equ TIMER, 0x{TIMER_BASE:x}
start:
    movi r1, TIMER
    movi r2, handler
    setivt r2
    ei
    movi r3, 5
    sw   r3, {timer.REGISTERS['LOAD']}(r1)
    movi r3, {timer.CTRL_EN | timer.CTRL_IRQ_EN}
    sw   r3, {timer.REGISTERS['CTRL']}(r1)
    movi r6, 0
wait:
    beq  r6, r0, wait       ; spin until the handler sets r6
    halt r6
handler:
    movi r6, 9
    movi r3, 1
    sw   r3, {timer.REGISTERS['STATUS']}(r1)   ; clear EXPIRED
    iret
"""


def test_interrupt_entry_edge():
    program = assemble(IRQ_FIRMWARE)
    wait, handler = program.labels["wait"], program.labels["handler"]
    exit_, edges, crash, pc = _execute_both(IRQ_FIRMWARE)
    assert exit_[:2] == ("halt", 9) and crash is None
    # The entry step runs the handler's first word: its edge starts at
    # the interrupted pc.
    assert (wait, handler + 4) in edges
    assert (wait, wait) in edges


@pytest.mark.parametrize("source", [OOB_LOAD, STORE_INTO_CODE,
                                    "start: j start\n"],
                         ids=["oob_load", "store_into_code", "limit"])
def test_run_matches_step_loop(source):
    """Architectural state and edges after ``Cpu.run`` equal the
    per-step loop's, on faulting, self-modifying and limited programs."""
    program = assemble(source)
    outcomes = []
    for run in (lambda cpu, edges: _reference_run(cpu, 60, edges),
                lambda cpu, edges: cpu.run(60, edges)):
        cpu = Cpu(program)
        edges = set()
        try:
            exit_ = run(cpu, edges)
            result = (exit_.reason, exit_.code, exit_.pc)
        except FirmwarePanic as exc:
            result = str(exc)
        outcomes.append((result, edges, cpu.regs, cpu.pc, cpu.steps,
                         bytes(cpu.ram), cpu._code_clean))
    assert outcomes[0] == outcomes[1]


def _stage(cpu, addr, data, per_byte):
    """Stage *data* with one ``store`` per byte or one ``store_bytes``;
    returns the panic text, if any."""
    try:
        if per_byte:
            for i, byte in enumerate(data):
                cpu.store(addr + i, byte, 1)
        else:
            cpu.store_bytes(addr, data)
    except FirmwarePanic as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("addr,data", [
    (INPUT_ADDR, bytes(range(1, 40))),
    (2, bytes(range(1, 40))),           # starts inside the code image
    (0, b""),                           # empty: touches nothing
    (0x10000 - 8, bytes(range(1, 40))),  # runs past the end of RAM
], ids=["input", "code", "empty", "past_ram"])
def test_store_bytes_matches_per_byte_stores(addr, data):
    program = assemble("start: halt r0\n")
    outcomes = []
    for per_byte in (True, False):
        cpu = Cpu(program)
        error = _stage(cpu, addr, data, per_byte)
        outcomes.append((error, bytes(cpu.ram), cpu._code_clean))
    assert outcomes[0] == outcomes[1]


def test_store_bytes_forwards_mmio_per_byte():
    """Each byte of a span reaching MMIO is its own byte store: a
    read-modify-write of its lane in the addressed word."""
    words = {0x4000_0000: 0x11223344, 0x4000_0004: 0x55667788}
    log = []

    def read(addr):
        log.append(("r", addr))
        return words[addr]

    def write(addr, value):
        log.append(("w", addr, value))
        words[addr] = value

    program = assemble("start: halt r0\n")
    cpu = Cpu(program, mmio_read=read, mmio_write=write)
    cpu.store_bytes(0x4000_0002, b"\x01\x02\x03")
    assert log == [("r", 0x4000_0000), ("w", 0x4000_0000, 0x11013344),
                   ("r", 0x4000_0000), ("w", 0x4000_0000, 0x02013344),
                   ("r", 0x4000_0004), ("w", 0x4000_0004, 0x55667703)]


# -- the op closures' inline plain-RAM path -----------------------------------
#
# Loads and stores inside RAM (below the MMIO base) skip Cpu.load/store;
# stores below the code limit, MMIO and bounds faults still take them.

RAM_END = 64 * 1024


def _run_fault(source):
    """(panic text or None, cpu) after running *source* to halt."""
    cpu = Cpu(assemble(source))
    try:
        assert cpu.run(1_000).reason == "halt"
    except FirmwarePanic as exc:
        return str(exc), cpu
    return None, cpu


@pytest.mark.parametrize("op,size", [("lw", 4), ("sw", 4), ("lb", 1),
                                     ("lbu", 1), ("sb", 1)])
@pytest.mark.parametrize("past", [0, 1, 2, 3])
def test_access_at_the_end_of_ram(op, size, past):
    """An access that ends exactly at ``ram_size`` runs; one that
    straddles or passes it faults and names the faulting pc. A faulting
    store writes nothing."""
    addr = RAM_END - size + past
    source = f"""
start:
    movi r1, {addr}
    movi r2, 0xA1B2C3D4
    {op}   r2, 0(r1)
    halt r0
"""
    pc = 0x10  # two 2-word movi pseudo-instructions precede the access
    crash, cpu = _run_fault(source)
    if past == 0:
        assert crash is None
        if op.startswith("s"):
            value = 0xA1B2C3D4 & ((1 << (8 * size)) - 1)
            assert cpu.ram[addr:addr + size] == value.to_bytes(size, "little")
        return
    kind = "load" if op.startswith("l") else "store"
    assert crash == f"out-of-bounds {kind} at 0x{addr:08x} (pc=0x{pc:08x})"
    assert cpu.pc == pc
    assert cpu.ram[RAM_END - 8:] == bytes(8)


CODE_EDGE = """
start:
    movi r1, end
    movi r2, 0x7F
    {op}   r2, {offset}(r1)
    halt r0
    .word 0
end:
"""


@pytest.mark.parametrize("op,offset,demoted", [
    ("sb", -1, True), ("sw", -1, True), ("sw", -4, True),
    ("sb", 0, False), ("sw", 0, False)])
def test_store_at_the_code_limit(op, offset, demoted):
    """A store that touches the last byte of the image demotes the cpu
    to the slow fetch; one just above the image keeps the fast path."""
    source = CODE_EDGE.format(op=op, offset=offset)
    program = assemble(source)
    cpu = Cpu(program)
    end = program.labels["end"]
    assert cpu._code_limit == end
    assert cpu.run(100).reason == "halt"
    assert cpu._code_clean is not demoted
    size = 4 if op == "sw" else 1
    assert cpu.ram[end + offset:end + offset + size] == \
        (0x7F).to_bytes(size, "little")


def test_byte_store_of_a_wide_register_and_byte_loads():
    """``sb`` keeps only the low byte and leaves its neighbours alone;
    ``lb`` sign-extends from RAM, ``lbu`` zero-extends."""
    crash, cpu = _run_fault("""
start:
    movi r1, 0x3000
    movi r2, 0x11223344
    sw   r2, 0(r1)
    movi r2, 0xFFFFFF80
    sb   r2, 1(r1)
    lw   r3, 0(r1)
    lb   r4, 1(r1)
    lbu  r5, 1(r1)
    lb   r6, 3(r1)
    halt r0
""")
    assert crash is None
    assert cpu.regs[3:7] == [0x11228044, 0xFFFFFF80, 0x80, 0x11]
