"""Bookkeeping of the concrete core's run loop.

``Cpu.run`` keeps the dispatch loop in one frame, runs straight-line
code through the image's generated superblocks and records edges
itself; ``execute_input`` stages the fuzz input with one slice write and
makes one ``run`` call. Both are checked against the per-step reference
loop kept here: one ``Cpu.step`` call per instruction through the
per-pc ops, the edge tuple built by the caller, the input staged one
byte at a time. Every case must agree on the exit, edge set, crash
text, final pc, and the hardware's bus traffic, modelled time and cycle
count. A cpu reset in place (``Cpu.reset``, as a fuzz campaign reuses
one) is checked against a new one the same way.
"""

import collections
import random

import pytest

from repro.core.fuzzer import (INPUT_ADDR, MAX_INPUT, ExecutionContext,
                               execute_input)
from repro.errors import FirmwarePanic
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import Cpu, CpuExit, assemble
from repro.isa import encoding as enc
from repro.isa.blocks import leaders
from repro.isa.cpu import ALU_I_OPS, ALU_R_OPS, BRANCH_OPS
from repro.isa.predecode import decoded_image
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget
from tests.test_executor_differential import _random_program
from tests.vm_oracle import _branch_taken, _concrete_alu_i, _concrete_alu_r


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


def _bus_stats(target):
    stats = target.instances["timer"].bus.stats
    return (stats.reads, stats.writes, stats.read_cycles, stats.write_cycles)


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
                     target.cycles, _bus_stats(target)))
    assert runs[0] == runs[1]
    return runs[1][:4]


def _word(line):
    return assemble(f"start:\n    {line}\n").words[0]


HARNESS_INPUTS = [b"", b"\x07", bytes([1, 4, 0x41, 0x42, 0x43, 0x44]),
                  bytes([1, 0x90]) + bytes(range(40)), bytes([2, 0x1F])]
HARNESS_IDS = ["empty", "unknown_cmd", "copy", "planted_crash",
               "timer_wait"]


@pytest.mark.parametrize("data", HARNESS_INPUTS, ids=HARNESS_IDS)
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
    _run_both(source, 60)


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


def test_step_returns_the_halt_exit_with_its_step_count():
    """``step()`` hands back the halt exit with the step count ``run()``
    reports for the same program."""
    program = assemble("start:\n movi r1, 3\n addi r1, r1, 1\n halt r1\n")
    cpu = Cpu(program)
    exit_ = None
    while exit_ is None:
        exit_ = cpu.step()
    assert (exit_.reason, exit_.code, exit_.steps) == ("halt", 4, 4)
    assert Cpu(program).run().steps == exit_.steps == cpu.steps


def test_copies_of_one_firmware_share_one_block_table():
    """Ops and superblocks are built once per image content and entry:
    two separate assemblies of one source share them, and the same
    source entered at another label gets its own."""
    source = fuzz_packet_parser()
    first, second = assemble(source), assemble(source)
    assert decoded_image(first) is not decoded_image(second)
    assert Cpu(first)._blocks is Cpu(second)._blocks
    assert Cpu(first)._ops is Cpu(second)._ops
    other = assemble(source, entry_label="cmd_copy")
    assert other.entry != first.entry
    assert Cpu(other)._blocks is not Cpu(first)._blocks


# -- superblocks against the per-step reference loop --------------------------
#
# ``Cpu.run`` calls the image's generated superblock at every block
# leader; ``_reference_run`` steps the per-pc ops. Each case runs both on
# a fresh cpu (and, with a target, fresh TIMER hardware) and compares
# everything either leaves behind.


def _count_block_steps(cpu):
    """Wrap *cpu*'s superblocks to count the steps they run; returns the
    one-entry list the count accumulates in."""
    ran = [0]

    def counted(block):
        def call(*args):
            next_pc, steps = block(*args)
            ran[0] += steps
            return next_pc, steps
        return call

    cpu._blocks = {pc: counted(block) for pc, block in cpu._blocks.items()}
    return ran


def _cpu_state(cpu):
    return (list(cpu.regs), cpu.pc, cpu.steps, bytes(cpu.ram),
            cpu._code_clean)


def _left_behind(cpu, max_steps, runner=Cpu.run):
    """(exit or panic text, edges) and the cpu state of one run."""
    edges = set()
    try:
        exit_ = runner(cpu, max_steps, edges)
        result = (exit_.reason, exit_.code, exit_.pc, exit_.steps)
    except FirmwarePanic as exc:
        result = str(exc)
    return (result, edges) + _cpu_state(cpu)


def _outcome(program, max_steps, runner, with_target):
    """Everything one run leaves behind, and the steps run in blocks."""
    target = _target() if with_target else None
    if target is None:
        cpu = Cpu(program)
    else:
        def irq_poll():
            target.step(1)
            return any(target.irq_lines().values())
        cpu = Cpu(program, mmio_read=target.read, mmio_write=target.write,
                  irq_poll=irq_poll)
    in_blocks = _count_block_steps(cpu)
    left = _left_behind(cpu, max_steps, runner)
    hardware = None if target is None else (
        _bus_stats(target), target.cycles, target.timer.total_s)
    return left + (hardware,), in_blocks[0]


def _run_both(source, max_steps=10_000, with_target=False):
    """Assert ``Cpu.run`` and the reference loop agree on *source*;
    returns (the shared outcome, steps ``Cpu.run`` ran in blocks)."""
    program = assemble(source) if isinstance(source, str) else source
    reference, _ = _outcome(program, max_steps, _reference_run, with_target)
    shipped, in_blocks = _outcome(program, max_steps,
                                  lambda cpu, n, edges: cpu.run(n, edges),
                                  with_target)
    assert shipped == reference
    return shipped, in_blocks


@pytest.mark.parametrize("seed", range(25))
def test_random_program_at_every_kind_of_step_limit(seed):
    """The differential suite's random programs (ALU, byte and word
    memory ops, every branch kind, leaf calls, count-down loops), cut at
    step limits before, inside and after the first block and the last."""
    program = assemble(_random_program(seed))
    (result, *_), in_blocks = _run_both(program, 50_000)
    assert result[0] == "halt" and in_blocks > 0
    n = result[3]
    for limit in sorted({1, 2, 3, 5, 7, n // 3, n // 2, n - 1, n, n + 5}):
        (result, *_), _ = _run_both(program, limit)
        assert result[0] == ("halt" if limit >= n else "limit"), limit


MEMORY_OPS = ["lw", "lb", "lbu", "sw", "sb"]


def _timer_access(op):
    """*op* on a TIMER register through r8: a load reads STATUS into r3,
    a store writes r2 to LOAD."""
    if op.startswith("l"):
        return f"{op} r3, {timer.REGISTERS['STATUS']}(r8)"
    return f"{op} r2, {timer.REGISTERS['LOAD']}(r8)"


@pytest.mark.parametrize("op", MEMORY_OPS)
def test_bail_mid_block_on_a_timer_register(op):
    """A block reaching an MMIO access returns before it; the op runs it
    through the bus, and the rest of the stretch runs per pc."""
    access = _timer_access(op)
    outcome, in_blocks = _run_both(f"""
start:
    movi r8, 0x{TIMER_BASE:x}
    movi r2, 0x1234A5
    addi r4, r2, 3
    {access}
    addi r5, r3, 1
    halt r5
""", with_target=True)
    assert in_blocks == 5  # two movi pairs and the addi
    reads, writes = outcome[-1][0][:2]
    assert (reads, writes) == {"sw": (0, 1), "sb": (1, 1)}.get(op, (1, 0))


@pytest.mark.parametrize("op", MEMORY_OPS)
def test_bail_inside_a_loop_after_a_full_pass(op):
    """The access hits RAM on the first pass and the TIMER register on
    the second: the loop's block runs one full pass, then bails mid-pass
    (the branch into the loop keeps the first pass out of the prelude's
    block)."""
    access = _timer_access(op)
    outcome, in_blocks = _run_both(f"""
start:
    movi r8, 0x3000
    movi r9, 0x{TIMER_BASE - 0x3000:x}
    movi r2, 0x77
    movi r7, 2
    bne  r7, r0, loop
    halt r0
loop:
    addi r2, r2, 1
    {access}
    add  r8, r8, r9
    dec  r7
    bne  r7, r0, loop
    halt r3
""", with_target=True)
    assert in_blocks == 9 + 5 + 1  # the prelude, one pass, one addi
    assert sum(outcome[-1][0][:2]) >= 1


@pytest.mark.parametrize("op", MEMORY_OPS)
def test_out_of_bounds_access_mid_block(op):
    """A bounds fault in the middle of a block: the same panic text,
    pc, steps and edges as the per-step loop, no edge for the fault."""
    size = 4 if op.endswith("w") else 1
    (result, edges, _, pc, steps, *_), in_blocks = _run_both(f"""
start:
    movi r1, {RAM_END - size + 2}
    addi r2, r0, 7
    {op}   r2, 0(r1)
    halt r2
""")
    kind = "load" if op.startswith("l") else "store"
    assert result == (f"out-of-bounds {kind} at "
                      f"0x{RAM_END - size + 2:08x} (pc=0x0000000c)")
    assert (pc, steps, in_blocks) == (0xC, 4, 3)
    assert edges == {(0x0, 0x4), (0x4, 0x8), (0x8, 0xC)}


@pytest.mark.parametrize("store", ["sw r2, 0(r1)", "sb r2, 0(r1)"])
def test_store_rewrites_the_next_instruction_of_its_block(store):
    """The rewritten instruction runs, not the predecoded one: the store
    bails, demotes the cpu to the slow fetch, and the next fetch reads
    the new word."""
    new = assemble("start:\n addi r4, r0, 7\n").words[0]
    (result, _, _, _, _, _, clean, _), in_blocks = _run_both(f"""
start:
    movi r1, patch
    movi r2, {new}
    {store}
patch:
    addi r4, r0, 1
    halt r4
""")
    assert result[:2] == ("halt", 7) and not clean
    assert in_blocks == 4


LOOP = """
start:
    movi r1, 0
    movi r3, 9
    bne  r3, r0, loop       ; the loop's own block runs every pass
    halt r0
loop:
    addi r1, r1, 5
    xor  r1, r1, r3
    dec  r3
    bne  r3, r0, loop
    halt r1
"""


def test_step_limit_lands_mid_pass_of_a_loop():
    """Every step limit, including each one inside a pass: the block
    loops only while the next full pass fits, the ops do the rest."""
    (result, *_), in_blocks = _run_both(LOOP)
    assert result[0] == "halt" and in_blocks == result[3] - 1
    for limit in range(1, result[3] + 2):
        _run_both(LOOP, limit)


def test_jalr_into_a_non_leader_runs_per_pc_to_the_next_leader():
    program = assemble("""
start:
    movi r1, mid
    jalr r0, r1, 0
    addi r2, r0, 1
mid:
    addi r3, r0, 2
    addi r4, r3, 3
    beq  r0, r0, done
done:
    halt r4
""")
    mid = program.labels["mid"]
    assert mid not in leaders(decoded_image(program))
    (result, edges, *_), in_blocks = _run_both(program)
    assert result[:2] == ("halt", 5) and (0x8, mid) in edges
    assert in_blocks == 3  # the movi pair and the jalr


IRET_INTO_A_BLOCK = f"""
.equ TIMER, 0x{TIMER_BASE:x}
start:
    movi r1, TIMER
    movi r2, handler
    setivt r2
    movi r3, 6              ; expires inside the spin stretch
    sw   r3, {timer.REGISTERS['LOAD']}(r1)
    movi r3, {timer.CTRL_EN | timer.CTRL_IRQ_EN}
    sw   r3, {timer.REGISTERS['CTRL']}(r1)
    movi r6, 0
    ei
spin:
    addi r7, r7, 1
    addi r8, r8, 2
    addi r9, r9, 3
    beq  r6, r0, spin
    movi r11, 6
count:
    addi r10, r10, 3
    dec  r11
    bne  r11, r0, count
    halt r10
handler:
    movi r6, 9
    movi r3, 1
    sw   r3, {timer.REGISTERS['STATUS']}(r1)
    di
    iret
"""


def test_iret_back_into_a_block():
    """The handler disables interrupts and returns into the middle of
    the interrupted stretch: per-pc ops run to the next leader, then
    blocks take over again."""
    program = assemble(IRET_INTO_A_BLOCK)
    (result, edges, *_), in_blocks = _run_both(program, with_target=True)
    assert result[:2] == ("halt", 18)
    handler = program.labels["handler"]
    interrupted = {a for a, b in edges if b == handler + 4}
    assert interrupted and not interrupted & leaders(decoded_image(program))
    assert in_blocks >= 2 + 3 * 6  # the movi after the spin, the loop


# -- one copy of the ALU semantics ---------------------------------------------

_EDGES = [0, 1, 2, 3, 31, 32, 33, 0x7FFF, 0x8000, 0xFFFF, 0x10000,
          0x7FFFFFFF, 0x80000000, 0x80000001, 0xFFFFFFFE, 0xFFFFFFFF]
_IMMS = [-(1 << 17), -32, -1, 0, 1, 31, 32, 0xFFFF, (1 << 17) - 1]


def _operands(seed):
    rng = random.Random(seed)
    values = _EDGES + [rng.randrange(1 << 32) for _ in range(16)]
    return [(a, b) for a in values for b in values]


def test_semantics_tables_match_the_oracle():
    """The template-built callables against ``tests/vm_oracle.py``'s
    independent if-chains, on edge and random 32-bit operands."""
    pairs = _operands(0)
    for op, alu in ALU_R_OPS.items():
        for a, b in pairs:
            assert alu(a, b) == _concrete_alu_r(op, a, b), (op, a, b)
    for op, taken in BRANCH_OPS.items():
        for a, b in pairs:
            assert taken(a, b) == _branch_taken(op, a, b), (op, a, b)
    for op, alu in ALU_I_OPS.items():
        for a, _ in pairs[::32]:
            for imm in _IMMS:
                assert alu(a, imm) == _concrete_alu_i(op, a, imm), (op, a, imm)


@pytest.mark.parametrize("op", sorted(ALU_R_OPS), ids=enc.OPCODE_NAMES.get)
def test_block_inlined_alu_matches_the_oracle(op):
    """One R-type instruction and a branch on its result, run as a
    block on edge and random operands: the inlined templates give the
    oracle's result and branch outcome."""
    name = enc.OPCODE_NAMES[op]
    program = assemble(f"start:\n {name} r3, r1, r2\n"
                       f" blt r3, r2, start\n halt r3\n")
    cpu = Cpu(program)
    in_blocks = _count_block_steps(cpu)
    for a, b in _operands(op)[::3]:
        cpu.pc, cpu.steps = 0, 0
        cpu.regs[1], cpu.regs[2] = a, b
        edges = set()
        assert cpu.run(2, edges).reason == "limit"
        result = _concrete_alu_r(op, a, b)
        assert cpu.regs[3] == result, (a, b)
        assert cpu.pc == (0 if _branch_taken(enc.BLT, result, b) else 8)
    assert in_blocks[0] == cpu.steps * len(_operands(op)[::3])


# -- a reset cpu against a new one --------------------------------------------
#
# A fuzz campaign reuses one cpu: ``Cpu.reset`` copies back only the RAM
# lines written since the last reset. Each case runs input A, resets,
# runs input B, and compares everything B leaves behind with a new cpu's
# run of B.


def _harness_run(context, data):
    """Input *data* through *context* from the boot state: everything it
    leaves behind, and the modelled seconds it took."""
    target = context.target
    context.fresh_hardware()
    bus, start = _bus_stats(target), target.timer.total_s
    exit_, edges, crash, pc = context.execute(data)
    exit_key = None if exit_ is None else (exit_.reason, exit_.code,
                                           exit_.pc, exit_.steps)
    bus = tuple(after - before
                for before, after in zip(bus, _bus_stats(target)))
    return ((exit_key, edges, crash, pc, bus) + _cpu_state(context.cpu),
            target.timer.total_s - start)


@pytest.mark.parametrize("first", HARNESS_INPUTS, ids=HARNESS_IDS)
@pytest.mark.parametrize("then", HARNESS_INPUTS, ids=HARNESS_IDS)
def test_reset_context_matches_a_new_one_on_the_harness(first, then):
    program = assemble(fuzz_packet_parser())
    reused = ExecutionContext(program, _target())
    _harness_run(reused, first)
    cpu = reused.cpu
    outcome, seconds = _harness_run(reused, then)
    assert reused.cpu is cpu
    fresh, fresh_seconds = _harness_run(ExecutionContext(program, _target()),
                                        then)
    assert outcome == fresh
    assert seconds == pytest.approx(fresh_seconds, rel=1e-12)


@pytest.mark.parametrize("seed", range(25))
def test_reset_cpu_matches_a_new_one_on_random_programs(seed):
    """The random programs run to halt, then again after each reset,
    cut at step limits before, inside and after their stores."""
    program = assemble(_random_program(seed))
    cpu = Cpu(program)
    n = cpu.run(50_000).steps
    for limit in sorted({0, 1, 5, n // 3, n // 2, n - 1, n}):
        cpu.reset()
        fresh = _left_behind(Cpu(program), limit)
        assert _left_behind(cpu, limit) == fresh, limit


#: One store per write path, each into RAM lines no other store writes.
WRITE_PATHS = """
start:
    movi r1, 0x30FE
    movi r2, 0xA1B2C3D4
    movi r3, 0xFFFC
    sw   r2, 0(r1)          ; block: a word across a line boundary
    sb   r2, 0x400(r1)      ; block: a byte
    ei                      ; per-pc ops while interrupts are enabled
    sw   r2, 0x600(r1)      ; op: a word across a line boundary
    sb   r2, 3(r3)          ; op: the last RAM byte
    di
    movi r4, patch
    movi r5, replacement
    lw   r6, 0(r5)
    sw   r6, 0(r4)          ; Cpu.store below the code limit
patch:
    addi r7, r0, 1          ; overwritten before it runs
    halt r7
replacement:
    addi r7, r0, 7
"""


def test_reset_undoes_a_store_on_every_write_path():
    """Input A stages bytes across a line boundary (``store_bytes``) and
    stores through a superblock, the per-pc ops and ``Cpu.store`` into
    the code; after each reset, B (each step limit, nothing staged)
    matches a new cpu: every line is back and the code is clean."""
    program = assemble(WRITE_PATHS)
    cpu = Cpu(program)
    cpu.store_bytes(0x40FD, bytes(range(1, 8)))
    in_blocks = _count_block_steps(cpu)
    assert cpu.run(100).code == 7 and not cpu._code_clean
    # Three movi pairs, sw and sb; two movi pairs and the lw before the
    # store into the code bails.
    assert in_blocks[0] == 8 + 5
    for limit in range(cpu.steps + 1):
        cpu.reset()
        fresh = _left_behind(Cpu(program), limit)
        assert _left_behind(cpu, limit) == fresh, limit


def test_a_block_that_bails_first_is_called_once_per_cpu():
    """The timer-wait loop's block bails on its first instruction, an
    MMIO load, on every pass. Its first empty call drops it from the
    cpu's table, and the campaign's reused cpu keeps it dropped."""
    program = assemble(fuzz_packet_parser())
    context = ExecutionContext(program, _target())
    context.fresh_hardware()
    context.execute(b"")
    empty = collections.Counter()

    def counted(leader, block):
        def call(*args):
            next_pc, ran = block(*args)
            empty[leader] += not ran
            return next_pc, ran
        return call

    cpu = context.cpu
    cpu._blocks = {pc: counted(pc, block) for pc, block in cpu._blocks.items()}
    for _ in range(3):
        context.fresh_hardware()
        assert context.execute(bytes([2, 0x1F]))[0].reason == "halt"
    assert +empty == {program.labels["wait_t"]: 1}
