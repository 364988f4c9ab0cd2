"""Differential fuzzing of the symbolic executor against the concrete
reference core on randomly generated (fully concrete) programs.

The generator emits terminating straight-line-plus-bounded-loop programs
over the full ALU/memory subset (word and byte loads/stores), every
branch kind (forward skips), and leaf calls; both engines must agree on
every register, the halt code, and RAM contents. Each program runs
against the executor and against the oracle stepper of
``tests/vm_oracle.py``, whose own if/elif semantics also check the ALU
and branch tables the executor and the concrete core share.
"""

import random

import pytest

from repro.isa import Cpu, assemble
from repro.isa import encoding as enc
from repro.vm import SymbolicExecutor
from tests.vm_oracle import LegacyExecutor

#: Executor under test per tier: the shipped executor, and the oracle.
EXECUTORS = {"fast": SymbolicExecutor, "legacy": LegacyExecutor}

_ALU_R = ["add", "sub", "and", "or", "xor", "sll", "srl", "sra", "mul",
          "divu", "remu", "slt", "sltu"]
_ALU_I = ["addi", "andi", "ori", "xori", "slli", "srli", "srai"]
_BRANCHES = ["beq", "bne", "blt", "bge", "bltu", "bgeu"]


def _alu_line(rng: random.Random) -> str:
    if rng.random() < 0.6:
        op = rng.choice(_ALU_R)
        rd, rs1, rs2 = (rng.randint(1, 9) for _ in range(3))
        return f"    {op} r{rd}, r{rs1}, r{rs2}"
    op = rng.choice(_ALU_I)
    rd, rs1 = rng.randint(1, 9), rng.randint(1, 9)
    imm = (rng.randrange(0, 32) if op in ("slli", "srli", "srai")
           else rng.randrange(-1000, 1000))
    return f"    {op} r{rd}, r{rs1}, {imm}"


def _random_program(seed: int) -> str:
    """A random terminating program using registers r1..r9 and a small
    scratch region; r10 is the memory base, r11/r12 loop bookkeeping.
    r1..r9 start from full 32-bit values, so the signed operations
    (``sra``, ``srai``, ``slt``, ``blt``, ``bge``) see set sign bits.
    Branches only skip forward and called functions are leaves placed
    after the final halt, so every program terminates."""
    rng = random.Random(seed)
    lines = ["start:", "    movi r10, 0x2000"]
    functions = []
    for r in range(1, 10):
        lines.append(f"    movi r{r}, {rng.randrange(0, 1 << 32)}")
    for i in range(rng.randint(8, 30)):
        kind = rng.random()
        if kind < 0.5:
            lines.append(_alu_line(rng))
        elif kind < 0.65:
            rs = rng.randint(1, 9)
            if rng.random() < 0.5:
                offset = 4 * rng.randrange(16)
                op = "sw" if rng.random() < 0.5 else "lw"
            else:
                offset = rng.randrange(64)
                op = rng.choice(["sb", "lb", "lbu"])
            lines.append(f"    {op} r{rs}, {offset}(r10)")
        elif kind < 0.75:
            # Forward skip over a few instructions: a conditional branch
            # of any kind, or an unconditional jump.
            label = f"skip{i}"
            ra, rb = rng.randint(1, 9), rng.randint(1, 9)
            op = rng.choice(_BRANCHES + ["j"])
            lines.append(f"    j {label}" if op == "j"
                         else f"    {op} r{ra}, r{rb}, {label}")
            lines.extend(_alu_line(rng) for _ in range(rng.randint(1, 3)))
            lines.append(f"{label}:")
        elif kind < 0.85:
            # Leaf call (jal links lr; ret is jalr through lr).
            name = f"fn{i}"
            lines.append(f"    call {name}")
            functions.append(f"{name}:")
            functions.extend(_alu_line(rng)
                             for _ in range(rng.randint(1, 3)))
            functions.append("    ret")
        else:
            # Bounded count-down loop accumulating into a register.
            label = f"loop{i}"
            count = rng.randint(1, 6)
            acc, src = rng.randint(1, 9), rng.randint(1, 9)
            lines.append(f"    movi r11, {count}")
            lines.append(f"{label}:")
            lines.append(f"    add r{acc}, r{acc}, r{src}")
            lines.append("    dec r11")
            lines.append(f"    bne r11, r0, {label}")
    result = rng.randint(1, 9)
    lines.append(f"    halt r{result}")
    return "\n".join(lines + functions) + "\n"


#: The executor's cases keep the bare ``[seed]`` ids of the original
#: cases; the oracle's are ``[seed-legacy]``.
_CASES = [pytest.param(seed, tier,
                       id=str(seed) if tier == "fast" else f"{seed}-{tier}")
          for tier in EXECUTORS for seed in range(25)]


@pytest.mark.parametrize("seed,tier", _CASES)
def test_random_program_differential(seed, tier):
    src = _random_program(seed)
    program = assemble(src)

    cpu = Cpu(program)
    cpu_exit = cpu.run(max_steps=50_000)
    assert cpu_exit.reason == "halt"

    executor = EXECUTORS[tier](program, bridge=None)
    state = executor.make_initial_state()
    while state.is_active and state.steps < 50_000:
        outcome = executor.step(state)
        assert not outcome.forks, "concrete program must not fork"
    assert state.status == "halted", state.error
    assert state.halt_code == cpu_exit.code
    assert state.steps == cpu.steps

    # Full architectural state agreement.
    for i in range(enc.NUM_REGS):
        value = state.reg(i)
        assert isinstance(value, int)
        assert value == cpu.regs[i], f"r{i}"
    for offset in range(0, 64, 4):
        addr = 0x2000 + offset
        assert state.memory.read(addr, 4) == cpu.load(addr, 4), hex(addr)


class _RecordingMmio:
    """Two 32-bit MMIO registers that log every read and write."""

    def __init__(self):
        self.words = {0x4000_0000: 0x11223344, 0x4000_0004: 0x8899AABB}
        self.log = []

    def read(self, addr):
        self.log.append(("r", addr))
        return self.words[addr]

    def write(self, addr, value):
        self.log.append(("w", addr, value))
        self.words[addr] = value

    def irq_lines(self):
        return {}

    def step(self, cycles):
        pass


def _mmio_byte_program():
    """``sb``/``lb``/``lbu`` on every lane of two MMIO words: the first
    stores a register with high bits set, the second reads bytes with
    the sign bit set."""
    lines = ["start:", "    movi r1, 0x40000000", "    movi r2, 0x1234AB",
             "    sb   r2, 1(r1)"]
    for lane in range(4):
        lines += [f"    movi r2, {0xFFFFFF00 | (0x10 * lane + 5)}",
                  f"    sb   r2, {lane}(r1)",
                  f"    lb   r{3 + lane}, {4 + lane}(r1)",
                  f"    lbu  r{7 + lane}, {4 + lane}(r1)"]
    lines += ["    lw   r11, 0(r1)", "    halt r0"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("tier", list(EXECUTORS))
def test_mmio_byte_ops_match_executor(tier):
    """A byte store into MMIO rewrites only its lane (read-modify-write)
    and byte loads pick their lane, on the concrete core exactly as in
    the symbolic executor: same bus traffic, same registers."""
    from repro.solver import Solver
    from repro.vm.forwarding import MmioBridge

    program = assemble(_mmio_byte_program())
    cpu_mmio, vm_mmio = _RecordingMmio(), _RecordingMmio()
    cpu = Cpu(program, mmio_read=cpu_mmio.read, mmio_write=cpu_mmio.write)
    assert cpu.run(1_000).reason == "halt"

    executor = EXECUTORS[tier](program, MmioBridge(vm_mmio, Solver()))
    state = executor.make_initial_state()
    while state.is_active and state.steps < 1_000:
        assert not executor.step(state).forks
    assert state.status == "halted", state.error

    assert cpu_mmio.log == vm_mmio.log
    assert cpu_mmio.log[:2] == [("r", 0x4000_0000),
                                ("w", 0x4000_0000, 0x1122AB44)]
    assert [state.reg(i) for i in range(enc.NUM_REGS)] == cpu.regs
    assert cpu.regs[3:7] == [0xFFFFFFBB, 0xFFFFFFAA, 0xFFFFFF99,
                             0xFFFFFF88]
    assert cpu.regs[7:11] == [0xBB, 0xAA, 0x99, 0x88]
    assert cpu.regs[11] == cpu_mmio.words[0x4000_0000] == 0x35251505
