"""Concrete reference core for HS32.

Executes assembled programs directly with integer state — the oracle the
symbolic executor's concrete paths are differentially tested against, and
a handy way to run firmware without any symbolic machinery.

MMIO is pluggable: addresses inside registered windows are forwarded to
``mmio_read``/``mmio_write`` callbacks (usually a hardware target).

Dispatch goes through per-pc *op closures*: every predecoded instruction
of a program is compiled once into ``op(cpu, regs) -> next_pc`` with its
operands and semantics bound in, so executing it reads neither the
opcode nor a decoded field. ``halt`` stashes its :class:`CpuExit` on the
cpu and returns None. The table is shared by every :class:`Cpu` of
the same image content and entry, however often the firmware is
assembled; fetches the table cannot serve (code written at run time,
pcs outside the image) compile the fetched word the same way.

:meth:`Cpu.run` goes faster still: at a block leader it calls the
image's generated superblock (:mod:`repro.isa.blocks`, built and cached
with the op table), which runs a whole stretch of straight-line code,
or a whole loop, in one call. The per-pc ops stay the fallback, chosen
by what the run loop observes: while interrupts are enabled, once code
has been written (``_code_clean`` false), at pcs that lead no block
(after a block bails on an access outside plain RAM, or a
``jalr``/``iret`` into the middle of a block), and when a block does
not fit the remaining step budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import FirmwarePanic, VmError
from repro.isa import encoding as enc
from repro.isa.assembler import Program
from repro.isa.predecode import DecodedImage, decoded_image

MASK32 = 0xFFFFFFFF


@dataclass
class CpuExit:
    reason: str  # halt | limit | fault
    code: int = 0
    pc: int = 0
    steps: int = 0


#: A compiled instruction: executes against (cpu, cpu.regs) and returns
#: the next pc, or None after ``halt`` (the exit is left in ``cpu._exit``).
Op = Callable[["Cpu", List[int]], Optional[int]]
#: A superblock (:mod:`repro.isa.blocks`): ``block(cpu, cpu.regs, edges,
#: steps left) -> (next pc, steps run)``.
Block = Callable[["Cpu", List[int], Set[Tuple[int, int]], int],
                 Tuple[int, int]]


class Cpu:
    """Concrete HS32 interpreter."""

    def __init__(self, program: Program, ram_size: int = 64 * 1024,
                 mmio_base: int = 0x4000_0000,
                 mmio_read: Optional[Callable[[int], int]] = None,
                 mmio_write: Optional[Callable[[int, int], None]] = None,
                 irq_poll: Optional[Callable[[], bool]] = None,
                 sym_values: Optional[List[int]] = None):
        self.ram_size = ram_size
        image = decoded_image(program)
        self.ram = image.ram_image(ram_size)
        # Predecoded dispatch: ops come from the table shared per image
        # content while no store has touched the code region.
        self._ops, self._blocks = _tables(image)
        self._code_limit = min(image.code_limit, ram_size)
        self._code_clean = True
        #: End of the plain RAM the op closures access inline.
        self._ram_limit = min(ram_size, mmio_base)
        self.regs: List[int] = [0] * enc.NUM_REGS
        self.regs[enc.REG_SP] = ram_size - 16
        self.pc = program.entry
        self.mmio_base = mmio_base
        self.mmio_read = mmio_read
        self.mmio_write = mmio_write
        self.irq_poll = irq_poll
        self.irq_enabled = False
        self.irq_handler: Optional[int] = None
        self.in_irq = False
        self._irq_return_pc = 0
        self.steps = 0
        self._exit: Optional[CpuExit] = None
        self.trace_marks: List[int] = []
        # Concrete replay of symbolic test cases: values consumed by
        # successive `sym` intrinsics (defaults to 0 when exhausted).
        self.sym_values: List[int] = list(sym_values or [])
        self._sym_index = 0

    # -- memory -------------------------------------------------------------

    def load(self, addr: int, size: int) -> int:
        if addr >= self.mmio_base:
            if self.mmio_read is None:
                raise VmError(f"MMIO read at 0x{addr:08x} with no handler")
            word = self.mmio_read(addr & ~3)
            if size == 4:
                return word & MASK32
            shift = (addr & 3) * 8
            return (word >> shift) & ((1 << (8 * size)) - 1)
        if addr + size > self.ram_size or addr < 0:
            raise FirmwarePanic(
                f"out-of-bounds load at 0x{addr:08x} (pc=0x{self.pc:08x})")
        return int.from_bytes(self.ram[addr:addr + size], "little")

    def store(self, addr: int, value: int, size: int) -> None:
        if addr >= self.mmio_base:
            if self.mmio_write is None:
                raise VmError(f"MMIO write at 0x{addr:08x} with no handler")
            if size == 1:
                # A byte store into a 32-bit register rewrites only the
                # addressed lane (read-modify-write, as the symbolic
                # executor does).
                shift = (addr & 3) * 8
                word = self.load(addr & ~3, 4)
                value = (word & ~(0xFF << shift)) | ((value & 0xFF) << shift)
            self.mmio_write(addr & ~3, value & MASK32)
            return
        if addr + size > self.ram_size or addr < 0:
            raise FirmwarePanic(
                f"out-of-bounds store at 0x{addr:08x} (pc=0x{self.pc:08x})")
        if addr < self._code_limit:
            self._code_clean = False  # self-modifying code: stop predecoding
        self.ram[addr:addr + size] = (value & ((1 << (8 * size)) - 1)) \
            .to_bytes(size, "little")

    def store_bytes(self, addr: int, data: bytes) -> None:
        """Store *data* at *addr* with the effect of one byte ``store``
        per byte: one slice write when the span is plain RAM, the
        per-byte path (MMIO forwarding, bounds fault after the in-bounds
        prefix) otherwise."""
        if not data:
            return
        end = addr + len(data)
        if addr < 0 or end > self.ram_size or end > self.mmio_base:
            for i, byte in enumerate(data):
                self.store(addr + i, byte, 1)
            return
        if addr < self._code_limit:
            self._code_clean = False
        self.ram[addr:end] = data

    # -- execution -------------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000,
            edges: Optional[Set[Tuple[int, int]]] = None) -> CpuExit:
        """Execute until halt or until ``steps`` reaches *max_steps*
        (a ``"limit"`` exit). Each executed step adds its (pc before,
        pc after) pair to *edges*; a faulting step adds none, and an
        interrupt entry's pair starts at the interrupted pc. Superblocks
        run what they can; the per-pc ops run the rest, with the same
        result step for step."""
        if edges is None:
            edges = set()
        add = edges.add
        ops = self._ops
        blocks = self._blocks
        regs = self.regs
        pc = self.pc
        steps = self.steps
        try:
            while steps < max_steps:
                if self._code_clean and not self.irq_enabled:
                    block = blocks.get(pc)
                    if block is not None:
                        pc, ran = block(self, regs, edges, max_steps - steps)
                        if ran:
                            steps += ran
                            continue
                        # It ran nothing: its first instruction bailed
                        # or one pass does not fit; the op takes it.
                before = self.pc = pc
                if self.irq_enabled:
                    self._maybe_interrupt()
                    pc = self.pc
                op = ops.get(pc) if self._code_clean else None
                if op is None:
                    op = self._fetch_slow(pc)
                steps += 1
                next_pc = op(self, regs)
                if next_pc is None:
                    add((before, pc))
                    exit_ = self._exit
                    exit_.steps = steps
                    return exit_
                add((before, next_pc))
                pc = next_pc
            self.pc = pc
            return CpuExit("limit", pc=pc, steps=steps)
        finally:
            self.steps = steps

    def step(self) -> Optional[CpuExit]:
        """Execute one instruction; returns the exit on halt."""
        self._maybe_interrupt()
        pc = self.pc
        op = self._ops.get(pc) if self._code_clean else None
        if op is None:
            op = self._fetch_slow(pc)
        self.steps += 1
        next_pc = op(self, self.regs)
        if next_pc is None:
            exit_ = self._exit
            exit_.steps = self.steps
            return exit_
        self.pc = next_pc
        return None

    def _fetch_slow(self, pc: int) -> Op:
        """Data words, modified code, out-of-image pcs: byte-accurate
        fetch with the usual bounds faults, compiled on the spot."""
        return _compile(enc.decode(self.load(pc, 4)), pc)

    def _maybe_interrupt(self) -> None:
        if (self.irq_enabled and not self.in_irq
                and self.irq_handler is not None
                and self.irq_poll is not None and self.irq_poll()):
            # Hardware-style entry: only the return PC is banked; the
            # handler preserves any registers it clobbers (push/pop).
            self._irq_return_pc = self.pc
            self.in_irq = True
            self.pc = self.irq_handler


# ---------------------------------------------------------------------------
# Op compilation
# ---------------------------------------------------------------------------

_Tables = Tuple[Dict[int, Op], Dict[int, Block]]

#: (image digest, entry) -> (pc -> op table, leader -> superblock
#: table). The key is everything both tables are built from, so every
#: copy of one firmware shares them, however often it is assembled.
_TABLES: Dict[Tuple[bytes, int], _Tables] = {}
_TABLES_LIMIT = 64


def _tables(image: DecodedImage) -> _Tables:
    """The op of every predecoded instruction of *image* and its
    superblocks, built by the first Cpu of that content and then
    shared."""
    key = (image.digest, image.entry)
    tables = _TABLES.get(key)
    if tables is None:
        # Imported here: processes that build no Cpu skip the generator.
        from repro.isa.blocks import compile_blocks
        ops = {pc: _compile(instr, pc) for pc, instr in image.itab.items()}
        if len(_TABLES) >= _TABLES_LIMIT:
            _TABLES.pop(next(iter(_TABLES)))
        tables = _TABLES[key] = (ops, compile_blocks(image))
    return tables


def _compile(instr: enc.Instruction, pc: int) -> Op:
    """Bind *instr* at *pc* into an op. ALU and branch semantics come
    from the per-opcode tables below, shared with the symbolic
    executor's concrete fast path."""
    op, rd, rs1, rs2, imm = (instr.opcode, instr.rd, instr.rs1, instr.rs2,
                             instr.imm)
    fall = pc + 4
    if op in enc.R_TYPE:
        alu_r = ALU_R_OPS[op]

        def r_type(cpu: Cpu, regs: List[int]) -> int:
            regs[rd] = alu_r(regs[rs1], regs[rs2])
            return fall
        return r_type
    if op in enc.I_ALU:
        alu_i = ALU_I_OPS[op]

        def i_type(cpu: Cpu, regs: List[int]) -> int:
            regs[rd] = alu_i(regs[rs1], imm)
            return fall
        return i_type
    # Loads and stores access plain RAM inline; MMIO, bounds faults and
    # stores below the code limit (which demote the cpu to the slow
    # fetch) go through Cpu.load/Cpu.store.
    if op == enc.LW:
        def load_word(cpu: Cpu, regs: List[int]) -> int:
            addr = (regs[rs1] + imm) & MASK32
            if addr + 4 <= cpu._ram_limit:
                regs[rd] = int.from_bytes(cpu.ram[addr:addr + 4], "little")
            else:
                regs[rd] = cpu.load(addr, 4)
            return fall
        return load_word
    if op in enc.LOADS:
        sign = 0xFFFFFF00 if op == enc.LB else 0

        def load_byte(cpu: Cpu, regs: List[int]) -> int:
            addr = (regs[rs1] + imm) & MASK32
            if addr < cpu._ram_limit:
                byte = cpu.ram[addr]
            else:
                byte = cpu.load(addr, 1)
            regs[rd] = byte | sign if byte & 0x80 else byte
            return fall
        return load_byte
    if op == enc.SW:
        def store_word(cpu: Cpu, regs: List[int]) -> int:
            addr = (regs[rs1] + imm) & MASK32
            if cpu._code_limit <= addr and addr + 4 <= cpu._ram_limit:
                cpu.ram[addr:addr + 4] = (regs[rd] & MASK32).to_bytes(
                    4, "little")
            else:
                cpu.store(addr, regs[rd], 4)
            return fall
        return store_word
    if op in enc.STORES:
        def store_byte(cpu: Cpu, regs: List[int]) -> int:
            addr = (regs[rs1] + imm) & MASK32
            if cpu._code_limit <= addr < cpu._ram_limit:
                cpu.ram[addr] = regs[rd] & 0xFF
            else:
                cpu.store(addr, regs[rd], 1)
            return fall
        return store_byte
    if op in enc.BRANCHES:
        taken = BRANCH_OPS[op]
        target = (pc + imm) & MASK32

        def branch(cpu: Cpu, regs: List[int]) -> int:
            return target if taken(regs[rd], regs[rs1]) else fall
        return branch
    # Jumps link into rd unless rd is r0 (r0 is an ordinary register,
    # but a zero link field means "no link").
    if op == enc.JAL:
        target = (pc + imm) & MASK32

        def jal(cpu: Cpu, regs: List[int]) -> int:
            regs[rd] = fall
            return target
        return jal if rd else (lambda cpu, regs: target)
    if op == enc.JALR:
        def jalr(cpu: Cpu, regs: List[int]) -> int:
            target = (regs[rs1] + imm) & MASK32
            regs[rd] = fall
            return target

        def jr(cpu: Cpu, regs: List[int]) -> int:
            return (regs[rs1] + imm) & MASK32
        return jalr if rd else jr
    if op == enc.HALT:
        def halt(cpu: Cpu, regs: List[int]) -> None:
            cpu._exit = CpuExit("halt", code=regs[rs1], pc=pc)
        return halt
    if op == enc.IRET:
        def iret(cpu: Cpu, regs: List[int]) -> int:
            if not cpu.in_irq:
                raise FirmwarePanic(f"iret outside interrupt at 0x{pc:08x}")
            cpu.in_irq = False
            return cpu._irq_return_pc
        return iret
    if op == enc.HS:
        return _compile_intrinsic(imm & 0xFF, rd, rs1, pc)

    def illegal(cpu: Cpu, regs: List[int]) -> int:
        raise FirmwarePanic(f"illegal instruction 0x{op:02x} at 0x{pc:08x}")
    return illegal


def _compile_intrinsic(func: int, rd: int, rs1: int, pc: int) -> Op:
    fall = pc + 4
    if func == enc.HS_SYMBOLIC:
        # Concrete core: consume the next replay value (KLEE-style
        # .ktest replay), or zero when none was provided.
        def symbolic(cpu: Cpu, regs: List[int]) -> int:
            if cpu._sym_index < len(cpu.sym_values):
                regs[rd] = cpu.sym_values[cpu._sym_index] & MASK32
                cpu._sym_index += 1
            else:
                regs[rd] = 0
            return fall
        return symbolic
    if func == enc.HS_SYMBOLIC_BYTES:
        return lambda cpu, regs: fall  # buffer keeps its concrete contents
    if func in (enc.HS_ASSUME, enc.HS_ASSERT):
        what = "assume" if func == enc.HS_ASSUME else "assertion"

        def check(cpu: Cpu, regs: List[int]) -> int:
            if regs[rs1] == 0:
                raise FirmwarePanic(f"{what} failed at 0x{pc:08x}")
            return fall
        return check
    if func == enc.HS_SET_IVT:
        def set_ivt(cpu: Cpu, regs: List[int]) -> int:
            cpu.irq_handler = regs[rs1] & MASK32
            return fall
        return set_ivt
    if func in (enc.HS_EI, enc.HS_DI):
        enable = func == enc.HS_EI

        def irq_control(cpu: Cpu, regs: List[int]) -> int:
            cpu.irq_enabled = enable
            return fall
        return irq_control
    if func == enc.HS_TRACE:
        def trace(cpu: Cpu, regs: List[int]) -> int:
            cpu.trace_marks.append(regs[rs1])
            return fall
        return trace

    def unknown(cpu: Cpu, regs: List[int]) -> int:
        raise FirmwarePanic(f"unknown intrinsic {func} at 0x{pc:08x}")
    return unknown


# ---------------------------------------------------------------------------
# Per-opcode concrete semantics as expression templates
# ---------------------------------------------------------------------------
#
# The one copy of the ALU and branch semantics. The superblocks of
# repro.isa.blocks inline the text; ALU_R_OPS/ALU_I_OPS/BRANCH_OPS below,
# which the op closures and the symbolic executor's concrete fast path
# call, are built from it.
#
# ``{a}`` and ``{b}`` stand for the operands: register values, or an
# I-type's sign-extended immediate as ``{b}``. Each must be substituted
# by a name or a parenthesised literal. For 32-bit operands every
# result fits in 32 bits. ``(x ^ 0x80000000) - 0x80000000`` is x read as
# a signed 32-bit value, and xor with 0x80000000 maps signed order onto
# unsigned order.

_SRA = "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)) & 0xFFFFFFFF"

ALU_R_EXPRS: Dict[int, str] = {
    enc.ADD: "({a} + {b}) & 0xFFFFFFFF",
    enc.SUB: "({a} - {b}) & 0xFFFFFFFF",
    enc.AND: "{a} & {b}",
    enc.OR: "{a} | {b}",
    enc.XOR: "{a} ^ {b}",
    enc.SLL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    enc.SRL: "{a} >> ({b} & 31)",
    enc.SRA: _SRA,
    enc.MUL: "({a} * {b}) & 0xFFFFFFFF",
    enc.DIVU: "0xFFFFFFFF if {b} == 0 else ({a} // {b}) & 0xFFFFFFFF",
    enc.REMU: "{a} if {b} == 0 else {a} % {b}",
    enc.SLT: "1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0",
    enc.SLTU: "1 if {a} < {b} else 0",
}

ALU_I_EXPRS: Dict[int, str] = {
    enc.ADDI: "({a} + {b}) & 0xFFFFFFFF",
    enc.ANDI: "{a} & ({b} & 0xFFFFFFFF)",
    enc.ORI: "{a} | ({b} & 0xFFFFFFFF)",
    enc.XORI: "{a} ^ ({b} & 0xFFFFFFFF)",
    enc.SLLI: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    enc.SRLI: "{a} >> ({b} & 31)",
    enc.SRAI: _SRA,
    enc.LUI: "({b} & 0xFFFF) << 16",
}

BRANCH_EXPRS: Dict[int, str] = {
    enc.BEQ: "{a} == {b}",
    enc.BNE: "{a} != {b}",
    enc.BLT: "({a} ^ 0x80000000) < ({b} ^ 0x80000000)",
    enc.BGE: "({a} ^ 0x80000000) >= ({b} ^ 0x80000000)",
    enc.BLTU: "{a} < {b}",
    enc.BGEU: "{a} >= {b}",
}


def _callables(exprs: Dict[int, str]) -> Dict[int, Callable[[int, int], Any]]:
    """``lambda a, b: <template>`` for each opcode of *exprs*."""
    return {op: eval(f"lambda a, b: {expr.format(a='a', b='b')}")  # noqa: S307
            for op, expr in exprs.items()}


ALU_R_OPS: Dict[int, Callable[[int, int], int]] = _callables(ALU_R_EXPRS)
ALU_I_OPS: Dict[int, Callable[[int, int], int]] = _callables(ALU_I_EXPRS)
BRANCH_OPS: Dict[int, Callable[[int, int], bool]] = _callables(BRANCH_EXPRS)
