"""Superblocks: straight-line HS32 code compiled to Python functions.

The concrete core (:mod:`repro.isa.cpu`) dispatches one per-pc op
closure per instruction. On the fuzz path nearly every instruction sits
in a short stretch of straight-line code, so :func:`compile_blocks`
generates one Python function per *block leader* of a
:class:`~repro.isa.predecode.DecodedImage`, the way
:mod:`repro.sim.compiler` generates RTL code: registers live in locals
and are written back at each exit, the ALU and branch semantics are
inlined from the shared expression templates, and each exit adds one
precomputed frozenset of the edges its instructions took.

* **Leaders** are the entry, every branch or ``jal`` target, and the pc
  after every branch, jump, ``hs``, ``halt`` or ``iret``.
* **A block** runs ALU instructions and ``lw/lb/lbu/sw/sb``, follows
  ``j`` (``jal`` with rd 0) into its target, and ends after the first
  conditional branch, linking ``jal`` or ``jalr``. It stops before
  ``hs``, ``halt``, ``iret``, a pc the image does not predecode (data,
  or outside the image), and after :data:`MAX_BLOCK` instructions (the
  pc it stops at becomes a leader of its own). A ``j`` back onto the
  block's own path ends it like a branch.
* **Loops.** When the ending branch or jump leads back to the block's
  own entry, the block loops inside its function while the next full
  pass fits the step budget it is given.
* **A block never raises.** A load or store that would leave plain RAM
  (MMIO, past ``min(ram_size, mmio_base)``, or a store below the code
  limit) *bails*: the block writes back its registers, adds the edges
  of the instructions that already ran and returns the pc of that
  instruction, which the caller runs through its per-pc op. Fault
  texts, MMIO traffic and the self-modifying-code demotion therefore
  stay those of the per-step loop.

A block is called as ``block(cpu, regs, edges, room)`` with ``room``
the steps left in the budget, and returns ``(next pc, steps run)``. It
runs nothing, returning ``(its entry, 0)``, when one pass does not fit
``room`` or its first instruction bails.

The templates are those :mod:`repro.isa.cpu` also builds its
``ALU_R_OPS``/``ALU_I_OPS``/``BRANCH_OPS`` callables from, so the
semantics exist once. :mod:`repro.isa.cpu` imports this module when the
first :class:`~repro.isa.cpu.Cpu` is built; processes that never build
one (symbolic analysis) never load it.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.isa import encoding as enc
from repro.isa.cpu import (ALU_I_EXPRS, ALU_R_EXPRS, BRANCH_EXPRS,
                           LINE_BITS, MASK32, MAX_BLOCK, Block)
from repro.isa.predecode import DecodedImage

Edge = Tuple[int, int]

# ---------------------------------------------------------------------------
# Block discovery
# ---------------------------------------------------------------------------

_STOPS = frozenset({enc.HS, enc.HALT, enc.IRET})
_JUMPS = frozenset({enc.JAL, enc.JALR})


def leaders(image: DecodedImage) -> Set[int]:
    """The entry, every branch or ``jal`` target, and the pc after every
    branch, jump, ``hs``, ``halt`` and ``iret`` of *image*."""
    found = {image.entry}
    for pc, instr in image.itab.items():
        op = instr.opcode
        if op in enc.BRANCHES or op == enc.JAL:
            found.add((pc + instr.imm) & MASK32)
        if op in enc.BRANCHES or op in _JUMPS or op in _STOPS:
            found.add(pc + 4)
    return found


def _trace(itab: Dict[int, enc.Instruction], entry: int
           ) -> Tuple[List[Tuple[int, enc.Instruction]],
                      Optional[enc.Instruction], int]:
    """(body, ending instruction or None, its pc or the pc the block
    stops before) of the block at *entry*. The body holds the
    straight-line instructions and followed ``j``s, in execution order."""
    body: List[Tuple[int, enc.Instruction]] = []
    on_path: Set[int] = set()
    pc = entry
    while len(body) < MAX_BLOCK:
        instr = itab.get(pc)
        if instr is None or instr.opcode in _STOPS:
            break
        op = instr.opcode
        if op in enc.BRANCHES or op == enc.JALR:
            return body, instr, pc
        on_path.add(pc)
        if op == enc.JAL:
            target = (pc + instr.imm) & MASK32
            if instr.rd or target in on_path:
                return body, instr, pc
        body.append((pc, instr))
        pc = target if op == enc.JAL else pc + 4
    return body, None, pc


def _uses(instr: enc.Instruction) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(registers read, registers written) by *instr*."""
    op, rd, rs1 = instr.opcode, instr.rd, instr.rs1
    if op in enc.R_TYPE:
        return (rs1, instr.rs2), (rd,)
    if op in enc.I_ALU:
        return (() if op == enc.LUI else (rs1,)), (rd,)
    if op in enc.LOADS:
        return (rs1,), (rd,)
    if op in enc.STORES or op in enc.BRANCHES:
        return (rs1, rd), ()
    if op == enc.JALR:
        return (rs1,), ((rd,) if rd else ())
    return (), ((rd,) if rd else ())  # jal


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

#: Inline plain-RAM access per memory opcode: (bail test on the address
#: ``a``, statements that perform the access), as the op closures of
#: :mod:`repro.isa.cpu` do it, stores recording their RAM line.
_MEMORY: Dict[int, Tuple[str, Tuple[str, ...]]] = {
    enc.LW: ("a + 4 > lim", ("r{rd} = from_bytes(ram[a:a + 4], 'little')",)),
    enc.LB: ("a >= lim", ("v = ram[a]",
                          "r{rd} = v | 0xFFFFFF00 if v & 0x80 else v")),
    enc.LBU: ("a >= lim", ("r{rd} = ram[a]",)),
    enc.SW: ("a < code or a + 4 > lim",
             ("ram[a:a + 4] = (r{rd} & 0xFFFFFFFF).to_bytes(4, 'little')",
              f"dirty(a >> {LINE_BITS})")),
    enc.SB: ("a < code or a >= lim", ("ram[a] = r{rd} & 0xFF",
                                      f"dirty(a >> {LINE_BITS})")),
}


class _Source:
    """The generated module: one function per block, and the edge sets
    its exits add, shared between blocks by value."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.consts: Dict[str, FrozenSet[Edge]] = {}
        self._names: Dict[FrozenSet[Edge], str] = {}

    def edge_set(self, edges: List[Edge]) -> str:
        key = frozenset(edges)
        name = self._names.get(key)
        if name is None:
            name = self._names[key] = f"_E{len(self._names)}"
            self.consts[name] = key
        return name


def _emit_block(src: _Source, entry: int,
                body: List[Tuple[int, enc.Instruction]],
                end: Optional[enc.Instruction], end_pc: int) -> None:
    """Append the function of the block :func:`_trace` found at *entry*."""
    steps = len(body) + (end is not None)
    edges = [(pc, (pc + instr.imm) & MASK32 if instr.opcode == enc.JAL
              else pc + 4) for pc, instr in body]
    # The ending instruction's static successors: the target, then a
    # branch's fall-through.
    exits: List[int] = []
    if end is not None and end.opcode != enc.JALR:
        exits.append((end_pc + end.imm) & MASK32)
        if end.opcode in enc.BRANCHES:
            exits.append(end_pc + 4)
    loops = entry in exits
    loop_set = src.edge_set(edges + [(end_pc, entry)]) if loops else ""

    live: Set[int] = set()
    written: Set[int] = set()
    for instr in [i for _, i in body] + ([end] if end is not None else []):
        reads, writes = _uses(instr)
        live.update(r for r in reads if r not in written)
        written.update(writes)
    if loops:
        live |= written

    out = src.lines
    out.append(f"def _b{entry:x}(cpu, regs, edges, room):")
    out.append(f"    if room < {steps}:")
    out.append(f"        return {entry}, 0")
    memory = {instr.opcode for _, instr in body} & set(_MEMORY)
    if memory:
        out.append("    ram = cpu.ram")
        out.append("    lim = cpu._ram_limit")
    if memory & enc.STORES:
        out.append("    code = cpu._code_limit")
        out.append("    dirty = cpu._dirty.add")
    out.extend(f"    r{r} = regs[{r}]" for r in sorted(live))
    ind = "    "
    if loops:
        out.append("    n = 0")
        out.append("    while True:")
        ind = "        "
    ran = "n + " if loops else ""

    def leave(ind: str, dirty: Set[int], taken: List[Edge], pc: str,
              count: int) -> None:
        """Write back *dirty*, add the edges, return (pc, steps run)."""
        out.extend(f"{ind}regs[{r}] = r{r}" for r in sorted(dirty))
        if loops:
            out.append(f"{ind}if n:")
            out.append(f"{ind}    edges |= {loop_set}")
        if taken:
            out.append(f"{ind}edges |= {src.edge_set(taken)}")
        out.append(f"{ind}return {pc}, {ran}{count}")

    written_so_far: Set[int] = set()
    for i, (pc, instr) in enumerate(body):
        op, rd, rs1, imm = instr.opcode, instr.rd, instr.rs1, instr.imm
        if op in enc.R_TYPE:
            expr = ALU_R_EXPRS[op].format(a=f"r{rs1}", b=f"r{instr.rs2}")
            out.append(f"{ind}r{rd} = {expr}")
        elif op in enc.I_ALU:
            expr = ALU_I_EXPRS[op].format(a=f"r{rs1}", b=f"({imm})")
            out.append(f"{ind}r{rd} = {expr}")
        elif op in _MEMORY:
            bail, access = _MEMORY[op]
            out.append(f"{ind}a = (r{rs1} + ({imm})) & 0xFFFFFFFF")
            out.append(f"{ind}if {bail}:")
            leave(ind + "    ", written if loops else written_so_far,
                  edges[:i], str(pc), i)
            out.extend(ind + line.format(rd=rd) for line in access)
        written_so_far.update(_uses(instr)[1])

    if end is None:
        leave(ind, written, edges, str(end_pc), steps)
        return
    op, rd = end.opcode, end.rd
    if op == enc.JALR:
        out.append(f"{ind}t = (r{end.rs1} + ({end.imm})) & 0xFFFFFFFF")
    if op in _JUMPS and rd:
        out.append(f"{ind}r{rd} = {end_pc + 4}")
    if op == enc.JALR:
        out.extend(f"{ind}regs[{r}] = r{r}" for r in sorted(written))
        if edges:
            out.append(f"{ind}edges |= {src.edge_set(edges)}")
        out.append(f"{ind}edges.add(({end_pc}, t))")
        out.append(f"{ind}return t, {steps}")
        return
    if not loops:
        out.extend(f"{ind}regs[{r}] = r{r}" for r in sorted(written))
        if op in enc.BRANCHES:
            cond = BRANCH_EXPRS[op].format(a=f"r{rd}", b=f"r{end.rs1}")
            out.append(f"{ind}if {cond}:")
            leave(ind + "    ", set(), edges + [(end_pc, exits[0])],
                  str(exits[0]), steps)
        leave(ind, set(), edges + [(end_pc, exits[-1])], str(exits[-1]),
              steps)
        return
    # The pass leads back to the entry on one side (or both): loop while
    # the next full pass fits, else leave at the entry.
    others = [pc for pc in exits if pc != entry]
    again = ind
    if others:
        cond = BRANCH_EXPRS[op].format(a=f"r{rd}", b=f"r{end.rs1}")
        if exits[0] != entry:  # the fall-through loops
            cond = f"not ({cond})"
        out.append(f"{ind}if {cond}:")
        again = ind + "    "
    out.append(f"{again}n += {steps}")
    out.append(f"{again}if n + {steps} <= room:")
    out.append(f"{again}    continue")
    out.extend(f"{again}regs[{r}] = r{r}" for r in sorted(written))
    out.append(f"{again}edges |= {loop_set}")
    out.append(f"{again}return {entry}, n")
    if others:
        leave(ind, written, edges + [(end_pc, others[0])], str(others[0]),
              steps)


def compile_blocks(image: DecodedImage) -> Dict[int, Block]:
    """One generated function per block leader of *image* (leaders whose
    first instruction cannot start a block get none), compiled as one
    module."""
    itab = image.itab
    src = _Source()
    entries: List[int] = []
    todo = sorted(leaders(image), reverse=True)
    seen: Set[int] = set()
    while todo:
        entry = todo.pop()
        if entry in seen:
            continue
        seen.add(entry)
        body, end, end_pc = _trace(itab, entry)
        if not body and end is None:
            continue
        if end is None:
            todo.append(end_pc)  # a cut stretch continues in its own block
        _emit_block(src, entry, body, end, end_pc)
        entries.append(entry)
    namespace: Dict[str, Any] = {"from_bytes": int.from_bytes, **src.consts}
    code = compile("\n".join(src.lines) + "\n", "<hs32-blocks>", "exec")
    exec(code, namespace)  # noqa: S102 - generated from the decoded image
    return {entry: namespace[f"_b{entry:x}"] for entry in entries}
