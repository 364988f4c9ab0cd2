"""Elaborated RTL intermediate representation.

The elaborator lowers the parsed AST of a design into one flat
:class:`Design`: a set of nets (wires and registers), memories, and three
kinds of processes:

* :class:`CombBlock` — combinational logic (continuous assignments and
  ``always @(*)`` blocks), scheduled in dependency order each delta cycle,
* :class:`SeqBlock` — edge-triggered logic, executed at clock edges with
  non-blocking commit semantics,
* :class:`InitBlock` — ``initial`` blocks, executed once at time zero.

Expressions are width-resolved: every node carries the bit width its value
is masked to, following Verilog's context-determined width rules (the
elaborator widens operands of arithmetic/bitwise/ternary nodes to the
assignment context, so carry-out idioms like ``{c, s} = a + b`` behave as
in a standard simulator).

State elements (flip-flops and state memories) are *inferred*: a net or
memory written by any sequential process is state. The scan-chain
instrumentation pass and every snapshot method operate on exactly this
state set — it is the paper's definition of the hardware state S_hw.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Storage elements
# ---------------------------------------------------------------------------

@dataclass
class Net:
    """A scalar or vector signal with a fixed width."""

    name: str
    width: int
    kind: str = "wire"  # wire | reg | input | output
    initial: int = 0
    #: Source line of the declaration (0 when synthesised by a pass).
    line: int = 0
    #: True when the declaration carried an explicit initialiser.
    explicit_init: bool = False

    def __repr__(self) -> str:
        return f"Net({self.name}:{self.width})"

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1


@dataclass
class Memory:
    """A register file / RAM: ``depth`` words of ``width`` bits."""

    name: str
    width: int
    depth: int
    initial: Optional[List[int]] = None
    line: int = 0

    def __repr__(self) -> str:
        return f"Memory({self.name}:{self.width}x{self.depth})"

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def state_bits(self) -> int:
        return self.width * self.depth


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Expr:
    width: int = field(default=0, kw_only=True)


@dataclass(eq=False)
class Const(Expr):
    value: int


#: Interning cache for :func:`const`.  Elaboration and constant folding
#: produce the same small literals over and over; sharing one node per
#: (value, width) keeps IR memory flat.  Nodes are immutable by
#: convention — no pass rewrites a Const in place.
_CONST_CACHE: Dict[Tuple[int, int], "Const"] = {}
_CONST_CACHE_LIMIT = 65536


def const(value: int, width: int) -> "Const":
    """An interned constant node, masked to *width* bits."""
    value &= (1 << width) - 1
    key = (value, width)
    node = _CONST_CACHE.get(key)
    if node is None:
        node = Const(value, width=width)
        if len(_CONST_CACHE) < _CONST_CACHE_LIMIT:
            _CONST_CACHE[key] = node
    return node


@dataclass(eq=False)
class Ref(Expr):
    """Read of a net's current value."""

    net: Net


@dataclass(eq=False)
class MemRead(Expr):
    """Read ``memory[index]``; out-of-range indexes read as 0."""

    memory: Memory
    index: Expr


@dataclass(eq=False)
class Unary(Expr):
    op: str  # ~ ! - & | ^ ~& ~| ~^
    operand: Expr


@dataclass(eq=False)
class Binary(Expr):
    op: str  # + - * / % & | ^ << >> >>> < <= > >= == != && ||
    left: Expr
    right: Expr


@dataclass(eq=False)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(eq=False)
class Concat(Expr):
    """First part is most significant, as in Verilog ``{a, b}``."""

    parts: List[Expr]


@dataclass(eq=False)
class Slice(Expr):
    """Constant part-select ``value[hi:lo]`` (LSB-based bit indices)."""

    value: Expr
    hi: int
    lo: int


@dataclass(eq=False)
class DynBit(Expr):
    """Dynamic bit-select ``value[index]`` with non-constant index."""

    value: Expr
    index: Expr


# ---------------------------------------------------------------------------
# L-values
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class LValue:
    @property
    def width(self) -> int:
        """Bits the assignment target receives."""
        raise NotImplementedError


@dataclass(eq=False)
class LNet(LValue):
    """Assignment to net bits [hi:lo]; full width when hi/lo are None."""

    net: Net
    hi: Optional[int] = None
    lo: Optional[int] = None

    @property
    def width(self) -> int:
        if self.hi is None:
            return self.net.width
        return self.hi - self.lo + 1


@dataclass(eq=False)
class LNetDyn(LValue):
    """Assignment to a single, dynamically selected bit of a net."""

    net: Net
    index: Expr

    @property
    def width(self) -> int:
        return 1


@dataclass(eq=False)
class LMem(LValue):
    memory: Memory
    index: Expr

    @property
    def width(self) -> int:
        return self.memory.width


@dataclass(eq=False)
class LConcat(LValue):
    """``{a, b} = ...`` — first part receives the most significant bits."""

    parts: List[LValue]

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Stmt:
    pass


@dataclass(eq=False)
class SAssign(Stmt):
    target: LValue
    value: Expr
    blocking: bool = True
    line: int = 0


@dataclass(eq=False)
class SIf(Stmt):
    cond: Expr
    then: List[Stmt] = field(default_factory=list)
    other: List[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class SCaseItem:
    labels: List[Tuple[int, int]]  # (value, care_mask) pairs; casez wildcards
    body: List[Stmt] = field(default_factory=list)


@dataclass(eq=False)
class SCase(Stmt):
    subject: Expr
    items: List[SCaseItem] = field(default_factory=list)
    default: List[Stmt] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass
class CombBlock:
    """Combinational process: continuous assign or ``always @(*)``."""

    stmts: List[Stmt]
    reads: frozenset = frozenset()   # net names read
    writes: frozenset = frozenset()  # net names written
    name: str = ""
    line: int = 0


@dataclass
class SeqBlock:
    """Edge-triggered process."""

    clock: Net
    clock_edge: str  # posedge | negedge
    stmts: List[Stmt]
    areset: Optional[Net] = None
    areset_edge: str = "posedge"
    name: str = ""
    line: int = 0


@dataclass
class InitBlock:
    stmts: List[Stmt]


# ---------------------------------------------------------------------------
# Design
# ---------------------------------------------------------------------------

@dataclass
class Design:
    """A fully elaborated, flattened design."""

    name: str
    nets: Dict[str, Net] = field(default_factory=dict)
    memories: Dict[str, Memory] = field(default_factory=dict)
    inputs: List[Net] = field(default_factory=list)
    outputs: List[Net] = field(default_factory=list)
    comb_blocks: List[CombBlock] = field(default_factory=list)
    seq_blocks: List[SeqBlock] = field(default_factory=list)
    init_blocks: List[InitBlock] = field(default_factory=list)

    # Filled by finalize(): names of nets that hold state (flip-flops) and
    # memories written sequentially.
    state_nets: List[Net] = field(default_factory=list)
    state_memories: List[Memory] = field(default_factory=list)

    #: Path of the Verilog source this design was elaborated from, when
    #: known — threaded into lint diagnostics alongside declaration lines.
    source_file: Optional[str] = None

    def finalize(self) -> None:
        """Infer state elements from sequential write sets."""
        written_nets: Dict[str, Net] = {}
        written_mems: Dict[str, Memory] = {}
        for block in self.seq_blocks:
            for stmt in _walk_stmts(block.stmts):
                if isinstance(stmt, SAssign):
                    for lv in _leaf_lvalues(stmt.target):
                        if isinstance(lv, (LNet, LNetDyn)):
                            written_nets[lv.net.name] = lv.net
                        elif isinstance(lv, LMem):
                            written_mems[lv.memory.name] = lv.memory
        self.state_nets = sorted(written_nets.values(), key=lambda n: n.name)
        self.state_memories = sorted(written_mems.values(), key=lambda m: m.name)

    def copy(self) -> "Design":
        """A design sharing every net, memory and process with this one.

        Only the containers are new, so a pass can add, drop or replace
        entries without touching this design; it must still replace a
        shared node rather than mutate it.
        """
        return replace(
            self, nets=dict(self.nets), memories=dict(self.memories),
            inputs=list(self.inputs), outputs=list(self.outputs),
            comb_blocks=list(self.comb_blocks),
            seq_blocks=list(self.seq_blocks),
            init_blocks=list(self.init_blocks),
            state_nets=list(self.state_nets),
            state_memories=list(self.state_memories))

    @property
    def state_bit_count(self) -> int:
        """Total number of state bits — the scan-chain length."""
        bits = sum(n.width for n in self.state_nets)
        bits += sum(m.state_bits for m in self.state_memories)
        return bits

    def stats(self) -> Dict[str, int]:
        return {
            "nets": len(self.nets),
            "memories": len(self.memories),
            "flip_flops": sum(n.width for n in self.state_nets),
            "memory_bits": sum(m.state_bits for m in self.state_memories),
            "state_bits": self.state_bit_count,
            "comb_blocks": len(self.comb_blocks),
            "seq_blocks": len(self.seq_blocks),
        }


def _walk_stmts(stmts: Sequence[Stmt]):
    for stmt in stmts:
        yield stmt
        if isinstance(stmt, SIf):
            yield from _walk_stmts(stmt.then)
            yield from _walk_stmts(stmt.other)
        elif isinstance(stmt, SCase):
            for item in stmt.items:
                yield from _walk_stmts(item.body)
            yield from _walk_stmts(stmt.default)


def _leaf_lvalues(lv: LValue):
    if isinstance(lv, LConcat):
        for part in lv.parts:
            yield from _leaf_lvalues(part)
    else:
        yield lv


def expr_reads(expr: Expr, into: set) -> set:
    """Collect names of nets and memories read by *expr* into *into*."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Ref):
            into.add(node.net.name)
        elif isinstance(node, MemRead):
            into.add(node.memory.name)
            stack.append(node.index)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Binary):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Ternary):
            stack.extend((node.cond, node.then, node.other))
        elif isinstance(node, Concat):
            stack.extend(node.parts)
        elif isinstance(node, Slice):
            stack.append(node.value)
        elif isinstance(node, DynBit):
            stack.append(node.value)
            stack.append(node.index)
    return into


def stmt_reads_writes(stmts: Sequence[Stmt]) -> Tuple[set, set]:
    """Compute (reads, writes) name sets for a statement list.

    Condition/subject expressions count as reads; LHS index expressions
    count as reads too. Writes include nets and memories.
    """
    reads: set = set()
    writes: set = set()
    for stmt in _walk_stmts(stmts):
        if isinstance(stmt, SAssign):
            expr_reads(stmt.value, reads)
            for lv in _leaf_lvalues(stmt.target):
                if isinstance(lv, LNet):
                    writes.add(lv.net.name)
                    # Partial bit-range writes read-modify-write the net,
                    # but that implicit read is NOT a scheduling
                    # dependency: the merge preserves the other writers'
                    # bits regardless of execution order, and adding it
                    # would make two blocks driving disjoint ranges of one
                    # net look like a combinational loop.
                elif isinstance(lv, LNetDyn):
                    writes.add(lv.net.name)
                    expr_reads(lv.index, reads)
                elif isinstance(lv, LMem):
                    writes.add(lv.memory.name)
                    expr_reads(lv.index, reads)
        elif isinstance(stmt, SIf):
            expr_reads(stmt.cond, reads)
        elif isinstance(stmt, SCase):
            expr_reads(stmt.subject, reads)
    return reads, writes
