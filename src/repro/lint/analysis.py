"""Shared static analyses over an elaborated design.

All lint rules work from one :class:`LintContext`: per-process read/write
sets, bit-precise write masks, definite-assignment masks (for latch
inference), gate signatures (for mutual-exclusion reasoning such as
``scan_enable`` gating), reader counts and reset coverage. Computing these
once keeps each rule a few lines and the whole lint pass O(design).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.hdl import ir
from repro.lint.framework import Diagnostic, LintConfig

#: Local (unqualified) names treated as reset signals.
_RESET_NAMES = frozenset({
    "rst", "reset", "arst", "areset", "nrst", "nreset",
    "rst_n", "rstn", "reset_n", "resetn", "arst_n", "arstn",
})


def _is_reset_name(name: str) -> bool:
    return name.split(".")[-1].lower() in _RESET_NAMES


def _merge_or(into: Dict[str, int], frm: Dict[str, int]) -> None:
    for name, mask in frm.items():
        into[name] = into.get(name, 0) | mask


def _merge_and(a: Dict[str, int], b: Dict[str, int]) -> Dict[str, int]:
    return {name: a[name] & b[name] for name in a.keys() & b.keys()
            if a[name] & b[name]}


def _case_is_full(stmt: ir.SCase) -> bool:
    """Decide (exactly) whether a case covers every subject value.

    Labels are ``(match, care)`` cubes: a subject value hits a label when
    ``value & care == match``. Coverage is checked by recursive care-bit
    elimination — split on one cared bit, keep only the labels consistent
    with each polarity, and require both halves to be covered. Labels
    with an empty care mask match everything, which both terminates the
    recursion and prunes aggressively, so wide subjects (the old
    implementation gave up above 12 bits) are decided exactly.
    """
    labels = [lab for item in stmt.items for lab in item.labels]
    mask = (1 << stmt.subject.width) - 1
    return _labels_cover([(match & mask, care & mask)
                          for match, care in labels])


def _labels_cover(labels: List[Tuple[int, int]]) -> bool:
    if not labels:
        return False
    cared = 0
    for match, care in labels:
        if care == 0:
            return True  # wildcard cube matches every value
        cared |= care
    # Split on the lowest bit any remaining label cares about.
    bit = cared & -cared
    for polarity in (0, bit):
        subset = [(match & ~bit, care & ~bit)
                  for match, care in labels
                  if not (care & bit) or (match & bit) == polarity]
        if not _labels_cover(subset):
            return False
    return True


def _assign_masks(stmts) -> Tuple[Dict[str, int], Dict[str, int], Set[str]]:
    """(definite, maybe) per-net write masks and written-memory names.

    *definite* holds bits written on every path through *stmts*; *maybe*
    holds bits written on at least one path. A dynamically indexed bit
    write contributes its net's full mask to *maybe* only.
    """
    definite: Dict[str, int] = {}
    maybe: Dict[str, int] = {}
    mems: Set[str] = set()
    for stmt in stmts:
        if isinstance(stmt, ir.SAssign):
            for lv in ir._leaf_lvalues(stmt.target):
                if isinstance(lv, ir.LNet):
                    if lv.hi is None:
                        mask = lv.net.mask
                    else:
                        mask = ((1 << (lv.hi - lv.lo + 1)) - 1) << lv.lo
                    definite[lv.net.name] = definite.get(lv.net.name, 0) | mask
                    maybe[lv.net.name] = maybe.get(lv.net.name, 0) | mask
                elif isinstance(lv, ir.LNetDyn):
                    maybe[lv.net.name] = maybe.get(lv.net.name, 0) | lv.net.mask
                elif isinstance(lv, ir.LMem):
                    mems.add(lv.memory.name)
        elif isinstance(stmt, ir.SIf):
            d1, m1, mm1 = _assign_masks(stmt.then)
            d2, m2, mm2 = _assign_masks(stmt.other)
            _merge_or(definite, _merge_and(d1, d2))
            _merge_or(maybe, m1)
            _merge_or(maybe, m2)
            mems |= mm1 | mm2
        elif isinstance(stmt, ir.SCase):
            branches = [item.body for item in stmt.items]
            if stmt.default or _case_is_full(stmt):
                if stmt.default:
                    # A full case without a default has no reachable
                    # default branch — folding the empty list in would
                    # wipe every definite assignment.
                    branches.append(stmt.default)
                branch_defs = None
                for body in branches:
                    d, m, mm = _assign_masks(body)
                    branch_defs = d if branch_defs is None else _merge_and(
                        branch_defs, d)
                    _merge_or(maybe, m)
                    mems |= mm
                if branch_defs:
                    _merge_or(definite, branch_defs)
            else:
                for body in branches + [stmt.default]:
                    _, m, mm = _assign_masks(body)
                    _merge_or(maybe, m)
                    mems |= mm
    return definite, maybe, mems


def _gate_signature(stmts) -> Optional[Tuple[str, bool]]:
    """Recognise a process of the form ``if (en) ...`` / ``if (!en) ...``.

    Returns ``(net_name, polarity)`` when the whole body is guarded by a
    single 1-bit net, else None. Used to prove two writers of the same net
    are mutually exclusive (e.g. scan-shift vs. functional logic).
    """
    if len(stmts) != 1 or not isinstance(stmts[0], ir.SIf):
        return None
    guard = stmts[0]
    if guard.other:
        return None
    cond = guard.cond
    if isinstance(cond, ir.Ref) and cond.net.width == 1:
        return cond.net.name, True
    if (isinstance(cond, ir.Unary) and cond.op == "!"
            and isinstance(cond.operand, ir.Ref)):
        return cond.operand.net.name, False
    return None


def _collect_assigns(stmts, into: List[ir.SAssign]) -> None:
    for stmt in ir._walk_stmts(stmts):
        if isinstance(stmt, ir.SAssign):
            into.append(stmt)


@dataclass
class BlockInfo:
    """Pre-digested view of one process for the rules."""

    kind: str                    # "comb" | "seq" | "init"
    index: int
    name: str
    line: int
    stmts: list
    reads: frozenset
    writes: frozenset            # net and memory names
    write_masks: Dict[str, int]  # net -> bits possibly written
    definite_masks: Dict[str, int]
    mem_writes: frozenset
    assigns: List[ir.SAssign]
    gate: Optional[Tuple[str, bool]] = None
    clock: Optional[str] = None
    areset: Optional[str] = None

    @property
    def label(self) -> str:
        return self.name or f"{self.kind}#{self.index}"


def _block_info(kind: str, index: int, name: str, line: int, stmts,
                clock: Optional[str] = None,
                areset: Optional[str] = None) -> BlockInfo:
    reads, writes = ir.stmt_reads_writes(stmts)
    definite, maybe, mems = _assign_masks(stmts)
    assigns: List[ir.SAssign] = []
    _collect_assigns(stmts, assigns)
    return BlockInfo(kind, index, name, line, stmts,
                     frozenset(reads), frozenset(writes),
                     maybe, definite, frozenset(mems), assigns,
                     gate=_gate_signature(stmts), clock=clock, areset=areset)


@dataclass
class LintContext:
    """Everything a rule needs: the design, the config, and the analyses."""

    design: ir.Design
    config: LintConfig
    comb: List[BlockInfo] = field(default_factory=list)
    seq: List[BlockInfo] = field(default_factory=list)
    init: List[BlockInfo] = field(default_factory=list)
    #: name -> number of reading processes (clock/reset edges count).
    readers: Dict[str, int] = field(default_factory=dict)
    #: Names of nets treated as resets (async reset nets + rst-like inputs).
    reset_nets: Set[str] = field(default_factory=set)
    #: State nets assigned under a reset condition somewhere.
    reset_covered: Set[str] = field(default_factory=set)
    #: Nets written by any init block.
    init_written: Set[str] = field(default_factory=set)
    #: Lazy caches for the dataflow-backed rules (repro.opt analyses).
    _const_env: Optional[dict] = field(default=None, repr=False)
    _live_cache: Dict[bool, object] = field(default_factory=dict, repr=False)

    # -- construction ----------------------------------------------------------

    @classmethod
    def build(cls, design: ir.Design, config: LintConfig) -> "LintContext":
        ctx = cls(design, config)
        for i, block in enumerate(design.comb_blocks):
            ctx.comb.append(_block_info(
                "comb", i, block.name, getattr(block, "line", 0), block.stmts))
        for i, block in enumerate(design.seq_blocks):
            ctx.seq.append(_block_info(
                "seq", i, block.name, getattr(block, "line", 0), block.stmts,
                clock=block.clock.name,
                areset=block.areset.name if block.areset else None))
        for i, block in enumerate(design.init_blocks):
            info = _block_info("init", i, f"initial#{i}", 0, block.stmts)
            ctx.init.append(info)
            ctx.init_written |= set(info.write_masks) | set(info.mem_writes)
        ctx._index_readers()
        ctx._find_resets()
        return ctx

    def _index_readers(self) -> None:
        for info in self.comb + self.seq + self.init:
            for name in info.reads:
                self.readers[name] = self.readers.get(name, 0) + 1
        for info in self.seq:
            for name in (info.clock, info.areset):
                if name:
                    self.readers[name] = self.readers.get(name, 0) + 1

    def _find_resets(self) -> None:
        for info in self.seq:
            if info.areset:
                self.reset_nets.add(info.areset)
        for net in self.design.inputs:
            if _is_reset_name(net.name):
                self.reset_nets.add(net.name)
        if not self.reset_nets:
            return
        for info in self.seq:
            self._walk_reset(info.stmts, under_reset=False)

    def _walk_reset(self, stmts, under_reset: bool) -> None:
        for stmt in stmts:
            if isinstance(stmt, ir.SAssign):
                if under_reset:
                    for lv in ir._leaf_lvalues(stmt.target):
                        if isinstance(lv, (ir.LNet, ir.LNetDyn)):
                            self.reset_covered.add(lv.net.name)
                        elif isinstance(lv, ir.LMem):
                            self.reset_covered.add(lv.memory.name)
            elif isinstance(stmt, ir.SIf):
                guarded = under_reset or bool(
                    ir.expr_reads(stmt.cond, set()) & self.reset_nets)
                self._walk_reset(stmt.then, guarded)
                self._walk_reset(stmt.other, guarded)
            elif isinstance(stmt, ir.SCase):
                for item in stmt.items:
                    self._walk_reset(item.body, under_reset)
                self._walk_reset(stmt.default, under_reset)

    # -- dataflow analyses (shared by the df-* rules) ---------------------------

    def constants(self) -> dict:
        """Forward constant propagation result (net -> BitsVal), cached."""
        if self._const_env is None:
            from repro.opt.dataflow import constant_map
            self._const_env = constant_map(self.design)
        return self._const_env

    def liveness(self, include_state_sinks: bool = True):
        """Backward bit-liveness result (:class:`repro.opt.liveness.LiveSets`),
        cached per sink configuration."""
        if include_state_sinks not in self._live_cache:
            from repro.opt.liveness import live_masks
            self._live_cache[include_state_sinks] = live_masks(
                self.design, include_state_sinks=include_state_sinks)
        return self._live_cache[include_state_sinks]

    # -- lookups ---------------------------------------------------------------

    def net_line(self, name: str) -> Optional[int]:
        net = self.design.nets.get(name)
        if net is not None and net.line:
            return net.line
        mem = self.design.memories.get(name)
        if mem is not None and mem.line:
            return mem.line
        return None

    def diag(self, rule_id: str, severity: str, message: str,
             subject: str = "", line: Optional[int] = None) -> Diagnostic:
        if line is None and subject:
            line = self.net_line(subject)
        return Diagnostic(rule=rule_id, severity=severity, message=message,
                          subject=subject, design=self.design.name,
                          source_file=self.design.source_file,
                          line=line or None)


# ---------------------------------------------------------------------------
# Expression width estimation (for the truncation rule)
# ---------------------------------------------------------------------------

#: Operators whose result keeps the left operand's significant width.
_LEFT_WIDTH_OPS = frozenset({"/", ">>", ">>>", "<<"})
_BOOL_OPS = frozenset({"==", "!=", "<", "<=", ">", ">=", "&&", "||"})


def significant_width(expr: ir.Expr) -> int:
    """Bits the value of *expr* can actually occupy.

    Verilog's context rules widen unsized literals to 32 bits, which makes
    the *declared* width of almost every RHS 32; warning on that would be
    pure noise. This computes the semantically meaningful width instead:
    constants contribute their magnitude, wrap-around arithmetic keeps its
    operand width (``count + 1`` is idiomatic, not a truncation), ``&``
    narrows, concats and comparisons are exact.
    """
    if isinstance(expr, ir.Const):
        return max(1, expr.value.bit_length())
    if isinstance(expr, ir.Ref):
        return expr.net.width
    if isinstance(expr, ir.MemRead):
        return expr.memory.width
    if isinstance(expr, ir.Slice):
        return expr.hi - expr.lo + 1
    if isinstance(expr, ir.DynBit):
        return 1
    if isinstance(expr, ir.Unary):
        if expr.op in ("~", "-", "+"):
            return significant_width(expr.operand)
        return 1  # reductions and !
    if isinstance(expr, ir.Binary):
        if expr.op in _BOOL_OPS:
            return 1
        left = significant_width(expr.left)
        if expr.op in _LEFT_WIDTH_OPS:
            return left
        right = significant_width(expr.right)
        if expr.op == "&":
            return min(left, right)
        return max(left, right)
    if isinstance(expr, ir.Ternary):
        return max(significant_width(expr.then),
                   significant_width(expr.other))
    if isinstance(expr, ir.Concat):
        return sum(p.width for p in expr.parts)
    return expr.width


def lvalue_width(lv: ir.LValue) -> int:
    return lv.width


def strongly_connected_components(
        succ: Dict[int, Set[int]], count: int) -> List[List[int]]:
    """Iterative Tarjan SCC over nodes ``0..count-1``."""
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = [0]

    for root in range(count):
        if root in index_of:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index_of[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            children = sorted(succ.get(node, ()))
            for k in range(child_i, len(children)):
                child = children[k]
                if child not in index_of:
                    work[-1] = (node, k + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index_of[child])
            if advanced:
                continue
            if low[node] == index_of[node]:
                component: List[int] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs
