"""The netlist optimizer's differential oracle: the original wire fusion.

:func:`reference_run_opt` is :func:`repro.opt.run_opt` as it was before
fusion learned to index its reference sites: it deep-copies the design,
drops the nets no process mentions, and then, per candidate net, scans
every expression of the whole design for the net's references
(:func:`_find_single_ref`) and grafts the producer's expression into
the consumer in place. The indexed, copy-on-write fusion in
:mod:`repro.opt.cones` must fuse the same wires and yield a netlist the
code generator turns into byte-identical source
(``tests/test_opt_oracle.py``).
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.hdl import ir
from repro.opt.cones import _INLINE_NODE_LIMIT
from repro.opt.transform import _mentioned_names, _protected_nets


def _stmt_exprs(stmt: ir.Stmt) -> Iterator[ir.Expr]:
    """Every expression appearing directly in *stmt* (not nested stmts)."""
    if isinstance(stmt, ir.SAssign):
        yield stmt.value
        for lv in ir._leaf_lvalues(stmt.target):
            if isinstance(lv, (ir.LNetDyn, ir.LMem)):
                yield lv.index
    elif isinstance(stmt, ir.SIf):
        yield stmt.cond
    elif isinstance(stmt, ir.SCase):
        yield stmt.subject


def _expr_size(expr: ir.Expr) -> int:
    size = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        size += 1
        if isinstance(node, ir.Unary):
            stack.append(node.operand)
        elif isinstance(node, ir.Binary):
            stack.extend((node.left, node.right))
        elif isinstance(node, ir.Ternary):
            stack.extend((node.cond, node.then, node.other))
        elif isinstance(node, ir.Concat):
            stack.extend(node.parts)
        elif isinstance(node, ir.Slice):
            stack.append(node.value)
        elif isinstance(node, ir.DynBit):
            stack.extend((node.value, node.index))
        elif isinstance(node, ir.MemRead):
            stack.append(node.index)
    return size


def _find_single_ref(design: ir.Design,
                     name: str) -> Optional[Tuple[ir.CombBlock, ir.Ref]]:
    """The unique comb-block Ref site of *name*, or None if the net is
    referenced zero times, more than once, or from a non-comb process."""
    found: List[Tuple[Optional[ir.CombBlock], ir.Ref]] = []

    def scan(expr: ir.Expr, block: Optional[ir.CombBlock]) -> None:
        stack = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ir.Ref):
                if node.net.name == name:
                    found.append((block, node))
            elif isinstance(node, ir.Unary):
                stack.append(node.operand)
            elif isinstance(node, ir.Binary):
                stack.extend((node.left, node.right))
            elif isinstance(node, ir.Ternary):
                stack.extend((node.cond, node.then, node.other))
            elif isinstance(node, ir.Concat):
                stack.extend(node.parts)
            elif isinstance(node, ir.Slice):
                stack.append(node.value)
            elif isinstance(node, ir.DynBit):
                stack.extend((node.value, node.index))
            elif isinstance(node, ir.MemRead):
                stack.append(node.index)

    for block in design.comb_blocks:
        for stmt in ir._walk_stmts(block.stmts):
            for expr in _stmt_exprs(stmt):
                scan(expr, block)
    for other in (*design.seq_blocks, *design.init_blocks):
        for stmt in ir._walk_stmts(other.stmts):
            for expr in _stmt_exprs(stmt):
                scan(expr, None)
    if len(found) != 1 or found[0][0] is None:
        return None
    return found[0][0], found[0][1]


def _replace_ref(stmts: List[ir.Stmt], ref: ir.Ref,
                 replacement: ir.Expr) -> None:
    """Substitute the exact *ref* node (by identity) in place."""

    def sub(expr: ir.Expr) -> ir.Expr:
        if expr is ref:
            return replacement
        if isinstance(expr, ir.Unary):
            expr.operand = sub(expr.operand)
        elif isinstance(expr, ir.Binary):
            expr.left = sub(expr.left)
            expr.right = sub(expr.right)
        elif isinstance(expr, ir.Ternary):
            expr.cond = sub(expr.cond)
            expr.then = sub(expr.then)
            expr.other = sub(expr.other)
        elif isinstance(expr, ir.Concat):
            expr.parts = [sub(p) for p in expr.parts]
        elif isinstance(expr, ir.Slice):
            expr.value = sub(expr.value)
        elif isinstance(expr, ir.DynBit):
            expr.value = sub(expr.value)
            expr.index = sub(expr.index)
        elif isinstance(expr, ir.MemRead):
            expr.index = sub(expr.index)
        return expr

    for stmt in ir._walk_stmts(stmts):
        if isinstance(stmt, ir.SAssign):
            stmt.value = sub(stmt.value)
            for lv in ir._leaf_lvalues(stmt.target):
                if isinstance(lv, (ir.LNetDyn, ir.LMem)):
                    lv.index = sub(lv.index)
        elif isinstance(stmt, ir.SIf):
            stmt.cond = sub(stmt.cond)
        elif isinstance(stmt, ir.SCase):
            stmt.subject = sub(stmt.subject)


def reference_inline_single_use_wires(design: ir.Design,
                                      protected: Set[str]) -> List[str]:
    """Fuse single-writer, single-reader wires in place, one whole-design
    reference scan per candidate net; returns the fused names."""
    inlined: List[str] = []
    for _ in range(16):
        progress = False
        writers: Dict[str, List[object]] = {}
        for block in design.comb_blocks:
            for name in block.writes:
                writers.setdefault(name, []).append(block)
        for other in (*design.seq_blocks, *design.init_blocks):
            for name in ir.stmt_reads_writes(other.stmts)[1]:
                writers.setdefault(name, []).append(other)

        for name, net in list(design.nets.items()):
            if name in protected:
                continue
            blocks = writers.get(name, [])
            if len(blocks) != 1 or not isinstance(blocks[0], ir.CombBlock):
                continue
            producer = blocks[0]
            if len(producer.stmts) != 1:
                continue
            stmt = producer.stmts[0]
            if not (isinstance(stmt, ir.SAssign)
                    and isinstance(stmt.target, ir.LNet)
                    and stmt.target.net.name == name
                    and stmt.target.hi is None):
                continue
            if _expr_size(stmt.value) > _INLINE_NODE_LIMIT:
                continue
            site = _find_single_ref(design, name)
            if site is None:
                continue
            consumer, ref = site
            if consumer is producer:
                continue
            replacement = stmt.value
            if replacement.width != net.width:
                replacement = ir.Slice(replacement, net.width - 1, 0,
                                       width=net.width)
            _replace_ref(consumer.stmts, ref, replacement)
            design.comb_blocks.remove(producer)
            del design.nets[name]
            inlined.append(name)
            progress = True
        if not progress:
            break

    if inlined:
        for block in design.comb_blocks:
            reads, writes = ir.stmt_reads_writes(block.stmts)
            block.reads = frozenset(reads)
            block.writes = frozenset(writes)
    return inlined


def reference_run_opt(design: ir.Design, clock: str = "clk"
                      ) -> Tuple[ir.Design, List[str], List[str]]:
    """(optimized deep copy, fused wires, removed nets) of *design*."""
    design = copy.deepcopy(design)
    protected = _protected_nets(design, clock)
    mentioned = _mentioned_names(design) | protected
    removed = sorted(set(design.nets) - mentioned)
    for name in removed:
        del design.nets[name]
    fused = reference_inline_single_use_wires(design, protected)
    return design, fused, removed
