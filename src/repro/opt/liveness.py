"""Backward bit-liveness from observable sinks.

A bit is *live* when changing it could change something observable.
The observables depend on the caller:

* with ``include_state_sinks`` (the default), sinks are the design
  outputs **and** the whole snapshot state set (state nets and state
  memories) — HardSnap serializes S_hw byte-for-byte, so every state
  bit is observable even if it never reaches a pin;
* for the ``df-dead-state`` lint rule, sinks are the outputs alone —
  surviving dead state bits are exactly the flip-flops the scan chain
  carries for nothing.

The analysis is a demand fixpoint over bit masks: statements propagate
the demanded bits of their targets into the bits of the expressions
they read.  It over-approximates (no kill sets inside a block), which
is the safe direction for a dead-logic report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.hdl import ir

_MAX_SWEEPS = 64


@dataclass
class LiveSets:
    """Result of the liveness fixpoint."""

    net_masks: Dict[str, int]
    live_memories: Set[str]


class _Demand:
    def __init__(self, design: ir.Design):
        self.design = design
        self.net_masks: Dict[str, int] = {name: 0 for name in design.nets}
        self.live_memories: Set[str] = set()
        self.changed = False

    def demand_net(self, name: str, mask: int) -> None:
        mask &= self.design.nets[name].mask
        if mask & ~self.net_masks[name]:
            self.net_masks[name] |= mask
            self.changed = True

    def demand_memory(self, name: str) -> None:
        if name not in self.live_memories:
            self.live_memories.add(name)
            self.changed = True

    # -- expressions -------------------------------------------------------

    def demand_expr(self, expr: ir.Expr, mask: int) -> None:
        if mask == 0:
            return
        if type(expr) is ir.Const:
            return
        if type(expr) is ir.Ref:
            self.demand_net(expr.net.name, mask)
        elif type(expr) is ir.Binary:
            self._demand_binary(expr, mask)
        elif type(expr) is ir.Unary:
            op = expr.op
            if op == "~":
                self.demand_expr(expr.operand, mask)
            elif op == "-":
                # Borrows ripple upward: bits at or below the highest
                # demanded bit matter.
                self.demand_expr(expr.operand,
                                 _low_mask(mask.bit_length()))
            else:  # reductions and ! look at every operand bit
                self.demand_expr(expr.operand,
                                 (1 << expr.operand.width) - 1)
        elif type(expr) is ir.Ternary:
            self.demand_expr(expr.cond, (1 << expr.cond.width) - 1)
            self.demand_expr(expr.then, mask)
            self.demand_expr(expr.other, mask)
        elif type(expr) is ir.Concat:
            offset = sum(p.width for p in expr.parts)
            for part in expr.parts:  # first part is most significant
                offset -= part.width
                self.demand_expr(part, (mask >> offset)
                                 & ((1 << part.width) - 1))
        elif type(expr) is ir.Slice:
            self.demand_expr(expr.value, mask << expr.lo)
        elif type(expr) is ir.DynBit:
            self.demand_expr(expr.value, (1 << expr.value.width) - 1)
            self.demand_expr(expr.index, (1 << expr.index.width) - 1)
        elif type(expr) is ir.MemRead:
            self.demand_memory(expr.memory.name)
            self.demand_expr(expr.index, (1 << expr.index.width) - 1)

    def _demand_binary(self, expr: ir.Binary, mask: int) -> None:
        op = expr.op
        if op in ("&", "|", "^"):
            self.demand_expr(expr.left, mask)
            self.demand_expr(expr.right, mask)
        elif op in ("+", "-", "*"):
            low = _low_mask(mask.bit_length())
            self.demand_expr(expr.left, low)
            self.demand_expr(expr.right, low)
        elif op in ("<<", ">>", ">>>"):
            if isinstance(expr.right, ir.Const):
                sh = expr.right.value
                if op == "<<":
                    self.demand_expr(expr.left, mask >> sh)
                else:
                    self.demand_expr(
                        expr.left,
                        (mask << sh) & ((1 << expr.left.width) - 1))
            else:
                self.demand_expr(expr.left, (1 << expr.left.width) - 1)
                self.demand_expr(expr.right, (1 << expr.right.width) - 1)
        else:
            # comparisons, &&/||, division: any operand bit can matter
            self.demand_expr(expr.left, (1 << expr.left.width) - 1)
            self.demand_expr(expr.right, (1 << expr.right.width) - 1)

    # -- statements --------------------------------------------------------

    def visit_stmts(self, stmts: List[ir.Stmt]) -> bool:
        """Propagate demand; returns True when any nested stmt is live."""
        any_live = False
        for stmt in stmts:
            if isinstance(stmt, ir.SAssign):
                demand = self._target_demand(stmt.target)
                if demand:
                    self.demand_expr(stmt.value, demand)
                    any_live = True
                self._demand_target_indexes(stmt.target)
            elif isinstance(stmt, ir.SIf):
                inner = self.visit_stmts(stmt.then)
                inner |= self.visit_stmts(stmt.other)
                if inner:
                    self.demand_expr(stmt.cond, (1 << stmt.cond.width) - 1)
                    any_live = True
            elif isinstance(stmt, ir.SCase):
                inner = False
                for item in stmt.items:
                    inner |= self.visit_stmts(item.body)
                inner |= self.visit_stmts(stmt.default)
                if inner:
                    self.demand_expr(stmt.subject,
                                     (1 << stmt.subject.width) - 1)
                    any_live = True
        return any_live

    def _target_demand(self, target: ir.LValue) -> int:
        """Bits of the assigned value that land somewhere live."""
        if isinstance(target, ir.LNet):
            mask = self.net_masks[target.net.name]
            if target.hi is None or target.lo is None:
                return mask
            return (mask >> target.lo) & ((1 << (target.hi - target.lo + 1)) - 1)
        if isinstance(target, ir.LNetDyn):
            return 1 if self.net_masks[target.net.name] else 0
        if isinstance(target, ir.LMem):
            if target.memory.name in self.live_memories:
                return target.memory.mask
            return 0
        if isinstance(target, ir.LConcat):
            demand = 0
            offset = 0
            for part in reversed(target.parts):  # last part gets low bits
                demand |= self._target_demand(part) << offset
                offset += part.width
            return demand
        raise TypeError(f"unknown lvalue {target!r}")

    def _demand_target_indexes(self, target: ir.LValue) -> None:
        for lv in ir._leaf_lvalues(target):
            if isinstance(lv, ir.LNetDyn):
                if self.net_masks[lv.net.name]:
                    self.demand_expr(lv.index, (1 << lv.index.width) - 1)
            elif isinstance(lv, ir.LMem):
                if lv.memory.name in self.live_memories:
                    self.demand_expr(lv.index, (1 << lv.index.width) - 1)


def _low_mask(bits: int) -> int:
    return (1 << bits) - 1 if bits > 0 else 0


def live_masks(design: ir.Design,
               include_state_sinks: bool = True,
               extra_live: Iterable[str] = ()) -> LiveSets:
    """Compute per-net live bit masks and the set of live memories.

    ``extra_live`` names additional fully-live sink nets (clock aliases,
    async resets, …).
    """
    demand = _Demand(design)
    for net in design.outputs:
        demand.demand_net(net.name, net.mask)
    if include_state_sinks:
        for net in design.state_nets:
            demand.demand_net(net.name, net.mask)
        for mem in design.state_memories:
            demand.demand_memory(mem.name)
    for name in extra_live:
        if name in design.nets:
            demand.demand_net(name, design.nets[name].mask)

    for _ in range(_MAX_SWEEPS):
        demand.changed = False
        for block in design.comb_blocks:
            demand.visit_stmts(block.stmts)
        for block in design.seq_blocks:
            demand.visit_stmts(block.stmts)
        for block in design.init_blocks:
            demand.visit_stmts(block.stmts)
        if not demand.changed:
            break
    else:
        # Pathological depth: declare everything live (the safe answer).
        for name, net in design.nets.items():
            demand.net_masks[name] = net.mask
        demand.live_memories.update(design.memories)
    return LiveSets(demand.net_masks, demand.live_memories)
