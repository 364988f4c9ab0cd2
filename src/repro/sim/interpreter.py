"""Tree-walking RTL simulator backend.

This backend evaluates the IR directly. It is the *simulator target* of
HardSnap: slower than the compiled backend (which plays the FPGA role)
but with full visibility — every net value is inspectable at any time and
a VCD trace can be attached.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hdl import ir
from repro.sim.base import BaseSimulation
from repro.sim.scheduler import clock_domain, order_comb_blocks


class Interpreter(BaseSimulation):
    """Cycle-based tree-walking simulation of an elaborated design."""

    def __init__(self, design: ir.Design, clock: str = "clk"):
        self._ordered_comb = order_comb_blocks(design)
        domain = clock_domain(design, clock)
        in_domain = [b for b in design.seq_blocks if b.clock.name in domain]
        self._seq_blocks = [b for b in in_domain
                            if b.clock_edge == "posedge"]
        self._seq_blocks_neg = [b for b in in_domain
                                if b.clock_edge == "negedge"]
        self._has_negedge = bool(self._seq_blocks_neg)
        super().__init__(design, clock)

    # -- backend hooks ------------------------------------------------------

    def _run_init_blocks(self) -> None:
        for block in self.design.init_blocks:
            self._exec_stmts(block.stmts, None, None)

    def _settle(self) -> None:
        for block in self._ordered_comb:
            self._exec_stmts(block.stmts, None, None)

    def _clock_edge(self) -> None:
        self._run_edge(self._seq_blocks)

    def _clock_negedge(self) -> None:
        self._run_edge(self._seq_blocks_neg)

    def _run_edge(self, blocks: List[ir.SeqBlock]) -> None:
        # Evaluate every sequential block against pre-edge values, then
        # commit all non-blocking updates at once.
        pending: List[Tuple] = []
        for block in blocks:
            overlay: Dict[str, int] = {}
            self._exec_stmts(block.stmts, overlay, pending)
            # Blocking writes within a seq block stay in its overlay during
            # the edge (so sibling blocks still read pre-edge values) and
            # commit together with the non-blocking updates.
            for name, value in overlay.items():
                pending.append(("net", self.design.nets[name], None, None, value))
        self._commit(pending)

    # -- statement execution ----------------------------------------------------

    def _exec_stmts(self, stmts: List[ir.Stmt],
                    overlay: Optional[Dict[str, int]],
                    pending: Optional[List[Tuple]]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ir.SAssign):
                value = self._eval(stmt.value, overlay)
                if pending is None or stmt.blocking:
                    self._write_now(stmt.target, value, overlay)
                else:
                    self._write_later(stmt.target, value, overlay, pending)
            elif isinstance(stmt, ir.SIf):
                if self._eval(stmt.cond, overlay):
                    self._exec_stmts(stmt.then, overlay, pending)
                else:
                    self._exec_stmts(stmt.other, overlay, pending)
            elif isinstance(stmt, ir.SCase):
                subject = self._eval(stmt.subject, overlay)
                body = stmt.default
                for item in stmt.items:
                    if any((subject & care) == value for value, care in item.labels):
                        body = item.body
                        break
                self._exec_stmts(body, overlay, pending)
            else:
                raise SimulationError(f"unknown statement {stmt!r}")

    # -- writes ------------------------------------------------------------------

    def _read(self, name: str, overlay: Optional[Dict[str, int]]) -> int:
        if overlay is not None and name in overlay:
            return overlay[name]
        return self.values[name]

    def _store(self, name: str, value: int,
               overlay: Optional[Dict[str, int]]) -> None:
        if overlay is not None:
            overlay[name] = value
        else:
            self.values[name] = value

    def _write_now(self, target: ir.LValue, value: int,
                   overlay: Optional[Dict[str, int]]) -> None:
        """Blocking write: visible to subsequent statements immediately.

        Inside sequential blocks the write lands in the overlay *and* is
        committed at the end of the edge (standard blocking-in-seq
        semantics for cycle simulation). In comb context it writes the
        value store directly.
        """
        if isinstance(target, ir.LNet):
            if target.hi is None:
                self._store(target.net.name, value & target.net.mask, overlay)
            else:
                width = target.hi - target.lo + 1
                mask = ((1 << width) - 1) << target.lo
                old = self._read(target.net.name, overlay)
                new = (old & ~mask) | ((value << target.lo) & mask)
                self._store(target.net.name, new & target.net.mask, overlay)
        elif isinstance(target, ir.LNetDyn):
            index = self._eval(target.index, overlay)
            if 0 <= index < target.net.width:
                old = self._read(target.net.name, overlay)
                new = (old & ~(1 << index)) | ((value & 1) << index)
                self._store(target.net.name, new, overlay)
        elif isinstance(target, ir.LMem):
            index = self._eval(target.index, overlay)
            words = self.memories[target.memory.name]
            if 0 <= index < target.memory.depth:
                words[index] = value & target.memory.mask
        elif isinstance(target, ir.LConcat):
            self._scatter_concat(target, value, overlay, pending=None)
        else:
            raise SimulationError(f"unknown lvalue {target!r}")

    def _write_later(self, target: ir.LValue, value: int,
                     overlay: Optional[Dict[str, int]],
                     pending: List[Tuple]) -> None:
        """Non-blocking write: record for commit after all seq blocks ran.

        Dynamic indexes are evaluated *now* (Verilog evaluates the LHS
        index at assignment time, only the commit is deferred).
        """
        if isinstance(target, ir.LNet):
            pending.append(("net", target.net, target.hi, target.lo, value))
        elif isinstance(target, ir.LNetDyn):
            index = self._eval(target.index, overlay)
            if 0 <= index < target.net.width:
                pending.append(("net", target.net, index, index, value))
        elif isinstance(target, ir.LMem):
            index = self._eval(target.index, overlay)
            pending.append(("mem", target.memory, index, value))
        elif isinstance(target, ir.LConcat):
            self._scatter_concat(target, value, overlay, pending)
        else:
            raise SimulationError(f"unknown lvalue {target!r}")

    def _scatter_concat(self, target: ir.LConcat, value: int,
                        overlay: Optional[Dict[str, int]],
                        pending: Optional[List[Tuple]]) -> None:
        offset = 0
        for part in reversed(target.parts):  # last part gets the low bits
            piece = (value >> offset) & ((1 << part.width) - 1)
            if pending is None:
                self._write_now(part, piece, overlay)
            else:
                self._write_later(part, piece, overlay, pending)
            offset += part.width

    def _commit(self, pending: List[Tuple]) -> None:
        for entry in pending:
            if entry[0] == "net":
                _, net, hi, lo, value = entry
                if hi is None:
                    self.values[net.name] = value & net.mask
                else:
                    width = hi - lo + 1
                    mask = ((1 << width) - 1) << lo
                    old = self.values[net.name]
                    self.values[net.name] = \
                        ((old & ~mask) | ((value << lo) & mask)) & net.mask
            else:
                _, mem, index, value = entry
                if 0 <= index < mem.depth:
                    self.memories[mem.name][index] = value & mem.mask

    # -- expression evaluation -------------------------------------------------------

    def _eval(self, expr: ir.Expr, overlay: Optional[Dict[str, int]]) -> int:
        kind = type(expr)
        if kind is ir.Const:
            return expr.value
        if kind is ir.Ref:
            return self._read(expr.net.name, overlay)
        if kind is ir.Binary:
            return self._eval_binary(expr, overlay)
        if kind is ir.Slice:
            value = self._eval(expr.value, overlay)
            return (value >> expr.lo) & ((1 << expr.width) - 1)
        if kind is ir.Ternary:
            if self._eval(expr.cond, overlay):
                return self._eval(expr.then, overlay)
            return self._eval(expr.other, overlay)
        if kind is ir.Unary:
            return self._eval_unary(expr, overlay)
        if kind is ir.Concat:
            acc = 0
            for part in expr.parts:
                acc = (acc << part.width) | self._eval(part, overlay)
            return acc
        if kind is ir.MemRead:
            index = self._eval(expr.index, overlay)
            if 0 <= index < expr.memory.depth:
                return self.memories[expr.memory.name][index]
            return 0
        if kind is ir.DynBit:
            value = self._eval(expr.value, overlay)
            index = self._eval(expr.index, overlay)
            if 0 <= index < expr.value.width:
                return (value >> index) & 1
            return 0
        raise SimulationError(f"unknown expression {expr!r}")

    def _eval_binary(self, expr: ir.Binary,
                     overlay: Optional[Dict[str, int]]) -> int:
        op = expr.op
        a = self._eval(expr.left, overlay)
        mask = (1 << expr.width) - 1
        # Short-circuit logical operators.
        if op == "&&":
            return int(bool(a) and bool(self._eval(expr.right, overlay)))
        if op == "||":
            return int(bool(a) or bool(self._eval(expr.right, overlay)))
        b = self._eval(expr.right, overlay)
        if op == "+":
            return (a + b) & mask
        if op == "-":
            return (a - b) & mask
        if op == "*":
            return (a * b) & mask
        if op == "/":
            return (a // b) & mask if b else mask
        if op == "%":
            return (a % b) & mask if b else a & mask
        if op == "&":
            return a & b
        if op == "|":
            return a | b
        if op == "^":
            return a ^ b
        if op == "<<":
            return (a << b) & mask if b < 64 else 0
        if op in (">>", ">>>"):
            return a >> b if b < 64 else 0
        if op == "==":
            return int(a == b)
        if op == "!=":
            return int(a != b)
        if op == "<":
            return int(a < b)
        if op == "<=":
            return int(a <= b)
        if op == ">":
            return int(a > b)
        if op == ">=":
            return int(a >= b)
        raise SimulationError(f"unknown binary op {op!r}")

    def _eval_unary(self, expr: ir.Unary,
                    overlay: Optional[Dict[str, int]]) -> int:
        value = self._eval(expr.operand, overlay)
        op = expr.op
        operand_mask = (1 << expr.operand.width) - 1
        if op == "~":
            return ~value & ((1 << expr.width) - 1)
        if op == "-":
            return -value & ((1 << expr.width) - 1)
        if op == "!":
            return int(value == 0)
        if op == "&":
            return int(value == operand_mask)
        if op == "|":
            return int(value != 0)
        if op == "^":
            return bin(value).count("1") & 1
        if op == "~&":
            return int(value != operand_mask)
        if op == "~|":
            return int(value == 0)
        if op == "~^":
            return (bin(value).count("1") + 1) & 1
        raise SimulationError(f"unknown unary op {op!r}")
