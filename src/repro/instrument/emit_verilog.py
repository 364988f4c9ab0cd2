"""IR -> Verilog printer.

The scan-chain pass transforms the elaborated IR; this module prints any
:class:`~repro.hdl.ir.Design` back to synthesisable Verilog text, so the
instrumented design can be inspected, diffed against the original, fed to
an external toolchain — and, in tests, re-parsed and re-simulated to prove
the transformation is semantics-preserving (modulo the added scan ports).

Flattened hierarchical names contain dots; they are emitted with ``__``.
Every combinational block is printed as ``always @(*)`` with ``reg``
targets, which is behaviourally identical to the original mix of
continuous assigns and always blocks.
"""

from __future__ import annotations

from typing import List, Set

from repro.errors import InstrumentationError
from repro.hdl import ir


def emit_verilog(design: ir.Design) -> str:
    return _Emitter(design).emit()


def _safe(name: str) -> str:
    return name.replace(".", "__")


_PAREN_OPS = {"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", ">>>",
              "<", "<=", ">", ">=", "==", "!=", "&&", "||"}


class _Emitter:
    def __init__(self, design: ir.Design):
        self.design = design
        self.lines: List[str] = []
        self.indent = 0

    def out(self, line: str = "") -> None:
        self.lines.append("    " * self.indent + line)

    def emit(self) -> str:
        design = self.design
        ports = [n.name for n in design.inputs] + [n.name for n in design.outputs]
        self.out(f"module {_safe(design.name)} (")
        self.indent += 1
        for i, name in enumerate(ports):
            comma = "," if i < len(ports) - 1 else ""
            self.out(f"{_safe(name)}{comma}")
        self.indent -= 1
        self.out(");")
        self.indent += 1

        reg_names = self._reg_names()
        input_names = {n.name for n in design.inputs}
        output_names = {n.name for n in design.outputs}
        for name, net in sorted(design.nets.items()):
            rng = f"[{net.width - 1}:0] " if net.width > 1 else ""
            if name in input_names:
                self.out(f"input wire {rng}{_safe(name)};")
            elif name in output_names:
                kind = "reg" if name in reg_names else "wire"
                self.out(f"output {kind} {rng}{_safe(name)};")
            else:
                kind = "reg" if name in reg_names else "wire"
                self.out(f"{kind} {rng}{_safe(name)};")
        for name, mem in sorted(design.memories.items()):
            rng = f"[{mem.width - 1}:0] " if mem.width > 1 else ""
            self.out(f"reg {rng}{_safe(name)} [0:{mem.depth - 1}];")
        self.out()

        # Initial values.
        init_lines: List[str] = []
        for name, net in sorted(design.nets.items()):
            if net.initial and name not in input_names:
                init_lines.append(
                    f"{_safe(name)} = {net.width}'h{net.initial:x};")
        for name, mem in sorted(design.memories.items()):
            if mem.initial:
                for j, word in enumerate(mem.initial):
                    if word:
                        init_lines.append(
                            f"{_safe(name)}[{j}] = {mem.width}'h{word:x};")
        for block in design.init_blocks:
            init_lines.extend(self._stmts_text(block.stmts, blocking=True))
        if init_lines:
            self.out("initial begin")
            self.indent += 1
            for line in init_lines:
                self.out(line)
            self.indent -= 1
            self.out("end")
            self.out()

        for block in design.comb_blocks:
            self.out("always @(*) begin")
            self.indent += 1
            for line in self._stmts_text(block.stmts, blocking=True):
                self.out(line)
            self.indent -= 1
            self.out("end")
            self.out()

        for block in design.seq_blocks:
            sens = f"{block.clock_edge} {_safe(block.clock.name)}"
            if block.areset is not None:
                sens += f" or {block.areset_edge} {_safe(block.areset.name)}"
            self.out(f"always @({sens}) begin")
            self.indent += 1
            for line in self._stmts_text(block.stmts, blocking=None):
                self.out(line)
            self.indent -= 1
            self.out("end")
            self.out()

        self.indent -= 1
        self.out("endmodule")
        return "\n".join(self.lines) + "\n"

    def _reg_names(self) -> Set[str]:
        """Nets that must be declared ``reg``: written by any process."""
        names: Set[str] = set()
        blocks: List[List[ir.Stmt]] = [b.stmts for b in self.design.comb_blocks]
        blocks += [b.stmts for b in self.design.seq_blocks]
        blocks += [b.stmts for b in self.design.init_blocks]
        for stmts in blocks:
            for stmt in ir._walk_stmts(stmts):
                if isinstance(stmt, ir.SAssign):
                    for leaf in ir._leaf_lvalues(stmt.target):
                        if isinstance(leaf, (ir.LNet, ir.LNetDyn)):
                            names.add(leaf.net.name)
        return names

    # -- statements -----------------------------------------------------------

    def _stmts_text(self, stmts: List[ir.Stmt], blocking) -> List[str]:
        """Render statements; *blocking* True forces '=', None keeps each
        statement's own kind."""
        out: List[str] = []
        for stmt in stmts:
            out.extend(self._stmt_text(stmt, blocking))
        return out

    def _stmt_text(self, stmt: ir.Stmt, blocking) -> List[str]:
        if isinstance(stmt, ir.SAssign):
            use_blocking = blocking if blocking is not None else stmt.blocking
            op = "=" if use_blocking else "<="
            return [f"{self._lvalue(stmt.target)} {op} {self._expr(stmt.value)};"]
        if isinstance(stmt, ir.SIf):
            lines = [f"if ({self._expr(stmt.cond)}) begin"]
            lines += ["    " + l for l in self._stmts_text(stmt.then, blocking)]
            if stmt.other:
                lines.append("end else begin")
                lines += ["    " + l for l in self._stmts_text(stmt.other, blocking)]
            lines.append("end")
            return lines
        if isinstance(stmt, ir.SCase):
            width = stmt.subject.width
            lines = [f"casez ({self._expr(stmt.subject)})"]
            for item in stmt.items:
                labels = []
                for value, care in item.labels:
                    labels.append(_masked_label(value, care, width))
                lines.append(f"    {', '.join(labels)}: begin")
                lines += ["        " + l
                          for l in self._stmts_text(item.body, blocking)]
                lines.append("    end")
            lines.append("    default: begin")
            lines += ["        " + l
                      for l in self._stmts_text(stmt.default, blocking)]
            lines.append("    end")
            lines.append("endcase")
            return lines
        raise InstrumentationError(f"cannot print statement {stmt!r}")

    def _lvalue(self, lv: ir.LValue) -> str:
        if isinstance(lv, ir.LNet):
            if lv.hi is None:
                return _safe(lv.net.name)
            if lv.hi == lv.lo:
                return f"{_safe(lv.net.name)}[{lv.hi}]"
            return f"{_safe(lv.net.name)}[{lv.hi}:{lv.lo}]"
        if isinstance(lv, ir.LNetDyn):
            return f"{_safe(lv.net.name)}[{self._expr(lv.index)}]"
        if isinstance(lv, ir.LMem):
            return f"{_safe(lv.memory.name)}[{self._expr(lv.index)}]"
        if isinstance(lv, ir.LConcat):
            return "{" + ", ".join(self._lvalue(p) for p in lv.parts) + "}"
        raise InstrumentationError(f"cannot print lvalue {lv!r}")

    # -- expressions ---------------------------------------------------------------

    def _expr(self, expr: ir.Expr) -> str:
        if isinstance(expr, ir.Const):
            return f"{expr.width}'h{expr.value:x}"
        if isinstance(expr, ir.Ref):
            return _safe(expr.net.name)
        if isinstance(expr, ir.Binary):
            return (f"({self._expr(expr.left)} {expr.op} "
                    f"{self._expr(expr.right)})")
        if isinstance(expr, ir.Unary):
            return f"({expr.op}{self._expr(expr.operand)})"
        if isinstance(expr, ir.Ternary):
            return (f"({self._expr(expr.cond)} ? {self._expr(expr.then)} : "
                    f"{self._expr(expr.other)})")
        if isinstance(expr, ir.Concat):
            return "{" + ", ".join(self._expr(p) for p in expr.parts) + "}"
        if isinstance(expr, ir.Slice):
            base = self._expr(expr.value)
            if not isinstance(expr.value, ir.Ref):
                raise InstrumentationError(
                    "part select of a non-net expression cannot be printed; "
                    "the elaborator only produces Slice over Ref")
            if expr.hi == expr.lo:
                return f"{base}[{expr.hi}]"
            return f"{base}[{expr.hi}:{expr.lo}]"
        if isinstance(expr, ir.MemRead):
            return f"{_safe(expr.memory.name)}[{self._expr(expr.index)}]"
        if isinstance(expr, ir.DynBit):
            if not isinstance(expr.value, ir.Ref):
                raise InstrumentationError(
                    "dynamic bit select of a non-net expression")
            return f"{self._expr(expr.value)}[{self._expr(expr.index)}]"
        raise InstrumentationError(f"cannot print expression {expr!r}")


def _masked_label(value: int, care: int, width: int) -> str:
    """casez label with '?' for don't-care bits."""
    if care == (1 << width) - 1:
        return f"{width}'h{value:x}"
    digits = []
    for i in range(width - 1, -1, -1):
        if (care >> i) & 1:
            digits.append(str((value >> i) & 1))
        else:
            digits.append("?")
    return f"{width}'b{''.join(digits)}"
