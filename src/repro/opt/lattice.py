"""Three-valued per-bit constant lattice.

Every bit of a signal is ``0``, ``1`` or ``unknown``.  A :class:`BitsVal`
packs a vector of such bits into two integers: ``known`` marks the bit
positions whose value is statically determined and ``value`` carries the
determined bits (bits outside ``known`` are kept at zero).  ``join``
moves *up* the lattice: a bit stays known only when both sides know it
and agree.

:func:`eval_expr` abstractly evaluates an :class:`repro.hdl.ir.Expr`
over this lattice.  Its transfer functions mirror the concrete
interpreter semantics exactly — including the quirky corners (division
by zero yields the all-ones mask, shifts by 64+ yield zero, out-of-range
dynamic bit selects read zero) — so that anything the analysis proves
constant really is constant on both simulation backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.hdl import ir


def _low_mask(bits: int) -> int:
    return (1 << bits) - 1 if bits > 0 else 0


def _trailing_ones(value: int) -> int:
    """Number of consecutive set bits starting at bit 0."""
    count = 0
    while value & 1:
        value >>= 1
        count += 1
    return count


@dataclass(frozen=True)
class BitsVal:
    """A width-bounded vector of three-valued bits."""

    width: int
    known: int  # bit set => that bit's value is statically determined
    value: int  # determined bits; zero wherever not known

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    @property
    def is_const(self) -> bool:
        return self.known == self.mask

    @property
    def known_zero(self) -> bool:
        return self.is_const and self.value == 0

    @property
    def known_nonzero(self) -> bool:
        """True when at least one bit is known to be 1."""
        return self.value != 0

    def zext(self, width: int) -> "BitsVal":
        """Zero-extend (or truncate) to *width*; new high bits are known 0."""
        if width == self.width:
            return self
        mask = (1 << width) - 1
        if width < self.width:
            return BitsVal(width, self.known & mask, self.value & mask)
        return BitsVal(width, self.known | (mask & ~self.mask), self.value)


def top(width: int) -> BitsVal:
    return BitsVal(width, 0, 0)


def of_const(value: int, width: int) -> BitsVal:
    mask = (1 << width) - 1
    return BitsVal(width, mask, value & mask)


def join(a: BitsVal, b: BitsVal) -> BitsVal:
    """Least upper bound: bits known in both sides and agreeing survive."""
    if a.width != b.width:
        width = max(a.width, b.width)
        a, b = a.zext(width), b.zext(width)
    known = a.known & b.known & ~(a.value ^ b.value)
    return BitsVal(a.width, known, a.value & known)


# ---------------------------------------------------------------------------
# Abstract expression evaluation
# ---------------------------------------------------------------------------

Lookup = Callable[[str], BitsVal]


def eval_expr(expr: ir.Expr, lookup: Lookup) -> BitsVal:
    """Evaluate *expr* over the lattice; ``lookup`` maps net names to
    their current abstract values (memories are always unknown)."""
    if type(expr) is ir.Const:
        return of_const(expr.value, expr.width)
    if type(expr) is ir.Ref:
        return lookup(expr.net.name).zext(expr.width)
    if type(expr) is ir.Binary:
        return _eval_binary(expr, lookup)
    if type(expr) is ir.Slice:
        inner = eval_expr(expr.value, lookup).zext(expr.hi + 1)
        mask = (1 << expr.width) - 1
        known = (inner.known >> expr.lo) & mask
        return BitsVal(expr.width, known, (inner.value >> expr.lo) & known)
    if type(expr) is ir.Ternary:
        cond = eval_expr(expr.cond, lookup)
        if cond.known_nonzero:
            return eval_expr(expr.then, lookup).zext(expr.width)
        if cond.known_zero:
            return eval_expr(expr.other, lookup).zext(expr.width)
        return join(eval_expr(expr.then, lookup).zext(expr.width),
                    eval_expr(expr.other, lookup).zext(expr.width))
    if type(expr) is ir.Unary:
        return _eval_unary(expr, lookup)
    if type(expr) is ir.Concat:
        known = value = 0
        for part in expr.parts:
            pv = eval_expr(part, lookup)
            known = (known << part.width) | pv.known
            value = (value << part.width) | pv.value
        return BitsVal(expr.width, known, value).zext(expr.width)
    if type(expr) is ir.MemRead:
        return top(expr.width)
    if type(expr) is ir.DynBit:
        value = eval_expr(expr.value, lookup)
        index = eval_expr(expr.index, lookup)
        if index.is_const:
            i = index.value
            if not 0 <= i < expr.value.width:
                return of_const(0, expr.width)
            known = (value.known >> i) & 1
            return BitsVal(1, known, (value.value >> i) & known).zext(expr.width)
        if value.known_zero:
            # Every in-range bit is 0 and out-of-range selects read 0.
            return of_const(0, expr.width)
        return top(expr.width)
    raise TypeError(f"unknown expression {expr!r}")


def _eval_binary(expr: ir.Binary, lookup: Lookup) -> BitsVal:
    op = expr.op
    width = expr.width
    mask = (1 << width) - 1
    a = eval_expr(expr.left, lookup)
    b = eval_expr(expr.right, lookup)

    if op == "&&":
        if a.known_zero or b.known_zero:
            return of_const(0, width)
        if a.known_nonzero and b.known_nonzero:
            return of_const(1, width)
        return top(width)
    if op == "||":
        if a.known_nonzero or b.known_nonzero:
            return of_const(1, width)
        if a.known_zero and b.known_zero:
            return of_const(0, width)
        return top(width)

    if op in ("==", "!="):
        wide = max(a.width, b.width)
        za, zb = a.zext(wide), b.zext(wide)
        if za.is_const and zb.is_const:
            eq = za.value == zb.value
            return of_const(int(eq if op == "==" else not eq), width)
        if za.known & zb.known & (za.value ^ zb.value):
            # Some bit is known on both sides and differs: provably unequal.
            return of_const(int(op == "!="), width)
        return top(width)
    if op in ("<", "<=", ">", ">="):
        if a.is_const and b.is_const:
            result = {"<": a.value < b.value, "<=": a.value <= b.value,
                      ">": a.value > b.value, ">=": a.value >= b.value}[op]
            return of_const(int(result), width)
        return top(width)

    if op in ("<<", ">>", ">>>"):
        za = a.zext(width)
        if b.is_const:
            sh = b.value
            if sh >= 64:
                return of_const(0, width)
            if op == "<<":
                known = ((za.known << sh) | _low_mask(min(sh, width))) & mask
                return BitsVal(width, known, (za.value << sh) & known)
            known = ((za.known >> sh) | (mask & ~(mask >> sh))) & mask
            return BitsVal(width, known, (za.value >> sh) & known)
        if za.known_zero:
            return of_const(0, width)
        return top(width)

    za, zb = a.zext(width), b.zext(width)
    if op == "&":
        ones = (za.known & za.value) & (zb.known & zb.value)
        zeros = (za.known & ~za.value) | (zb.known & ~zb.value)
        return BitsVal(width, (ones | zeros) & mask, ones)
    if op == "|":
        ones = (za.known & za.value) | (zb.known & zb.value)
        zeros = (za.known & ~za.value) & (zb.known & ~zb.value)
        return BitsVal(width, (ones | zeros) & mask, ones)
    if op == "^":
        known = za.known & zb.known
        return BitsVal(width, known, (za.value ^ zb.value) & known)

    if op in ("+", "-", "*"):
        if op == "*" and (za.known_zero or zb.known_zero):
            return of_const(0, width)
        run = _trailing_ones(za.known & zb.known & mask)
        run = min(run, width)
        if run == 0:
            return top(width)
        low = _low_mask(run)
        if op == "+":
            raw = za.value + zb.value
        elif op == "-":
            raw = za.value - zb.value
        else:
            raw = za.value * zb.value
        # Carries/borrows propagate upward only: the low ``run`` bits of
        # the result depend only on the low ``run`` bits of the operands.
        return BitsVal(width, low, raw & low)

    if op in ("/", "%"):
        if za.is_const and zb.is_const:
            va, vb = za.value, zb.value
            if op == "/":
                return of_const((va // vb) & mask if vb else mask, width)
            return of_const((va % vb) & mask if vb else va & mask, width)
        return top(width)

    raise TypeError(f"unknown binary op {op!r}")


def _eval_unary(expr: ir.Unary, lookup: Lookup) -> BitsVal:
    op = expr.op
    width = expr.width
    operand = eval_expr(expr.operand, lookup)
    operand_mask = operand.mask
    if op == "~":
        za = operand.zext(width)
        return BitsVal(width, za.known, ~za.value & za.known & za.mask)
    if op == "-":
        za = operand.zext(width)
        run = min(_trailing_ones(za.known & za.mask), width)
        if run == 0:
            return top(width)
        low = _low_mask(run)
        return BitsVal(width, low, -za.value & low)
    if op == "!":
        if operand.known_nonzero:
            return of_const(0, width)
        if operand.known_zero:
            return of_const(1, width)
        return top(width)
    if op in ("&", "~&"):
        all_ones = operand.is_const and operand.value == operand_mask
        some_zero = bool(operand.known & ~operand.value & operand_mask)
        if all_ones:
            return of_const(int(op == "&"), width)
        if some_zero:
            return of_const(int(op == "~&"), width)
        return top(width)
    if op in ("|", "~|"):
        if operand.known_nonzero:
            return of_const(int(op == "|"), width)
        if operand.known_zero:
            return of_const(int(op == "~|"), width)
        return top(width)
    if op in ("^", "~^"):
        if operand.is_const:
            parity = bin(operand.value).count("1") & 1
            return of_const(parity if op == "^" else parity ^ 1, width)
        return top(width)
    raise TypeError(f"unknown unary op {op!r}")
