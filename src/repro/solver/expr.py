"""Bitvector expression DAG used throughout the symbolic virtual machine.

Expressions are immutable and hash-consed: structurally identical
expressions are the same Python object, which makes equality checks O(1)
and lets the solver cache per-node results. Constructors perform constant
folding and a handful of cheap local simplifications; the heavier rewrite
rules live in :mod:`repro.solver.simplify`.

The expression language is the quantifier-free bitvector fragment that an
ISA-level symbolic executor needs: arithmetic, bitwise logic, shifts,
concatenation/extraction, zero/sign extension, unsigned/signed comparisons
and if-then-else. Boolean values are 1-bit vectors, as in KLEE.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple

from repro.errors import SolverError

# Operation mnemonics. Kept as interned strings: cheap to compare, easy to
# read in reprs and debug dumps.
CONST = "const"
VAR = "var"
ADD = "add"
SUB = "sub"
MUL = "mul"
UDIV = "udiv"
UREM = "urem"
AND = "and"
OR = "or"
XOR = "xor"
NOT = "not"
NEG = "neg"
SHL = "shl"
LSHR = "lshr"
ASHR = "ashr"
CONCAT = "concat"
EXTRACT = "extract"
ZEXT = "zext"
SEXT = "sext"
EQ = "eq"
ULT = "ult"
ULE = "ule"
SLT = "slt"
SLE = "sle"
ITE = "ite"


def _mask(width: int) -> int:
    return (1 << width) - 1


def _to_signed(value: int, width: int) -> int:
    """Interpret *value* (an unsigned ``width``-bit integer) as two's complement."""
    sign_bit = 1 << (width - 1)
    return (value & _mask(width)) - ((value & sign_bit) << 1)


class BitVec:
    """A node in the hash-consed bitvector expression DAG.

    Do not call the constructor directly; use the module-level builder
    functions (:func:`const`, :func:`var`, :func:`add`, ...) or the
    operator overloads, which intern nodes and fold constants.
    """

    __slots__ = ("op", "width", "args", "value", "name", "_hash", "_vars")

    _interned: Dict[tuple, "BitVec"] = {}

    def __init__(self, op: str, width: int, args: Tuple["BitVec", ...] = (),
                 value: Optional[int] = None, name: Optional[str] = None):
        self.op = op
        self.width = width
        self.args = args
        self.value = value
        self.name = name
        self._hash = hash((op, width, args, value, name))
        self._vars: Optional[frozenset] = None

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Hash-consing makes identity the same as structural equality.
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __reduce__(self):
        # Rebuild through the interning table: identity-as-equality must
        # survive a process boundary (the parallel runtime pickles
        # states whose constraints share subexpressions), and interning
        # also restores ``_hash`` before the node can be used as a key.
        return (_intern, (self.op, self.width, self.args, self.value,
                          self.name))

    # -- introspection ----------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.op == CONST

    def variables(self) -> frozenset:
        """Return the set of variable nodes reachable from this node."""
        if self._vars is None:
            if self.op == VAR:
                self._vars = frozenset((self,))
            elif self.op == CONST:
                self._vars = frozenset()
            else:
                acc: frozenset = frozenset()
                for arg in self.args:
                    acc |= arg.variables()
                self._vars = acc
        return self._vars

    def size(self) -> int:
        """Number of distinct DAG nodes reachable from this node."""
        return sum(1 for _ in self.walk())

    def walk(self) -> Iterator["BitVec"]:
        """Iterate over all distinct nodes (post-order not guaranteed)."""
        seen = set()
        stack = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            stack.extend(node.args)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, assignment: Mapping["BitVec", int],
                 default: Optional[int] = None,
                 memo: Optional[Dict[int, int]] = None) -> int:
        """Concretely evaluate under *assignment* (variable node -> int).

        Variables missing from *assignment* read as *default*; with no
        default they raise :class:`SolverError`. *memo* (node id -> value) carries
        results across calls that share one assignment, so evaluating
        several expressions over a shared DAG visits each node once.
        """
        cache: Dict[int, int] = {} if memo is None else memo
        # Iterative post-order evaluation: expression DAGs from long
        # symbolic executions can be deep enough to blow the stack.
        stack = [(self, False)]
        while stack:
            node, ready = stack.pop()
            key = id(node)
            if key in cache:
                continue
            op = node.op
            if op == CONST:
                cache[key] = node.value  # type: ignore[assignment]
            elif op == VAR:
                value = assignment.get(node, default)
                if value is None:
                    raise SolverError(f"unassigned variable {node.name!r} in evaluate()")
                cache[key] = value & _mask(node.width)
            elif ready:
                cache[key] = _eval_op(node, [cache[id(a)] for a in node.args])
            else:
                stack.append((node, True))
                for arg in node.args:
                    if id(arg) not in cache:
                        stack.append((arg, False))
        return cache[id(self)]

    # -- display -----------------------------------------------------------

    def __repr__(self) -> str:
        if self.op == CONST:
            return f"0x{self.value:x}:{self.width}"
        if self.op == VAR:
            return f"{self.name}:{self.width}"
        if self.op == EXTRACT:
            hi = self.value >> 16  # type: ignore[operator]
            lo = self.value & 0xFFFF  # type: ignore[operator]
            return f"extract[{hi}:{lo}]({self.args[0]!r})"
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.op}({inner})"

    # -- operator overloads (unsigned semantics by default) ----------------

    def __add__(self, other): return add(self, _coerce(other, self.width))
    def __sub__(self, other): return sub(self, _coerce(other, self.width))
    def __mul__(self, other): return mul(self, _coerce(other, self.width))
    def __and__(self, other): return and_(self, _coerce(other, self.width))
    def __or__(self, other): return or_(self, _coerce(other, self.width))
    def __xor__(self, other): return xor(self, _coerce(other, self.width))
    def __lshift__(self, other): return shl(self, _coerce(other, self.width))
    def __rshift__(self, other): return lshr(self, _coerce(other, self.width))
    def __invert__(self): return not_(self)
    def __neg__(self): return neg(self)


def _coerce(value, width: int) -> BitVec:
    if isinstance(value, BitVec):
        return value
    if isinstance(value, int):
        return const(value, width)
    raise SolverError(f"cannot coerce {value!r} to a bitvector")


def _eval_op(node: BitVec, vals) -> int:
    op, width = node.op, node.width
    if op == ADD:
        return (vals[0] + vals[1]) & _mask(width)
    if op == SUB:
        return (vals[0] - vals[1]) & _mask(width)
    if op == MUL:
        return (vals[0] * vals[1]) & _mask(width)
    if op == UDIV:
        return _mask(width) if vals[1] == 0 else (vals[0] // vals[1]) & _mask(width)
    if op == UREM:
        return vals[0] if vals[1] == 0 else (vals[0] % vals[1]) & _mask(width)
    if op == AND:
        return vals[0] & vals[1]
    if op == OR:
        return vals[0] | vals[1]
    if op == XOR:
        return vals[0] ^ vals[1]
    if op == NOT:
        return ~vals[0] & _mask(width)
    if op == NEG:
        return (-vals[0]) & _mask(width)
    if op == SHL:
        aw = node.args[0].width
        return 0 if vals[1] >= aw else (vals[0] << vals[1]) & _mask(width)
    if op == LSHR:
        aw = node.args[0].width
        return 0 if vals[1] >= aw else vals[0] >> vals[1]
    if op == ASHR:
        aw = node.args[0].width
        shift = min(vals[1], aw - 1) if vals[1] >= aw else vals[1]
        return (_to_signed(vals[0], aw) >> shift) & _mask(width)
    if op == CONCAT:
        acc = 0
        for arg, val in zip(node.args, vals):
            acc = (acc << arg.width) | val
        return acc
    if op == EXTRACT:
        lo = node.value & 0xFFFF  # type: ignore[operator]
        return (vals[0] >> lo) & _mask(width)
    if op == ZEXT:
        return vals[0]
    if op == SEXT:
        return _to_signed(vals[0], node.args[0].width) & _mask(width)
    if op == EQ:
        return int(vals[0] == vals[1])
    if op == ULT:
        return int(vals[0] < vals[1])
    if op == ULE:
        return int(vals[0] <= vals[1])
    if op == SLT:
        aw = node.args[0].width
        return int(_to_signed(vals[0], aw) < _to_signed(vals[1], aw))
    if op == SLE:
        aw = node.args[0].width
        return int(_to_signed(vals[0], aw) <= _to_signed(vals[1], aw))
    if op == ITE:
        return vals[1] if vals[0] else vals[2]
    raise SolverError(f"unknown op {op!r}")


def _intern(op: str, width: int, args: Tuple[BitVec, ...] = (),
            value: Optional[int] = None, name: Optional[str] = None) -> BitVec:
    key = (op, width, args, value, name)
    node = BitVec._interned.get(key)
    if node is None:
        node = BitVec(op, width, args, value, name)
        BitVec._interned[key] = node
    return node


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def const(value: int, width: int) -> BitVec:
    """A constant bitvector; *value* is truncated to *width* bits."""
    if width <= 0:
        raise SolverError(f"invalid width {width}")
    return _intern(CONST, width, value=value & _mask(width))


def var(name: str, width: int) -> BitVec:
    """A free variable. Variables are identified by (name, width)."""
    if width <= 0:
        raise SolverError(f"invalid width {width}")
    return _intern(VAR, width, name=name)


def true() -> BitVec:
    return const(1, 1)


def false() -> BitVec:
    return const(0, 1)


def _check_same_width(a: BitVec, b: BitVec, op: str) -> None:
    if a.width != b.width:
        raise SolverError(f"{op}: width mismatch {a.width} vs {b.width}")


def _binop(op: str, a: BitVec, b: BitVec) -> BitVec:
    _check_same_width(a, b, op)
    if a.is_const and b.is_const:
        node = BitVec(op, a.width, (a, b))
        return const(_eval_op(node, [a.value, b.value]), a.width)
    return _intern(op, a.width, (a, b))


def add(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 0:
        return a
    if a.is_const and a.value == 0:
        return b
    return _binop(ADD, a, b)


def sub(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 0:
        return a
    if a is b:
        return const(0, a.width)
    return _binop(SUB, a, b)


def mul(a: BitVec, b: BitVec) -> BitVec:
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, a.width)
            if x.value == 1:
                return y
    return _binop(MUL, a, b)


def udiv(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 1:
        return a
    return _binop(UDIV, a, b)


def urem(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 1:
        return const(0, a.width)
    return _binop(UREM, a, b)


def and_(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return const(0, a.width)
            if x.value == _mask(a.width):
                return y
    return _binop(AND, a, b)


def or_(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return a
    for x, y in ((a, b), (b, a)):
        if x.is_const:
            if x.value == 0:
                return y
            if x.value == _mask(a.width):
                return const(_mask(a.width), a.width)
    return _binop(OR, a, b)


def xor(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return const(0, a.width)
    for x, y in ((a, b), (b, a)):
        if x.is_const and x.value == 0:
            return y
    return _binop(XOR, a, b)


def not_(a: BitVec) -> BitVec:
    if a.is_const:
        return const(~a.value & _mask(a.width), a.width)
    if a.op == NOT:
        return a.args[0]
    return _intern(NOT, a.width, (a,))


def neg(a: BitVec) -> BitVec:
    if a.is_const:
        return const(-a.value & _mask(a.width), a.width)
    return _intern(NEG, a.width, (a,))


def shl(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 0:
        return a
    return _binop(SHL, a, b)


def lshr(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 0:
        return a
    return _binop(LSHR, a, b)


def ashr(a: BitVec, b: BitVec) -> BitVec:
    if b.is_const and b.value == 0:
        return a
    return _binop(ASHR, a, b)


def concat(*parts: BitVec) -> BitVec:
    """Concatenate bitvectors, first argument becomes the most significant."""
    if not parts:
        raise SolverError("concat() needs at least one argument")
    if len(parts) == 1:
        return parts[0]
    # Flatten nested concats so extraction over concat simplifies well.
    flat: list = []
    for p in parts:
        if p.op == CONCAT:
            flat.extend(p.args)
        else:
            flat.append(p)
    # Merge adjacent constants.
    merged: list = []
    for p in flat:
        if merged and merged[-1].is_const and p.is_const:
            prev = merged.pop()
            merged.append(const((prev.value << p.width) | p.value, prev.width + p.width))
        else:
            merged.append(p)
    if len(merged) == 1:
        return merged[0]
    width = sum(p.width for p in merged)
    return _intern(CONCAT, width, tuple(merged))


def extract(a: BitVec, hi: int, lo: int) -> BitVec:
    """Bits ``hi`` down to ``lo`` inclusive (LSB is bit 0)."""
    if not (0 <= lo <= hi < a.width):
        raise SolverError(f"extract[{hi}:{lo}] out of range for width {a.width}")
    width = hi - lo + 1
    if width == a.width:
        return a
    if a.is_const:
        return const(a.value >> lo, width)
    if a.op == ZEXT:
        inner = a.args[0]
        if hi < inner.width:
            return extract(inner, hi, lo)
        if lo >= inner.width:
            return const(0, width)
    if a.op == CONCAT:
        # Resolve the extraction against the concat parts when it falls
        # entirely within one part or spans parts with aligned cuts.
        offset = 0
        pieces = []
        for part in reversed(a.args):  # reversed: LSB part first
            part_lo, part_hi = offset, offset + part.width - 1
            if part_hi < lo or part_lo > hi:
                offset += part.width
                continue
            take_lo = max(lo, part_lo) - part_lo
            take_hi = min(hi, part_hi) - part_lo
            pieces.append(extract(part, take_hi, take_lo))
            offset += part.width
        return concat(*reversed(pieces))
    if a.op == EXTRACT:
        inner_lo = a.value & 0xFFFF  # type: ignore[operator]
        return extract(a.args[0], inner_lo + hi, inner_lo + lo)
    return _intern(EXTRACT, width, (a,), value=(hi << 16) | lo)


def zext(a: BitVec, width: int) -> BitVec:
    if width < a.width:
        raise SolverError(f"zext to narrower width {width} < {a.width}")
    if width == a.width:
        return a
    if a.is_const:
        return const(a.value, width)
    return _intern(ZEXT, width, (a,))


def sext(a: BitVec, width: int) -> BitVec:
    if width < a.width:
        raise SolverError(f"sext to narrower width {width} < {a.width}")
    if width == a.width:
        return a
    if a.is_const:
        return const(_to_signed(a.value, a.width), width)
    return _intern(SEXT, width, (a,))


def eq(a: BitVec, b: BitVec) -> BitVec:
    _check_same_width(a, b, EQ)
    if a is b:
        return true()
    if a.is_const and b.is_const:
        return const(int(a.value == b.value), 1)
    return _intern(EQ, 1, (a, b))


def ne(a: BitVec, b: BitVec) -> BitVec:
    return not_(eq(a, b))


def ult(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return false()
    return _binop_cmp(ULT, a, b)


def ule(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return true()
    return _binop_cmp(ULE, a, b)


def slt(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return false()
    return _binop_cmp(SLT, a, b)


def sle(a: BitVec, b: BitVec) -> BitVec:
    if a is b:
        return true()
    return _binop_cmp(SLE, a, b)


def ugt(a: BitVec, b: BitVec) -> BitVec:
    return ult(b, a)


def uge(a: BitVec, b: BitVec) -> BitVec:
    return ule(b, a)


def sge(a: BitVec, b: BitVec) -> BitVec:
    return sle(b, a)


def _binop_cmp(op: str, a: BitVec, b: BitVec) -> BitVec:
    _check_same_width(a, b, op)
    if a.is_const and b.is_const:
        node = BitVec(op, 1, (a, b))
        return const(_eval_op(node, [a.value, b.value]), 1)
    return _intern(op, 1, (a, b))


def ite(cond: BitVec, then: BitVec, other: BitVec) -> BitVec:
    if cond.width != 1:
        raise SolverError(f"ite condition must be 1 bit, got {cond.width}")
    _check_same_width(then, other, ITE)
    if cond.is_const:
        return then if cond.value else other
    if then is other:
        return then
    # ite(c, 1, 0) over booleans is just c.
    if then.width == 1 and then.is_const and other.is_const:
        if then.value == 1 and other.value == 0:
            return cond
        if then.value == 0 and other.value == 1:
            return not_(cond)
    return _intern(ITE, then.width, (cond, then, other))
