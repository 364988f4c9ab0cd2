"""Bit-blasting of bitvector expressions to CNF.

Each :class:`~repro.solver.expr.BitVec` node is lowered to a list of SAT
literals, least-significant bit first. Gates are encoded with the Tseitin
transformation; the builders fold constants so that concrete sub-expressions
never touch the SAT solver.

The encoder is incremental: one :class:`BitBlaster` owns one
:class:`~repro.solver.sat.SatSolver` and a node cache, so a symbolic
executor can push its path condition once per query set and reuse the
encoding across queries via SAT assumptions.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SolverError
from repro.solver import expr as E
from repro.solver.sat import SatSolver, lit

# Sentinel literal values for folded constants. Real SAT literals are >= 4
# (variable 1 is reserved as the constant-true variable), so 0/1 are free.
TRUE_LIT = "T"
FALSE_LIT = "F"

Lit = object  # int SAT literal, or TRUE_LIT/FALSE_LIT sentinels


class BitBlaster:
    """Lowers BitVec DAGs onto a CDCL SAT solver."""

    def __init__(self):
        self.sat = SatSolver()
        self._const_var = self.sat.new_var()  # variable 1: constant true
        self.sat.add_clause([lit(self._const_var, True)])
        self._cache: Dict[E.BitVec, List[Lit]] = {}
        self._var_bits: Dict[E.BitVec, List[int]] = {}

    # -- literal helpers -----------------------------------------------------

    def _fresh(self) -> int:
        return lit(self.sat.new_var(), True)

    def _neg(self, a: Lit) -> Lit:
        if a is TRUE_LIT:
            return FALSE_LIT
        if a is FALSE_LIT:
            return TRUE_LIT
        return a ^ 1  # type: ignore[operator]

    def _clause(self, lits: List[Lit]) -> None:
        out: List[int] = []
        for l in lits:
            if l is TRUE_LIT:
                return  # satisfied clause
            if l is FALSE_LIT:
                continue
            out.append(l)  # type: ignore[arg-type]
        if not out:
            # Empty clause: encode explicit falsum via the constant variable.
            self.sat.add_clause([lit(self._const_var, False)])
            return
        self.sat.add_clause(out)

    def _and(self, a: Lit, b: Lit) -> Lit:
        if a is FALSE_LIT or b is FALSE_LIT:
            return FALSE_LIT
        if a is TRUE_LIT:
            return b
        if b is TRUE_LIT:
            return a
        if a == b:
            return a
        if a == self._neg(b):
            return FALSE_LIT
        z = self._fresh()
        self._clause([self._neg(z), a])
        self._clause([self._neg(z), b])
        self._clause([z, self._neg(a), self._neg(b)])
        return z

    def _or(self, a: Lit, b: Lit) -> Lit:
        return self._neg(self._and(self._neg(a), self._neg(b)))

    def _xor(self, a: Lit, b: Lit) -> Lit:
        if a is FALSE_LIT:
            return b
        if b is FALSE_LIT:
            return a
        if a is TRUE_LIT:
            return self._neg(b)
        if b is TRUE_LIT:
            return self._neg(a)
        if a == b:
            return FALSE_LIT
        if a == self._neg(b):
            return TRUE_LIT
        z = self._fresh()
        self._clause([self._neg(z), a, b])
        self._clause([self._neg(z), self._neg(a), self._neg(b)])
        self._clause([z, self._neg(a), b])
        self._clause([z, a, self._neg(b)])
        return z

    def _mux(self, sel: Lit, then: Lit, other: Lit) -> Lit:
        """sel ? then : other."""
        if sel is TRUE_LIT:
            return then
        if sel is FALSE_LIT:
            return other
        if then == other:
            return then
        z = self._fresh()
        self._clause([self._neg(sel), self._neg(then), z])
        self._clause([self._neg(sel), then, self._neg(z)])
        self._clause([sel, self._neg(other), z])
        self._clause([sel, other, self._neg(z)])
        return z

    def _full_adder(self, a: Lit, b: Lit, cin: Lit) -> tuple[Lit, Lit]:
        s = self._xor(self._xor(a, b), cin)
        carry = self._or(self._and(a, b), self._and(cin, self._xor(a, b)))
        return s, carry

    # -- word-level builders -------------------------------------------------

    def _add_words(self, a: List[Lit], b: List[Lit],
                   carry: Lit = FALSE_LIT) -> List[Lit]:
        out: List[Lit] = []
        for ai, bi in zip(a, b):
            s, carry = self._full_adder(ai, bi, carry)
            out.append(s)
        return out

    def _negate_word(self, a: List[Lit]) -> List[Lit]:
        return self._add_words([self._neg(x) for x in a],
                               [TRUE_LIT] + [FALSE_LIT] * (len(a) - 1))

    def _sub_words(self, a: List[Lit], b: List[Lit]) -> List[Lit]:
        # a - b == a + ~b + 1
        return self._add_words(a, [self._neg(x) for x in b], TRUE_LIT)

    def _mul_words(self, a: List[Lit], b: List[Lit]) -> List[Lit]:
        width = len(a)
        acc: List[Lit] = [FALSE_LIT] * width
        for i in range(width):
            if b[i] is FALSE_LIT:
                continue
            shifted = [FALSE_LIT] * i + a[: width - i]
            partial = [self._and(b[i], x) for x in shifted]
            acc = self._add_words(acc, partial)
        return acc

    def _ult_words(self, a: List[Lit], b: List[Lit]) -> Lit:
        # Ripple from LSB: lt = (~a_i & b_i) | (a_i == b_i) & lt_prev
        lt: Lit = FALSE_LIT
        for ai, bi in zip(a, b):
            eq_bit = self._neg(self._xor(ai, bi))
            lt = self._or(self._and(self._neg(ai), bi), self._and(eq_bit, lt))
        return lt

    def _eq_words(self, a: List[Lit], b: List[Lit]) -> Lit:
        acc: Lit = TRUE_LIT
        for ai, bi in zip(a, b):
            acc = self._and(acc, self._neg(self._xor(ai, bi)))
        return acc

    def _shift_words(self, a: List[Lit], b: List[Lit], kind: str) -> List[Lit]:
        """Barrel shifter; kind in {'shl', 'lshr', 'ashr'}."""
        width = len(a)
        result = list(a)
        fill: Lit = a[-1] if kind == "ashr" else FALSE_LIT
        stage = 0
        while (1 << stage) < width and stage < len(b):
            sel = b[stage]
            amount = 1 << stage
            shifted: List[Lit] = [FALSE_LIT] * width
            if kind == "shl":
                for i in range(width):
                    shifted[i] = result[i - amount] if i >= amount else FALSE_LIT
            else:
                for i in range(width):
                    shifted[i] = result[i + amount] if i + amount < width else fill
            result = [self._mux(sel, s, r) for s, r in zip(shifted, result)]
            stage += 1
        # Shift amounts >= width produce 0 (or sign fill for ashr).
        overflow: Lit = FALSE_LIT
        for i in range(stage, len(b)):
            overflow = self._or(overflow, b[i])
        if kind != "ashr":
            result = [self._mux(overflow, FALSE_LIT, r) for r in result]
        else:
            result = [self._mux(overflow, fill, r) for r in result]
        return result

    def _udivrem_words(self, a: List[Lit], b: List[Lit]) -> tuple[List[Lit], List[Lit]]:
        """Restoring division. Division by zero yields (all-ones, a), the
        same convention as :func:`repro.solver.expr._eval_op`.

        A constant nonzero divisor d keeps every partial remainder below
        2d, so the stages run on ``d.bit_length() + 1`` remainder bits
        instead of the full width, and the zero check folds away."""
        width = len(a)
        narrow = width
        if all(x is TRUE_LIT or x is FALSE_LIT for x in b):
            divisor = sum(1 << i for i, x in enumerate(b) if x is TRUE_LIT)
            if divisor:
                narrow = min(width, divisor.bit_length() + 1)
        b = b[:narrow]
        quotient: List[Lit] = [FALSE_LIT] * width
        remainder: List[Lit] = [FALSE_LIT] * narrow
        for i in range(width - 1, -1, -1):
            # remainder = (remainder << 1) | a[i]
            remainder = [a[i]] + remainder[:-1]
            # if remainder >= b: remainder -= b; q[i] = 1
            ge = self._neg(self._ult_words(remainder, b))
            diff = self._sub_words(remainder, b)
            remainder = [self._mux(ge, d, r) for d, r in zip(diff, remainder)]
            quotient[i] = ge
        remainder += [FALSE_LIT] * (width - narrow)
        b_is_zero = self._eq_words(b, [FALSE_LIT] * width)
        quotient = [self._mux(b_is_zero, TRUE_LIT, q) for q in quotient]
        remainder = [self._mux(b_is_zero, x, r) for x, r in zip(a, remainder)]
        return quotient, remainder

    # -- expression lowering ----------------------------------------------------

    def blast(self, node: E.BitVec) -> List[Lit]:
        """Lower *node* and return its bit literals, LSB first."""
        cached = self._cache.get(node)
        if cached is not None:
            return cached
        # Iterative lowering to avoid recursion limits on deep DAGs.
        order: List[E.BitVec] = []
        seen = set()
        stack = [(node, False)]
        while stack:
            cur, ready = stack.pop()
            if cur in self._cache:
                continue
            if ready:
                order.append(cur)
                continue
            if id(cur) in seen:
                continue
            seen.add(id(cur))
            stack.append((cur, True))
            for arg in cur.args:
                stack.append((arg, False))
        for cur in order:
            if cur not in self._cache:
                self._cache[cur] = self._blast_node(cur)
        return self._cache[node]

    def _blast_node(self, node: E.BitVec) -> List[Lit]:
        op = node.op
        if op == E.CONST:
            return [TRUE_LIT if (node.value >> i) & 1 else FALSE_LIT
                    for i in range(node.width)]
        if op == E.VAR:
            bits = self._var_bits.get(node)
            if bits is None:
                bits = [self._fresh() for _ in range(node.width)]
                self._var_bits[node] = bits
            return list(bits)
        args = [self._cache[a] for a in node.args]
        if op == E.ADD:
            return self._add_words(args[0], args[1])
        if op == E.SUB:
            return self._sub_words(args[0], args[1])
        if op == E.MUL:
            return self._mul_words(args[0], args[1])
        if op == E.NEG:
            return self._negate_word(args[0])
        if op == E.UDIV:
            return self._udivrem_words(args[0], args[1])[0]
        if op == E.UREM:
            return self._udivrem_words(args[0], args[1])[1]
        if op == E.AND:
            return [self._and(a, b) for a, b in zip(args[0], args[1])]
        if op == E.OR:
            return [self._or(a, b) for a, b in zip(args[0], args[1])]
        if op == E.XOR:
            return [self._xor(a, b) for a, b in zip(args[0], args[1])]
        if op == E.NOT:
            return [self._neg(a) for a in args[0]]
        if op in (E.SHL, E.LSHR, E.ASHR):
            return self._shift_words(args[0], args[1], op)
        if op == E.CONCAT:
            out: List[Lit] = []
            for arg_bits in reversed(args):  # last arg is least significant
                out.extend(arg_bits)
            return out
        if op == E.EXTRACT:
            hi = node.value >> 16  # type: ignore[operator]
            lo = node.value & 0xFFFF  # type: ignore[operator]
            return args[0][lo:hi + 1]
        if op == E.ZEXT:
            pad = node.width - node.args[0].width
            return args[0] + [FALSE_LIT] * pad
        if op == E.SEXT:
            pad = node.width - node.args[0].width
            return args[0] + [args[0][-1]] * pad
        if op == E.EQ:
            return [self._eq_words(args[0], args[1])]
        if op == E.ULT:
            return [self._ult_words(args[0], args[1])]
        if op == E.ULE:
            return [self._neg(self._ult_words(args[1], args[0]))]
        if op in (E.SLT, E.SLE):
            # Signed comparison: flip sign bits and compare unsigned.
            a = list(args[0])
            b = list(args[1])
            a[-1] = self._neg(a[-1])
            b[-1] = self._neg(b[-1])
            if op == E.SLT:
                return [self._ult_words(a, b)]
            return [self._neg(self._ult_words(b, a))]
        if op == E.ITE:
            sel = args[0][0]
            return [self._mux(sel, t, o) for t, o in zip(args[1], args[2])]
        raise SolverError(f"bitblast: unsupported op {op!r}")

    # -- assertion / model interface ----------------------------------------------

    def assert_true(self, node: E.BitVec) -> None:
        """Permanently constrain a 1-bit expression to be true."""
        if node.width != 1:
            raise SolverError("assert_true expects a boolean (1-bit) expression")
        bits = self.blast(node)
        self._clause([bits[0]])

    def literal_for(self, node: E.BitVec) -> Lit:
        """Return a single literal equivalent to a boolean expression."""
        if node.width != 1:
            raise SolverError("literal_for expects a boolean (1-bit) expression")
        return self.blast(node)[0]

    def model_value(self, node: E.BitVec) -> int:
        """Read back *node*'s value from the last SAT model."""
        bits = self._cache.get(node)
        if bits is None:
            raise SolverError("expression was never blasted")
        value = 0
        for i, b in enumerate(bits):
            if b is TRUE_LIT:
                bit = 1
            elif b is FALSE_LIT:
                bit = 0
            else:
                v = b >> 1  # type: ignore[operator]
                bit = int(self.sat.model_value(v) == (b & 1 == 0))  # type: ignore[operator]
            value |= bit << i
        return value
