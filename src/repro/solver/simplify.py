"""Rewrite-based simplification and substitution over BitVec DAGs.

The expression constructors in :mod:`repro.solver.expr` already fold
constants and apply cheap local identities; this module adds the
passes that need a full traversal:

* :func:`substitute` — replace variables (or arbitrary sub-expressions)
  and rebuild through the folding constructors, so a fully concrete
  assignment collapses an expression to a constant,
* :func:`simplify` — a bottom-up rebuild with a few non-local rules that
  help symbolic-execution workloads (comparison canonicalisation,
  ite-condition propagation).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import SolverError
from repro.solver import expr as E

# Builders dispatched by op during reconstruction.
_REBUILD = {
    E.ADD: lambda n, a: E.add(a[0], a[1]),
    E.SUB: lambda n, a: E.sub(a[0], a[1]),
    E.MUL: lambda n, a: E.mul(a[0], a[1]),
    E.UDIV: lambda n, a: E.udiv(a[0], a[1]),
    E.UREM: lambda n, a: E.urem(a[0], a[1]),
    E.AND: lambda n, a: E.and_(a[0], a[1]),
    E.OR: lambda n, a: E.or_(a[0], a[1]),
    E.XOR: lambda n, a: E.xor(a[0], a[1]),
    E.NOT: lambda n, a: E.not_(a[0]),
    E.NEG: lambda n, a: E.neg(a[0]),
    E.SHL: lambda n, a: E.shl(a[0], a[1]),
    E.LSHR: lambda n, a: E.lshr(a[0], a[1]),
    E.ASHR: lambda n, a: E.ashr(a[0], a[1]),
    E.CONCAT: lambda n, a: E.concat(*a),
    E.EXTRACT: lambda n, a: E.extract(a[0], n.value >> 16, n.value & 0xFFFF),
    E.ZEXT: lambda n, a: E.zext(a[0], n.width),
    E.SEXT: lambda n, a: E.sext(a[0], n.width),
    E.EQ: lambda n, a: E.eq(a[0], a[1]),
    E.ULT: lambda n, a: E.ult(a[0], a[1]),
    E.ULE: lambda n, a: E.ule(a[0], a[1]),
    E.SLT: lambda n, a: E.slt(a[0], a[1]),
    E.SLE: lambda n, a: E.sle(a[0], a[1]),
    E.ITE: lambda n, a: E.ite(a[0], a[1], a[2]),
}

#: not(a < b) is b <= a, and so on for each ordered comparison.
_NEGATED = {E.ULT: E.ule, E.ULE: E.ult, E.SLT: E.sle, E.SLE: E.slt}


def rebuild(node: E.BitVec, new_args) -> E.BitVec:
    """Reconstruct *node* with *new_args* through the folding constructors."""
    builder = _REBUILD.get(node.op)
    if builder is None:
        raise SolverError(f"rebuild: unsupported op {node.op!r}")
    return builder(node, list(new_args))


def substitute(node: E.BitVec, mapping: Mapping[E.BitVec, E.BitVec]) -> E.BitVec:
    """Replace occurrences of keys of *mapping* with their values.

    Keys are matched by node identity (hash-consing makes this structural).
    Reconstruction goes through the folding constructors, so substituting
    constants for all variables yields a constant node.
    """
    cache: Dict[E.BitVec, E.BitVec] = {}
    order = _postorder(node, stop=mapping)
    for cur in order:
        replacement = mapping.get(cur)
        if replacement is not None:
            if replacement.width != cur.width:
                raise SolverError(
                    f"substitute: width mismatch {replacement.width} vs {cur.width}")
            cache[cur] = replacement
        elif cur.op in (E.CONST, E.VAR):
            cache[cur] = cur
        else:
            new_args = tuple(cache[a] for a in cur.args)
            cache[cur] = cur if new_args == cur.args else rebuild(cur, new_args)
    return cache[node]


def concretize(node: E.BitVec, assignment: Mapping[E.BitVec, int]) -> E.BitVec:
    """Substitute integer values for variables and fold."""
    mapping = {v: E.const(val, v.width) for v, val in assignment.items()}
    return substitute(node, mapping)


def _postorder(node: E.BitVec, stop: Mapping = ()):  # type: ignore[assignment]
    order = []
    emitted = set()
    stack = [(node, False)]
    while stack:
        cur, ready = stack.pop()
        if ready:
            if cur not in emitted:
                emitted.add(cur)
                order.append(cur)
            continue
        if cur in emitted:
            continue
        stack.append((cur, True))
        if cur not in stop:
            for arg in cur.args:
                stack.append((arg, False))
    return order


def simplify(node: E.BitVec) -> E.BitVec:
    """Bottom-up simplification with non-local rules.

    Rules applied on top of constructor folding:

    * ``not(not(x))`` → ``x`` (constructor) and comparison negation:
      ``not(ult(a,b))`` → ``ule(b,a)`` etc., keeping path conditions in a
      canonical positive form,
    * ``eq(x, c)`` where ``x = ite(p, c1, c2)`` with constant arms →
      ``p`` / ``not p`` / ``false``,
    * ``eq(concat(a, b), c)`` → ``and(eq(a, c_hi), eq(b, c_lo))`` which
      splits wide equalities into independently solvable pieces.
    """
    cache: Dict[E.BitVec, E.BitVec] = {}
    for cur in _postorder(node):
        if cur.op in (E.CONST, E.VAR):
            cache[cur] = cur
            continue
        args = tuple(cache[a] for a in cur.args)
        rebuilt = cur if args == cur.args else rebuild(cur, args)
        cache[cur] = _apply_rules(rebuilt)
    return cache[node]


def _apply_rules(node: E.BitVec) -> E.BitVec:
    if node.op == E.NOT and node.width == 1:
        inner = node.args[0]
        flip = _NEGATED.get(inner.op)
        if flip is not None:
            return flip(inner.args[1], inner.args[0])
    if node.op == E.EQ:
        a, b = node.args
        if b.is_const:
            folded = _eq_with_const(a, b)
            if folded is not None:
                return folded
        if a.is_const:
            folded = _eq_with_const(b, a)
            if folded is not None:
                return folded
    return node


def _eq_with_const(a: E.BitVec, c: E.BitVec):
    if a.op == E.ITE:
        cond, then, other = a.args
        if then.is_const and other.is_const:
            then_hit = then.value == c.value
            other_hit = other.value == c.value
            if then_hit and other_hit:
                return E.true()
            if then_hit:
                return cond
            if other_hit:
                return E.not_(cond)
            return E.false()
    if a.op == E.CONCAT:
        conj = E.true()
        offset = 0
        for part in reversed(a.args):  # LSB part first
            part_const = E.const((c.value >> offset), part.width)  # type: ignore[operator]
            conj = E.and_(conj, E.eq(part, part_const))
            offset += part.width
        return conj
    if a.op == E.ZEXT:
        inner = a.args[0]
        high = c.value >> inner.width  # type: ignore[operator]
        if high != 0:
            return E.false()
        return E.eq(inner, E.const(c.value, inner.width))  # type: ignore[arg-type]
    return None
