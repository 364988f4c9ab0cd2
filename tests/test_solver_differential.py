"""Brute-force differential oracle for the solver stack.

Seeded random 2–4-bit QF_BV queries go through one long-lived
:class:`Solver` (simplify → bit-blast → CDCL, behind the query cache
and the model-cache replay). Every verdict is checked against
exhaustive enumeration under a reference semantics written here, apart
from :mod:`repro.solver.expr`, and every returned model must make each
constraint evaluate to 1. A second case drives one :class:`SatSolver`
through many incremental ``solve(assumptions)`` calls against brute
force, so order-heap and watch state carried across solves is covered.
The word-level rewrites (constant divisors, constant add chains) are
checked exhaustively at 2–4 bits on cold solvers.
"""

import itertools
import random

import pytest

from repro.solver import SAT, UNSAT, Solver
from repro.solver import expr as E
from repro.solver.sat import SatSolver, lit
from repro.solver.simplify import concretize, simplify

#: One variable per width keeps exhaustive enumeration at 2**9 points.
VARS = {4: E.var("dx", 4), 3: E.var("dy", 3), 2: E.var("dz", 2)}

#: Every op the bit-blaster lowers.
LOWERED = {E.ADD, E.SUB, E.MUL, E.NEG, E.UDIV, E.UREM, E.AND, E.OR, E.XOR,
           E.NOT, E.SHL, E.LSHR, E.ASHR, E.CONCAT, E.EXTRACT, E.ZEXT,
           E.SEXT, E.EQ, E.ULT, E.ULE, E.SLT, E.SLE, E.ITE}


# -- reference semantics (SMT-LIB QF_BV) ---------------------------------------

def _signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


def _ref_op(node, a):
    op, mask = node.op, (1 << node.width) - 1
    aw = node.args[0].width
    if op == E.ADD: return (a[0] + a[1]) & mask
    if op == E.SUB: return (a[0] - a[1]) & mask
    if op == E.MUL: return (a[0] * a[1]) & mask
    if op == E.NEG: return -a[0] & mask
    if op == E.UDIV: return mask if a[1] == 0 else a[0] // a[1]
    if op == E.UREM: return a[0] if a[1] == 0 else a[0] % a[1]
    if op == E.AND: return a[0] & a[1]
    if op == E.OR: return a[0] | a[1]
    if op == E.XOR: return a[0] ^ a[1]
    if op == E.NOT: return a[0] ^ mask
    if op == E.SHL: return (a[0] << a[1]) & mask
    if op == E.LSHR: return a[0] >> a[1]
    if op == E.ASHR: return (_signed(a[0], aw) >> a[1]) & mask
    if op == E.CONCAT:
        out = 0
        for arg, value in zip(node.args, a):
            out = (out << arg.width) | value
        return out
    if op == E.EXTRACT: return (a[0] >> (node.value & 0xFFFF)) & mask
    if op == E.ZEXT: return a[0]
    if op == E.SEXT: return _signed(a[0], aw) & mask
    if op == E.EQ: return int(a[0] == a[1])
    if op == E.ULT: return int(a[0] < a[1])
    if op == E.ULE: return int(a[0] <= a[1])
    if op == E.SLT: return int(_signed(a[0], aw) < _signed(a[1], aw))
    if op == E.SLE: return int(_signed(a[0], aw) <= _signed(a[1], aw))
    if op == E.ITE: return a[1] if a[0] else a[2]
    raise AssertionError(f"no reference semantics for {op}")


def ref_eval(nodes, env):
    """Values of *nodes* under *env*; variables it lacks read as 0."""
    memo = {}

    def go(node):
        if node not in memo:
            if node.op == E.CONST:
                memo[node] = node.value
            elif node.op == E.VAR:
                memo[node] = env.get(node, 0) & ((1 << node.width) - 1)
            else:
                memo[node] = _ref_op(node, [go(arg) for arg in node.args])
        return memo[node]

    return [go(node) for node in nodes]


def brute_force_sat(conj):
    variables = sorted(set().union(*(c.variables() for c in conj)),
                       key=lambda v: v.name)
    for values in itertools.product(*(range(1 << v.width) for v in variables)):
        if all(v == 1 for v in ref_eval(conj, dict(zip(variables, values)))):
            return True
    return False


# -- random queries -------------------------------------------------------------

CMPS = (E.eq, E.ne, E.ult, E.ule, E.slt, E.sle, E.ugt, E.uge, E.sge)


def gen_bool(rng, depth):
    kind = rng.choice(("cmp", "cmp", "cmp", "not", "and", "or", "bit", "ite"))
    if depth <= 0 or kind == "cmp":
        w = rng.choice((2, 3, 4))
        return rng.choice(CMPS)(gen(rng, w, depth - 1), gen(rng, w, depth - 1))
    if kind == "not":
        return E.not_(gen_bool(rng, depth - 1))
    if kind in ("and", "or"):
        build = E.and_ if kind == "and" else E.or_
        return build(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1))
    if kind == "bit":
        bit = rng.randrange(4)
        return E.extract(gen(rng, 4, depth - 1), bit, bit)
    return E.ite(gen_bool(rng, depth - 1), gen_bool(rng, depth - 1),
                 gen_bool(rng, depth - 1))


def gen(rng, width, depth):
    """A random expression of *width* bits (1..4)."""
    if width == 1:
        return gen_bool(rng, depth)
    if depth <= 0 or rng.random() < 0.2:
        if width in VARS and rng.random() < 0.75:
            return VARS[width]
        return E.const(rng.randrange(1 << width), width)
    kind = rng.choice(("bin", "bin", "bin", "neg", "not", "ite", "concat",
                       "extract", "zext", "sext"))
    if kind == "extract" and width < 4:
        src = rng.randint(width + 1, 4)
        lo = rng.randint(0, src - width)
        return E.extract(gen(rng, src, depth - 1), lo + width - 1, lo)
    if kind in ("zext", "sext"):
        inner = gen(rng, rng.randint(1, width - 1), depth - 1)
        return (E.zext if kind == "zext" else E.sext)(inner, width)
    if kind == "concat":
        hi = rng.randint(1, width - 1)
        return E.concat(gen(rng, hi, depth - 1), gen(rng, width - hi, depth - 1))
    if kind == "ite":
        return E.ite(gen_bool(rng, depth - 1), gen(rng, width, depth - 1),
                     gen(rng, width, depth - 1))
    if kind in ("neg", "not"):
        return (E.neg if kind == "neg" else E.not_)(gen(rng, width, depth - 1))
    build = rng.choice((E.add, E.sub, E.mul, E.udiv, E.urem, E.and_, E.or_,
                        E.xor, E.shl, E.lshr, E.ashr))
    return build(gen(rng, width, depth - 1), gen(rng, width, depth - 1))


# -- the oracle -----------------------------------------------------------------

class TestSolverVsBruteForce:
    @pytest.mark.parametrize("seed", range(3))
    def test_long_lived_solver(self, seed):
        rng = random.Random(seed)
        solver = Solver()
        paths = [[]]
        asked = []
        verdicts = {SAT: 0, UNSAT: 0}

        def check(conj):
            result = solver.check(conj)
            expected = SAT if brute_force_sat(conj) else UNSAT
            assert result.status == expected, conj
            verdicts[expected] += 1
            if result.is_sat:
                assert ref_eval(conj, result.model) == [1] * len(conj), conj
            return result.is_sat

        for _ in range(80):
            prefix = rng.choice(paths)
            cond = gen_bool(rng, rng.randint(1, 3))
            # Both branch directions, the way the executor forks.
            for query in (prefix + [cond], prefix + [E.not_(cond)]):
                asked.append(query)
                if check(query) and len(query) < 6:
                    paths.append(query)
            if rng.random() < 0.3:
                check(prefix + [cond, E.not_(cond)])  # UNSAT by construction
            if rng.random() < 0.3:
                check(rng.choice(asked))  # an exact repeat

        assert verdicts[SAT] and verdicts[UNSAT]
        assert solver.stats.query_cache_hits > 0
        assert solver.stats.model_cache_hits > 0
        assert solver.sat_stats["decisions"] > 0
        assert solver.sat_stats["conflicts"] > 0

    def test_evaluate_and_folding_match_reference(self):
        """Model replay evaluates with :meth:`BitVec.evaluate` and the
        normaliser relies on constructor folding: both must agree with
        the reference semantics, zero divisors and wide shifts included."""
        rng = random.Random(7)
        for _ in range(300):
            node = gen(rng, rng.randint(1, 4), 3)
            env = {v: rng.randrange(1 << w) for w, v in VARS.items()}
            expected = ref_eval([node], env)[0]
            assert node.evaluate(env) == expected, node
            folded = concretize(node, env)
            assert folded.is_const and folded.value == expected, node

    def test_generator_reaches_every_lowered_op(self):
        rng = random.Random(0)
        ops = set()
        for _ in range(300):
            ops.update(node.op for node in simplify(gen_bool(rng, 3)).walk())
        assert LOWERED <= ops


# -- word-level rewrites ----------------------------------------------------------

def assert_solves_like_brute_force(conj):
    """A cold :class:`Solver` (no cached model to replay) agrees with
    brute force on *conj*, and its model satisfies every constraint."""
    result = Solver().check(conj)
    assert result.status == (SAT if brute_force_sat(conj) else UNSAT), conj
    if result.is_sat:
        assert ref_eval(conj, result.model) == [1] * len(conj), conj


class TestWordLevelRewrites:
    """The constructors rewrite power-of-two division and constant add
    chains, ``simplify`` solves ``eq(add(x, c1), c2)`` for x, and the
    bit-blaster narrows the divider of a constant divisor. Each rewrite
    is checked against the reference semantics above."""

    @pytest.mark.parametrize("op", [E.UDIV, E.UREM])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_constant_divisors_exhaustively(self, op, width):
        build = E.udiv if op == E.UDIV else E.urem
        x = VARS[width]
        for c in range(1 << width):
            divisor = E.const(c, width)
            # The raw node skips the constructor's rewrites, so every
            # divisor (powers of two included) reaches the narrowed
            # divider in the bit-blaster.
            raw = E._intern(op, width, (x, divisor))
            built = build(x, divisor)
            if c and not c & (c - 1):  # 2**k: a bit select, no divider
                assert op not in {n.op for n in built.walk()}, built
            for v in range(1 << width):
                assert ref_eval([built], {x: v}) == ref_eval([raw], {x: v}), \
                    (built, v)
            for node in (raw, built):
                for k in range(1 << width):
                    assert_solves_like_brute_force(
                        [E.eq(node, E.const(k, width))])

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_add_forms_with_wraparound(self, width):
        x = VARS[width]
        mask = (1 << width) - 1
        for c1 in range(1 << width):
            first = E.const(c1, width)
            assert E.add(first, x) is E.add(x, first)
            for c2 in range(1 << width):
                second = E.const(c2, width)
                chain = E.add(E.add(x, first), second)
                assert chain is E.add(x, E.const(c1 + c2, width))
                for v in range(1 << width):
                    assert ref_eval([chain], {x: v}) == [(v + c1 + c2) & mask]
                query = E.eq(E.add(x, first), second)
                assert simplify(query) is E.eq(x, E.const(c2 - c1, width))
                assert_solves_like_brute_force([query])
                # Through a zero-extension the solved equality narrows
                # further, to the inner width or to false.
                assert_solves_like_brute_force(
                    [E.eq(E.add(E.zext(VARS[2], width), first), second)])

    def test_cold_constant_modulus_query_stays_small(self):
        """The query behind the parallel-DSE stall: a cold solver with a
        full-width divider needed 9 100 conflicts to find x mod 6 = 5."""
        x = E.var("x", 32)
        solver = Solver()
        result = solver.check([E.ne(E.urem(x, E.const(6, 32)), E.const(k, 32))
                               for k in range(5)])
        assert result.is_sat
        assert result.model[x] % 6 == 5
        assert solver.sat_stats["conflicts"] <= 1000


# -- the SAT core alone ------------------------------------------------------------

def _satisfies(mask, clause):
    return any((mask >> (l >> 1) & 1) == (l & 1 == 0) for l in clause)


@pytest.mark.parametrize("restart_base, decay", [(100, 0.95), (2, 1e-5)])
def test_incremental_sat_solver_vs_bruteforce(restart_base, decay):
    """Many incremental solves under assumptions on one instance. The
    (2, 1e-5) case restarts often and rescales the activities (which
    rebuilds the order heap) every ~20 conflicts."""
    rng = random.Random(restart_base)
    n_vars = 12
    solver = SatSolver(restart_base=restart_base, activity_decay=decay)
    solver.ensure_vars(n_vars)
    # Assignments as bitmasks: bit v of the mask is variable v.
    alive = [m << 1 for m in range(1 << n_vars)]

    def add_random_clause():
        vs = rng.sample(range(1, n_vars + 1), 3)
        clause = [lit(v, rng.random() < 0.5) for v in vs]
        solver.add_clause(clause)
        return [m for m in alive if _satisfies(m, clause)]

    for _ in range(44):
        alive = add_random_clause()
    for step in range(400):
        if step % 40 == 0 and len(alive) > 16:
            alive = add_random_clause()
        assumptions = [lit(v, rng.random() < 0.5)
                       for v in rng.sample(range(1, n_vars + 1), rng.randint(0, 8))]
        consistent = [m for m in alive
                      if all(_satisfies(m, [a]) for a in assumptions)]
        got = solver.solve(assumptions)
        assert got == (SAT if consistent else UNSAT), (step, assumptions)
        if got == SAT:
            model = sum(1 << v for v in range(1, n_vars + 1)
                        if solver.model_value(v))
            assert model in consistent
    assert solver.stats["conflicts"] > 0
    if decay < 1e-3:
        # var_inc grows 1e5x per conflict, so a bump in conflict 22 or
        # later exceeds 1e100 and rescales the activities.
        assert solver.stats["conflicts"] >= 22
        assert solver.stats["restarts"] > 0
