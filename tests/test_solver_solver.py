"""Tests for the top-level Solver: queries, caching, concretization."""

import pytest

from repro.errors import SolverError
from repro.solver import UNSAT, Solver
from repro.solver import expr as E


@pytest.fixture
def solver():
    return Solver()


class TestCheck:
    def test_empty_constraints_sat(self, solver):
        assert solver.check([]).is_sat

    def test_trivially_false(self, solver):
        assert solver.check([E.false()]).status == UNSAT

    def test_trivially_true_filtered(self, solver):
        assert solver.check([E.true()]).is_sat

    def test_model_satisfies_constraints(self, solver):
        x, y = E.var("sv_x", 8), E.var("sv_y", 8)
        cs = [E.eq(E.add(x, y), E.const(100, 8)), E.ugt(x, E.const(90, 8))]
        result = solver.check(cs)
        assert result.is_sat
        for c in cs:
            assert c.evaluate(result.model) == 1

    def test_unsat_range(self, solver):
        x = E.var("sv_u", 8)
        assert not solver.check([E.ult(x, E.const(4, 8)),
                                 E.ugt(x, E.const(250, 8))]).is_sat

    def test_non_boolean_constraint_rejected(self, solver):
        with pytest.raises(SolverError):
            solver.check([E.var("sv_w", 8)])

    def test_signed_constraints(self, solver):
        x = E.var("sv_s", 8)
        result = solver.check([E.slt(x, E.const(0, 8)),
                               E.sge(x, E.const(-3 & 0xFF, 8))])
        assert result.is_sat
        v = result.model[x]
        assert v in (0xFD, 0xFE, 0xFF)


class TestCaching:
    def test_query_cache_hit(self, solver):
        x = E.var("qc", 8)
        cs = [E.ult(x, E.const(5, 8))]
        solver.check(cs)
        before = solver.stats.queries
        solver.check(list(cs))
        assert solver.stats.queries == before
        assert solver.stats.query_cache_hits >= 1

    def test_model_cache_answers_weaker_query(self, solver):
        x = E.var("mc", 8)
        r1 = solver.check([E.eq(x, E.const(3, 8))])
        assert r1.is_sat
        before_hits = solver.stats.model_cache_hits
        r2 = solver.check([E.ult(x, E.const(10, 8))])
        assert r2.is_sat
        assert solver.stats.model_cache_hits == before_hits + 1

    def test_constraint_order_irrelevant_for_cache(self, solver):
        x = E.var("oc", 8)
        a, b = E.ult(x, E.const(9, 8)), E.ugt(x, E.const(2, 8))
        solver.check([a, b])
        before = solver.stats.queries
        solver.check([b, a])
        assert solver.stats.queries == before


class TestEval:
    def test_eval_one_concrete_shortcut(self, solver):
        assert solver.eval_one(E.const(7, 8), []) == 7

    def test_eval_one_respects_constraints(self, solver):
        x = E.var("e1", 8)
        got = solver.eval_one(x, [E.eq(x, E.const(0x42, 8))])
        assert got == 0x42

    def test_eval_one_unsat_returns_none(self, solver):
        x = E.var("e2", 8)
        assert solver.eval_one(x, [E.false()]) is None

    def test_eval_upto_enumerates_all(self, solver):
        x = E.var("e3", 8)
        vals = solver.eval_upto(x, [E.ult(x, E.const(4, 8))], 16)
        assert sorted(vals) == [0, 1, 2, 3]

    def test_eval_upto_respects_limit(self, solver):
        x = E.var("e4", 8)
        vals = solver.eval_upto(x, [], 5)
        assert len(vals) == 5
        assert len(set(vals)) == 5

    def test_eval_of_derived_expression(self, solver):
        x = E.var("e5", 8)
        got = solver.eval_one(E.mul(x, E.const(3, 8)),
                              [E.eq(x, E.const(5, 8))])
        assert got == 15


class TestImplication:
    def test_must_be_true(self, solver):
        x = E.var("im", 8)
        path = [E.ult(x, E.const(10, 8))]
        assert solver.must_be_true(E.ult(x, E.const(20, 8)), path)
        assert not solver.must_be_true(E.ult(x, E.const(5, 8)), path)

    def test_may_be_true(self, solver):
        x = E.var("im2", 8)
        path = [E.ult(x, E.const(10, 8))]
        assert solver.may_be_true(E.eq(x, E.const(9, 8)), path)
        assert not solver.may_be_true(E.eq(x, E.const(10, 8)), path)

    def test_branch_feasibility_pattern(self, solver):
        """The executor's both-ways query: either side or both feasible."""
        x = E.var("bf", 32)
        path = [E.ult(x, E.const(100, 32))]
        cond = E.ult(x, E.const(50, 32))
        assert solver.may_be_true(cond, path)
        assert solver.may_be_true(E.not_(cond), path)
        pinned = path + [E.eq(x, E.const(10, 32))]
        assert solver.may_be_true(cond, pinned)
        assert not solver.may_be_true(E.not_(cond), pinned)


class TestQueryCacheLru:
    """Satellite: the query cache is bounded with LRU eviction."""

    @staticmethod
    def _distinct_query(i):
        x = E.var("lru", 32)
        return [E.eq(x, E.const(i, 32))]

    def test_cache_never_exceeds_capacity(self):
        solver = Solver(query_cache_size=8)
        for i in range(40):
            solver.check(self._distinct_query(i))
            assert len(solver._query_cache) <= 8
        assert solver.stats.query_cache_evictions == 40 - 8

    def test_eviction_counter_in_stats(self):
        solver = Solver(query_cache_size=2)
        for i in range(5):
            solver.check(self._distinct_query(i))
        assert solver.stats.query_cache_evictions == 3

    def test_lru_order_recently_used_survives(self):
        solver = Solver(query_cache_size=2)
        solver.check(self._distinct_query(0))
        solver.check(self._distinct_query(1))
        solver.check(self._distinct_query(0))   # refresh 0: 1 is now LRU
        solver.check(self._distinct_query(2))   # evicts 1
        hits = solver.stats.query_cache_hits
        solver.check(self._distinct_query(0))   # still cached
        assert solver.stats.query_cache_hits == hits + 1
        solver.check(self._distinct_query(1))   # was evicted: a miss
        assert solver.stats.query_cache_hits == hits + 1

    def test_default_capacity_is_large(self):
        from repro.solver.solver import DEFAULT_QUERY_CACHE_SIZE
        assert Solver()._query_cache_size == DEFAULT_QUERY_CACHE_SIZE >= 1024

    def test_invalid_capacity_rejected(self):
        with pytest.raises(SolverError):
            Solver(query_cache_size=0)
