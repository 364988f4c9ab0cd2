"""Model-cache replay with a node-value memo kept per remembered model.

The shipped :class:`Solver` keeps each remembered model's memo across
queries; the oracle in ``tests/solver_oracle.py`` replays from an empty
memo every time. Driven with the same queries, both must pick the same
model for every query, so status, model, :class:`SolverStats` counters
and SAT counters agree after each one, on the random query stream of
``test_solver_differential.py`` and on two E0 ``dse-serial`` campaigns.

The memo is keyed by node id, which is sound only while interned nodes
live as long as the process; a guard here fails first if interning
ever becomes weak. Two more pin the memo's footprint: one memo per
remembered model, and a replay that evaluates only nodes its model has
not seen.
"""

import dataclasses
import gc
import random

import pytest

from repro.core import HardSnapSession
from repro.firmware import (TIMER_BASE, UART_BASE, dispatcher,
                            vuln_buffer_overflow)
from repro.peripherals import catalog
from repro.solver import Solver
from repro.solver import expr as E
from tests.solver_oracle import FreshReplaySolver
from tests.test_solver_differential import long_lived_queries

CAMPAIGNS = {
    "dispatcher-16": (lambda: dispatcher(16, 40),
                      ((catalog.TIMER, TIMER_BASE),)),
    "vuln_buffer_overflow": (vuln_buffer_overflow,
                             ((catalog.UART, UART_BASE),)),
}


#: The :class:`SolverStats` fields that hold seconds, not counts.
TIMERS = ("solver_time", "replay_s")


def counters(solver):
    """Every :class:`SolverStats` field except the timers."""
    return {name: value
            for name, value in dataclasses.asdict(solver.stats).items()
            if name not in TIMERS}


def assert_same_search(shipped, oracle):
    assert counters(shipped) == counters(oracle)
    assert shipped.sat_stats == oracle.sat_stats


@pytest.mark.parametrize("model_cache_size", [32, 4])
@pytest.mark.parametrize("seed", range(3))
def test_replay_matches_fresh_memo_oracle(seed, model_cache_size):
    shipped = Solver(model_cache_size=model_cache_size)
    oracle = FreshReplaySolver(model_cache_size=model_cache_size)

    def check(conj):
        got, want = shipped.check(conj), oracle.check(conj)
        assert got.status == want.status, conj
        assert got.model == want.model, conj
        assert_same_search(shipped, oracle)
        return got.is_sat

    long_lived_queries(random.Random(seed), check)
    assert shipped.stats.model_cache_hits > 0


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_session_matches_fresh_memo_oracle(name):
    firmware, peripherals = CAMPAIGNS[name]
    shipped, oracle = Solver(), FreshReplaySolver()
    reports = [HardSnapSession(firmware(), peripherals, solver=solver,
                               scan_mode="functional", opt=True)
               .run(max_instructions=1_000_000)
               for solver in (shipped, oracle)]
    assert reports[0].verdict_summary() == reports[1].verdict_summary()
    assert reports[0].stop_reason == "exhausted"
    assert_same_search(shipped, oracle)
    assert shipped.stats.model_cache_hits > 0


def test_interned_node_outlives_its_last_reference():
    node = E.add(E.var("intern_guard", 32), E.const(7, 32))
    first = id(node)
    del node
    gc.collect()
    kept = [n for n in E.BitVec._interned.values() if id(n) == first]
    assert len(kept) == 1
    rebuilt = E.add(E.var("intern_guard", 32), E.const(7, 32))
    assert rebuilt is kept[0] and id(rebuilt) == first


def test_solver_keeps_one_memo_per_remembered_model():
    solver = Solver()
    size = solver._model_cache_size
    x = E.var("memo_count", 8)
    for i in range(size + 8):
        assert solver.check([E.eq(x, E.const(i, 8))]).is_sat
    assert solver.stats.queries == size + 8
    assert solver.stats.model_cache_hits == 0
    memos = [memo for _model, memo in solver._recent_models]
    assert len(memos) == size
    assert len({id(memo) for memo in memos}) == size


def test_replay_evaluates_only_nodes_its_model_has_not_seen(monkeypatch):
    solver = Solver(simplify_queries=False)
    x, y = E.var("memo_x", 8), E.var("memo_y", 8)
    total = E.add(x, y)
    pinned = [E.eq(x, E.const(3, 8)), E.eq(y, E.const(4, 8))]
    shared = pinned + [E.ult(total, E.const(100, 8))]
    extended = shared + [E.ne(E.mul(total, x), E.const(0, 8))]

    def branch_nodes(conj):
        return {id(n) for c in conj for n in c.walk()
                if n.op not in (E.CONST, E.VAR)}

    evaluated = []
    eval_op = E._eval_op

    def counted(node, vals):
        evaluated.append(id(node))
        return eval_op(node, vals)

    assert solver.check(pinned).is_sat
    # The SAT answer is not trusted: the new model's memo starts empty.
    assert solver._recent_models[0][1] == {}
    monkeypatch.setattr(E, "_eval_op", counted)
    assert solver.check(shared).is_sat
    assert sorted(evaluated) == sorted(branch_nodes(shared))
    evaluated.clear()
    assert solver.check(extended).is_sat
    unseen = branch_nodes(extended) - branch_nodes(shared)
    assert len(unseen) == 3  # mul, eq, not
    assert sorted(evaluated) == sorted(unseen)
    assert solver.stats.model_cache_hits == 2
