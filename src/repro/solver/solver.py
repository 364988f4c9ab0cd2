"""Top-level bitvector solver used by the symbolic virtual machine.

One :class:`Solver` owns one incremental :class:`BitBlaster`. Constraints
are lowered to single SAT literals and passed as *assumptions*, never
asserted, so the same encoding serves every path-feasibility and
concretization query the executor issues — the pattern KLEE uses with its
incremental backends.

Two caches sit in front of the SAT solver, mirroring KLEE's counterexample
cache:

* a *query cache* keyed on the exact constraint set,
* a *model cache*: before solving, recent satisfying models are replayed
  against the new query, which answers most branch-feasibility checks in
  symbolic-execution workloads without touching the SAT solver. Each
  model keeps the node values it has computed, so a replay evaluates
  only nodes that model has not seen before.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.counters import Counters
from repro.errors import SolverError
from repro.solver import expr as E
from repro.solver.bitblast import FALSE_LIT, TRUE_LIT, BitBlaster
from repro.solver.simplify import simplify

SAT = "sat"
UNSAT = "unsat"


@dataclass
class CheckResult:
    """Outcome of a satisfiability query."""

    status: str
    model: Dict[E.BitVec, int] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


@dataclass
class SolverStats(Counters):
    queries: int = 0
    query_cache_hits: int = 0
    query_cache_evictions: int = 0
    model_cache_hits: int = 0
    solver_time: float = 0.0
    #: Seconds spent replaying remembered models (hits and misses).
    replay_s: float = 0.0

    def summary(self, sat: Mapping[str, int]) -> str:
        """One ``[solver]`` report line; *sat* is the SAT core's
        ``stats`` dict (:attr:`Solver.sat_stats`)."""
        return (f"[solver] queries={self.queries} query_cache_hits="
                f"{self.query_cache_hits} model_cache_hits={self.model_cache_hits}"
                f" sat_decisions={sat['decisions']} sat_conflicts="
                f"{sat['conflicts']} sat_propagations={sat['propagations']}"
                f" solver_s={self.solver_time:.3f}"
                f" replay_s={self.replay_s:.3f}")


@dataclass
class SatCounters(Counters):
    """The SAT core's search counters (:attr:`Solver.sat_stats`, which
    stays a plain dict) as a record a parallel run merges over its
    workers."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned: int = 0
    restarts: int = 0


#: Default bound on the query cache. Long campaigns (fuzzing loops, DSE
#: fork trees) issue millions of distinct feasibility queries; an
#: unbounded cache is a slow memory leak.
DEFAULT_QUERY_CACHE_SIZE = 4096


class Solver:
    """Incremental QF_BV solver with KLEE-style caching."""

    def __init__(self, model_cache_size: int = 32, simplify_queries: bool = True,
                 query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE):
        if query_cache_size < 1:
            raise SolverError("query_cache_size must be >= 1")
        self._blaster = BitBlaster()
        #: LRU-ordered: most recently used keys at the end.
        self._query_cache: "OrderedDict[frozenset, CheckResult]" = OrderedDict()
        self._query_cache_size = query_cache_size
        #: Newest first: each remembered model with its node-value memo
        #: (node id -> value), kept across queries until the model is
        #: evicted. An id never goes stale: ``BitVec._interned`` keeps
        #: every node alive for the life of the process, so no id is
        #: ever reused for another node.
        self._recent_models: List[Tuple[Dict[E.BitVec, int], Dict[int, int]]] = []
        self._model_cache_size = model_cache_size
        self._simplify = simplify_queries
        self._simplify_memo: "OrderedDict[E.BitVec, E.BitVec]" = OrderedDict()
        self.stats = SolverStats()

    @property
    def sat_stats(self) -> Dict[str, int]:
        """The SAT core's search counters (decisions, conflicts, ...)."""
        return self._blaster.sat.stats

    # -- core API -------------------------------------------------------------

    def check(self, constraints: Iterable[E.BitVec]) -> CheckResult:
        """Check the conjunction of boolean *constraints*.

        Returns a :class:`CheckResult`; on SAT the model assigns every
        variable occurring in the constraints (absent variables are
        unconstrained and reported as 0).
        """
        conj = self._normalise(constraints)
        if conj is None:
            return CheckResult(UNSAT)
        if not conj:
            return CheckResult(SAT)
        key = frozenset(conj)
        cached = self._query_cache.get(key)
        if cached is not None:
            self.stats.query_cache_hits += 1
            self._query_cache.move_to_end(key)
            return cached
        self.stats.queries += 1
        result = self._check_uncached(conj)
        self.stats.query_cache_evictions += _lru_put(
            self._query_cache, key, result, self._query_cache_size)
        return result

    def is_satisfiable(self, constraints: Iterable[E.BitVec]) -> bool:
        return self.check(constraints).is_sat

    def eval_one(self, value: E.BitVec, constraints: Iterable[E.BitVec]) -> Optional[int]:
        """One concrete value of *value* consistent with *constraints*.

        Returns None when the constraints are unsatisfiable.
        """
        if value.is_const:
            return value.value
        result = self.check(constraints)
        if not result.is_sat:
            return None
        return value.evaluate(result.model, default=0)

    def eval_upto(self, value: E.BitVec, constraints: Sequence[E.BitVec],
                  limit: int) -> List[int]:
        """Up to *limit* distinct concrete values of *value*.

        This is the completeness side of HardSnap's concretization policy:
        enumerate feasible concrete values of a symbolic expression at the
        VM boundary.
        """
        if value.is_const:
            return [value.value]
        found: List[int] = []
        extra: List[E.BitVec] = list(constraints)
        while len(found) < limit:
            got = self.eval_one(value, extra)
            if got is None:
                break
            found.append(got)
            extra.append(E.ne(value, E.const(got, value.width)))
        return found

    def must_be_true(self, cond: E.BitVec, constraints: Sequence[E.BitVec]) -> bool:
        """True when *cond* holds in every model of *constraints*."""
        return not self.is_satisfiable(list(constraints) + [E.not_(cond)])

    def may_be_true(self, cond: E.BitVec, constraints: Sequence[E.BitVec]) -> bool:
        """True when some model of *constraints* satisfies *cond*."""
        return self.is_satisfiable(list(constraints) + [cond])

    # -- internals ---------------------------------------------------------------

    def _normalise(self, constraints: Iterable[E.BitVec]) -> Optional[List[E.BitVec]]:
        """Simplify and filter a constraint set.

        Returns None when a constraint is trivially false, else a list of
        non-trivial boolean expressions.
        """
        out: List[E.BitVec] = []
        seen = set()
        for c in constraints:
            if c.width != 1:
                raise SolverError(f"constraint must be boolean, got width {c.width}")
            if self._simplify:
                c = self._simplified(c)
            if c.is_const:
                if c.value == 0:
                    return None
                continue
            if c not in seen:
                seen.add(c)
                out.append(c)
        return out

    def _check_uncached(self, conj: List[E.BitVec]) -> CheckResult:
        # Model-cache replay: any recent model satisfying all constraints
        # answers the query as SAT without search.
        start = time.perf_counter()
        model = self._replay(conj)
        self.stats.replay_s += time.perf_counter() - start
        if model is not None:
            self.stats.model_cache_hits += 1
            return CheckResult(SAT, dict(model))
        start = time.perf_counter()
        assumptions: List[int] = []
        status = SAT
        for c in conj:
            literal = self._blaster.literal_for(c)
            if literal is FALSE_LIT:
                status = UNSAT
                break
            if literal is TRUE_LIT:
                continue
            assumptions.append(literal)  # type: ignore[arg-type]
        if status == SAT:
            status = self._blaster.sat.solve(assumptions)
        self.stats.solver_time += time.perf_counter() - start
        if status == UNSAT:
            return CheckResult(UNSAT)
        model = self._extract_model(conj)
        self._remember_model(model)
        return CheckResult(SAT, model)

    def _extract_model(self, conj: List[E.BitVec]) -> Dict[E.BitVec, int]:
        model: Dict[E.BitVec, int] = {}
        for c in conj:
            for v in c.variables():
                if v not in model:
                    model[v] = self._blaster.model_value(v)
        return model

    def _simplified(self, c: E.BitVec) -> E.BitVec:
        """``simplify(c)``, memoised in an LRU of the query cache's size
        (nodes are hash-consed, so ``simplify`` is pure)."""
        done = self._simplify_memo.get(c)
        if done is None:
            done = simplify(c)
            _lru_put(self._simplify_memo, c, done, self._query_cache_size)
        else:
            self._simplify_memo.move_to_end(c)
        return done

    def _replay(self, conj: List[E.BitVec]) -> Optional[Dict[E.BitVec, int]]:
        """The newest remembered model that satisfies *conj*, or None.

        Newest constraint first: a fresh branch condition is the one a
        recent model most often fails. Each model's memo keeps the node
        values of its earlier replays, so only nodes that model has not
        seen are evaluated; variables the model lacks read as 0.
        """
        for model, memo in self._recent_models:
            for c in reversed(conj):
                value = memo.get(id(c))
                if value is None:
                    value = c.evaluate(model, 0, memo)
                if value != 1:
                    break
            else:
                return model
        return None

    def _remember_model(self, model: Dict[E.BitVec, int]) -> None:
        self._recent_models.insert(0, (model, {}))
        del self._recent_models[self._model_cache_size:]


def _lru_put(cache: "OrderedDict", key, value, size: int) -> int:
    """Insert into an LRU-ordered *cache* of at most *size* entries;
    returns 1 when that evicted the least recently used entry, else 0."""
    cache[key] = value
    if len(cache) <= size:
        return 0
    cache.popitem(last=False)
    return 1
