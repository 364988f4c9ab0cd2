"""State-selection heuristics (the ``SelectNextState`` of Algorithm 1).

The paper keeps KLEE's pluggable searchers and adds one constraint:
a state servicing an interrupt is *atomic* — the searcher must keep
returning it until the handler finishes (Inception's timing-violation
avoidance, §IV-B). That rule is enforced here for every heuristic.

A second, cost-aware heuristic (:class:`SnapshotAffinitySearcher`)
prefers to keep scheduling the previous state while it remains active:
every state switch costs a hardware context switch (UpdateState +
RestoreState), so batching work per state minimises snapshot traffic.
This is the searcher HardSnap-style engines default to.
"""

from __future__ import annotations

import random
from typing import List, Optional, Set

from repro.errors import VmError
from repro.vm.state import ExecState


class Searcher:
    """Base class: a mutable working set of active states."""

    #: True when :meth:`select` returns the previous state for as long
    #: as it is active, so the engine may run it until it forks or ends
    #: in one burst.
    keeps_previous = False

    def __init__(self) -> None:
        self.states: List[ExecState] = []

    def add(self, state: ExecState) -> None:
        self.states.append(state)

    def remove(self, state: ExecState) -> None:
        self.states.remove(state)

    def __len__(self) -> int:
        return len(self.states)

    def select(self, previous: Optional[ExecState]) -> ExecState:
        """Pick the next state to run; must respect interrupt atomicity."""
        if not self.states:
            raise VmError("no active states to select")
        if previous is not None and previous.in_irq and previous.is_active \
                and previous in self.states:
            return previous
        return self._pick(previous)

    def pop_next(self, previous: Optional[ExecState] = None) -> ExecState:
        """Lease hook: select the next state and remove it from the
        working set. The parallel coordinator uses this to hand states to
        workers — a leased state is exclusively owned until its lease
        result merges back (interrupt atomicity holds trivially, since
        the whole handler executes inside one lease)."""
        state = self.select(previous)
        self.remove(state)
        return state

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        raise NotImplementedError


class DfsSearcher(Searcher):
    """Depth-first: newest state first (KLEE's DFS)."""

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        return self.states[-1]


class BfsSearcher(Searcher):
    """Breadth-first: oldest state first."""

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        return self.states[0]


class RoundRobinSearcher(Searcher):
    """Rotate through active states, one quantum each.

    This is the maximally *concurrent* schedule: all paths advance in
    lockstep. It is the schedule under which the naive-and-inconsistent
    baseline exhibits the Fig. 1 corruption — and under which HardSnap's
    per-state snapshots prove their worth (one context switch per
    quantum).
    """

    def __init__(self, quantum: int = 8):
        super().__init__()
        self.quantum = max(1, quantum)
        self._remaining = 0
        self._index = 0

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        if previous is not None and previous in self.states \
                and previous.is_active and self._remaining > 0:
            self._remaining -= 1
            return previous
        self._index = (self._index + 1) % len(self.states)
        self._remaining = self.quantum - 1
        return self.states[self._index]


class RandomSearcher(Searcher):
    """Uniform random selection with a seeded generator."""

    def __init__(self, seed: int = 0):
        super().__init__()
        self.rng = random.Random(seed)

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        return self.rng.choice(self.states)


class CoverageSearcher(Searcher):
    """Prefer states whose pc has not been covered yet, then youngest.

    A cheap stand-in for KLEE's md2u/covnew heuristics: states sitting on
    unexplored code get priority, driving exploration toward new
    coverage.
    """

    def __init__(self, covered: Optional[Set[int]] = None):
        super().__init__()
        self.covered: Set[int] = covered if covered is not None else set()

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        fresh = [s for s in self.states if s.pc not in self.covered]
        pool = fresh if fresh else self.states
        return pool[-1]


class SnapshotAffinitySearcher(Searcher):
    """Keep running the previous state while it lives; DFS otherwise.

    Minimises hardware context switches: UpdateState/RestoreState only
    happen when the scheduled state actually changes (Algorithm 1 line
    5), so sticking to one state amortises snapshot costs across many
    instructions.
    """

    keeps_previous = True

    def _pick(self, previous: Optional[ExecState]) -> ExecState:
        if previous is not None and previous.is_active \
                and previous in self.states:
            return previous
        return self.states[-1]


SEARCHERS = {
    "dfs": DfsSearcher,
    "round-robin": RoundRobinSearcher,
    "bfs": BfsSearcher,
    "random": RandomSearcher,
    "coverage": CoverageSearcher,
    "affinity": SnapshotAffinitySearcher,
}


def make_searcher(name: str, **kwargs) -> Searcher:
    cls = SEARCHERS.get(name)
    if cls is None:
        raise VmError(f"unknown searcher {name!r}; have {sorted(SEARCHERS)}")
    return cls(**kwargs)
