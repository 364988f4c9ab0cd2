"""The solver's model-cache replay oracle: a fresh memo per replay.

:class:`FreshReplaySolver` is :class:`repro.solver.Solver` with model-cache
replay as it was before each remembered model kept its node values: every
replay of a model evaluates the query's constraints from an empty memo.
The order is the shipped one, newest model first and newest constraint
first, and everything else (caches, bit-blaster, SAT core) is the
shipped solver's own, so a divergence lies in the kept memos. The replay
suite (``tests/test_solver_replay.py``) holds the shipped solver to the
same model, answer and counters as this oracle after every query.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.solver import Solver
from repro.solver import expr as E


class FreshReplaySolver(Solver):
    """Model-cache replay from an empty memo on every query."""

    def _replay(self, conj: List[E.BitVec]) -> Optional[Dict[E.BitVec, int]]:
        for model, _kept in self._recent_models:
            memo: Dict[int, int] = {}
            if all(c.evaluate(model, 0, memo) == 1 for c in reversed(conj)):
                return model
        return None
