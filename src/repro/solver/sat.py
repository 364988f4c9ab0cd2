"""A CDCL SAT solver.

This is the decision core underneath the bitvector solver: clauses arrive
from the Tseitin encoder in :mod:`repro.solver.bitblast`. The implementation
follows the MiniSat lineage:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style exponential variable activities with decay, with the
  decision order kept in a lazy heap,
* phase saving,
* Luby-sequence restarts,
* incremental solving under assumptions (used by the BV solver to reuse
  one encoding across many branch-feasibility queries).

Literal encoding: variable ``v`` (1-based) has positive literal ``2*v`` and
negative literal ``2*v + 1``; ``lit ^ 1`` negates and ``lit >> 1`` is the
variable. Both the assignment and the watch lists are flat Python lists
indexed by literal, so the propagation loop does no per-literal calls.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Iterable, List, Optional

SAT = "sat"
UNSAT = "unsat"


def lit(variable: int, positive: bool = True) -> int:
    """Build a literal for a 1-based variable index."""
    return variable * 2 + (0 if positive else 1)


def _luby(x: int) -> int:
    """The x-th element (0-based) of the Luby restart sequence.

    Iterative formulation from MiniSat: find the finite subsequence that
    contains index ``x`` and the position of ``x`` within it.
    """
    size = 1
    seq = 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class SatSolver:
    """CDCL solver over clauses of integer literals."""

    def __init__(self, restart_base: int = 100, activity_decay: float = 0.95):
        self.num_vars = 0
        self.clauses: List[List[int]] = []
        # value[l]: None unassigned, else whether literal l is true.
        # Slots 0 and 1 belong to the unused variable 0.
        self.value: List[Optional[bool]] = [None, None]
        self.level: List[int] = [0]
        self.reason: List[Optional[List[int]]] = [None]
        self.activity: List[float] = [0.0]
        self.phase: List[bool] = [False]
        # watches[l]: clauses watching ``l ^ 1``, visited when l becomes true.
        self.watches: List[List[List[int]]] = [[], []]
        # Decision order: a lazy heap of (-activity, var). in_heap[v]: v has
        # an entry with its current activity (other entries of v are stale
        # and dropped when popped); every unassigned variable has one.
        self.order: List[tuple[float, int]] = []
        self.in_heap: List[bool] = [False]
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.prop_head = 0
        self.var_inc = 1.0
        self.activity_decay = activity_decay
        self.restart_base = restart_base
        self.ok = True
        self._model: List[Optional[bool]] = []
        # statistics
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                      "learned": 0, "restarts": 0}

    # -- variable / clause management --------------------------------------

    def new_var(self) -> int:
        """Allocate a fresh variable, returning its 1-based index."""
        self.num_vars += 1
        v = self.num_vars
        self.value += (None, None)
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.watches += ([], [])
        self.in_heap.append(True)
        heappush(self.order, (-0.0, v))
        return v

    def ensure_vars(self, n: int) -> None:
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Must be called at decision level 0.
        """
        assert not self.trail_lim, "add_clause only at level 0"
        value = self.value
        clause: List[int] = []
        for l in literals:
            if l ^ 1 in clause:
                return True  # tautology
            if l in clause:
                continue
            current = value[l]
            if current is True:
                return True  # already satisfied at level 0
            if current is False:
                continue  # falsified at level 0: drop the literal
            clause.append(l)
        if not clause:
            self.ok = False
            return False
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self.ok = False
                return False
            return True
        self.clauses.append(clause)
        self._watch_clause(clause)
        return True

    def _watch_clause(self, clause: List[int]) -> None:
        self.watches[clause[0] ^ 1].append(clause)
        self.watches[clause[1] ^ 1].append(clause)

    # -- assignment ------------------------------------------------------------

    def _enqueue(self, literal: int, reason: Optional[List[int]]) -> bool:
        value = self.value
        current = value[literal]
        if current is not None:
            return current
        value[literal] = True
        value[literal ^ 1] = False
        v = literal >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(literal)
        return True

    # -- propagation ---------------------------------------------------------

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        value, watches, trail = self.value, self.watches, self.trail
        level, reason = self.level, self.reason
        current_level = len(self.trail_lim)
        head = self.prop_head
        propagations = 0
        conflict = None
        while head < len(trail):
            p = trail[head]
            head += 1
            false_lit = p ^ 1
            kept: List[List[int]] = []
            watchers = iter(watches[p])
            watches[p] = kept
            for clause in watchers:
                # Normalise: ensure the falsified watch is clause[1].
                first = clause[0]
                if first == false_lit:
                    first = clause[0] = clause[1]
                    clause[1] = false_lit
                if value[first] is True:
                    kept.append(clause)
                    continue
                # Look for a new literal to watch.
                for other in clause[2:]:
                    if value[other] is not False:
                        clause[clause.index(other, 2)] = false_lit
                        clause[1] = other
                        watches[other ^ 1].append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    kept.append(clause)
                    propagations += 1
                    if value[first] is False:
                        # Conflict: restore remaining watchers.
                        kept.extend(watchers)
                        conflict = clause
                        break
                    value[first] = True
                    value[first ^ 1] = False
                    v = first >> 1
                    level[v] = current_level
                    reason[v] = clause
                    trail.append(first)
            if conflict is not None:
                break
        self.prop_head = head
        self.stats["propagations"] += propagations
        return conflict

    # -- conflict analysis -----------------------------------------------------

    def _bump(self, v: int) -> None:
        activity = self.activity
        activity[v] += self.var_inc
        if activity[v] > 1e100:
            for i in range(1, self.num_vars + 1):
                activity[i] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_order()
        elif self.in_heap[v]:
            heappush(self.order, (-activity[v], v))

    def _rebuild_order(self) -> None:
        """Re-key the order heap from the current activities, dropping
        every stale entry."""
        activity = self.activity
        self.order = [(-activity[v], v) for v in range(1, self.num_vars + 1)
                      if self.in_heap[v]]
        heapify(self.order)

    def _analyze(self, conflict: List[int]) -> tuple[List[int], int]:
        """First-UIP analysis. Returns (learned clause, backjump level)."""
        level = self.level
        trail = self.trail
        learned: List[int] = [0]  # slot 0 reserved for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None
        index = len(trail) - 1
        clause: Optional[List[int]] = conflict
        current_level = len(self.trail_lim)
        while True:
            assert clause is not None
            start = 0 if p is None else 1
            for q in clause[start:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if level[v] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next literal on the trail to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            p = trail[index]
            v = p >> 1
            clause = self.reason[v]
            seen[v] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            # The resolved clause has p as clause[0]; skip it via start=1.
            if clause is not None and clause[0] != p:
                clause = [p] + [l for l in clause if l != p]
        learned[0] = p ^ 1  # type: ignore[operator]
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the learned clause.
        max_i = 1
        for i in range(2, len(learned)):
            if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, level[learned[1] >> 1]

    def _cancel_until(self, target_level: int) -> None:
        if len(self.trail_lim) <= target_level:
            return
        value, phase, trail = self.value, self.phase, self.trail
        activity, in_heap, order = self.activity, self.in_heap, self.order
        bound = self.trail_lim[target_level]
        # Reasons of unassigned variables are never read, so they stay.
        for literal in trail[bound:]:
            v = literal >> 1
            phase[v] = not literal & 1
            value[literal] = value[literal ^ 1] = None
            if not in_heap[v]:
                in_heap[v] = True
                heappush(order, (-activity[v], v))
        del trail[bound:]
        del self.trail_lim[target_level:]
        self.prop_head = len(trail)

    def _pick_branch_var(self) -> Optional[int]:
        """The unassigned variable of highest activity, lowest index first
        on ties (the heap's tuple order)."""
        order, activity, in_heap, value = self.order, self.activity, self.in_heap, self.value
        while order:
            key, v = heappop(order)
            if -key != activity[v]:
                continue  # stale: v has a newer entry
            in_heap[v] = False
            if value[2 * v] is None:
                return v
        return None

    # -- main search -------------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> str:
        """Solve under *assumptions* (a sequence of literals).

        Returns :data:`SAT` or :data:`UNSAT`. On SAT, :meth:`model_value`
        reads the model. The solver state is reset to level 0 afterwards so
        it can be reused incrementally.
        """
        if not self.ok:
            return UNSAT
        assumptions = list(assumptions)
        result = self._search(assumptions)
        self._cancel_until(0)
        return result

    def _search(self, assumptions: List[int]) -> str:
        conflicts_until_restart = self.restart_base * _luby(0)
        restart_count = 1
        conflict_count = 0
        self._model = []
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflict_count += 1
                if not self.trail_lim:
                    self.ok = False
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                self._cancel_until(back_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None):
                        return UNSAT
                else:
                    self.clauses.append(learned)
                    self._watch_clause(learned)
                    self.stats["learned"] += 1
                    self._enqueue(learned[0], learned)
                self.var_inc /= self.activity_decay
                if len(self.order) > 2 * self.num_vars:
                    self._rebuild_order()  # bound the stale entries
                if conflict_count >= conflicts_until_restart:
                    self.stats["restarts"] += 1
                    restart_count += 1
                    conflicts_until_restart = self.restart_base * _luby(restart_count)
                    conflict_count = 0
                    self._cancel_until(min(len(self.trail_lim), len(assumptions)))
                continue
            # Place pending assumptions as decisions.
            placed_all, failed = self._place_assumptions(assumptions)
            if failed:
                return UNSAT
            if not placed_all:
                continue
            v = self._pick_branch_var()
            if v is None:
                self._model = self.value[:]
                return SAT
            self.stats["decisions"] += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit(v, self.phase[v]), None)

    def _place_assumptions(self, assumptions: List[int]) -> tuple[bool, bool]:
        """Ensure the next unplaced assumption becomes a decision.

        Returns (all_placed, conflict_with_assumption).
        """
        while len(self.trail_lim) < len(assumptions):
            a = assumptions[len(self.trail_lim)]
            value = self.value[a]
            if value is True:
                # Already implied: open an empty decision level so the
                # level-to-assumption indexing stays aligned.
                self.trail_lim.append(len(self.trail))
                continue
            if value is False:
                return False, True
            self.trail_lim.append(len(self.trail))
            self._enqueue(a, None)
            return False, False  # propagate before placing more
        return True, False

    # -- model access ----------------------------------------------------------

    def model_value(self, variable: int) -> bool:
        """Value of *variable* in the last SAT model (False if unassigned)."""
        literal = 2 * variable
        return literal < len(self._model) and self._model[literal] is True
