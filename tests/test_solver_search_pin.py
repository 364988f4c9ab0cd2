"""Search-identity pin for the CDCL core and the solver's caches.

Two E0 ``dse-serial`` campaigns (``HardSnapSession``, functional scan,
netlist optimizer on, run to exhaustion) must reproduce these exact
search counters. A change to the decision order, propagation order,
clause learning or the caches moves at least one of them even when
every verdict stays right, which the brute-force oracle in
``test_solver_differential.py`` cannot see. A deliberate change to the
search updates the numbers here and says why.
"""

import pytest

from repro.core import HardSnapSession
from repro.firmware import TIMER_BASE, dispatcher, vuln_irq_race
from repro.peripherals import catalog

#: name -> (firmware, SatSolver.stats, SolverStats, len(SatSolver.clauses))
PINNED = {
    "dispatcher-16": (
        lambda: dispatcher(16, 40),
        {"decisions": 953, "propagations": 113993, "conflicts": 19,
         "learned": 17},
        {"queries": 30, "query_cache_hits": 16, "model_cache_hits": 14},
        13969),
    "vuln_irq_race": (
        vuln_irq_race,
        {"decisions": 959, "propagations": 142506, "conflicts": 68,
         "learned": 68},
        {"queries": 64, "query_cache_hits": 32, "model_cache_hits": 31},
        12303),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_counters_are_pinned(name):
    firmware, sat_expected, solver_expected, clauses = PINNED[name]
    session = HardSnapSession(firmware(), ((catalog.TIMER, TIMER_BASE),),
                              scan_mode="functional", opt=True)
    report = session.run(max_instructions=1_000_000)
    assert report.stop_reason == "exhausted"
    solver = session.solver
    assert {k: solver.sat_stats[k] for k in sat_expected} == sat_expected
    assert {k: getattr(solver.stats, k) for k in solver_expected} \
        == solver_expected
    assert len(solver._blaster.sat.clauses) == clauses
