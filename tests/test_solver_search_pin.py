"""Search-identity pin for the CDCL core and the solver's caches.

Three E0 ``dse-serial`` campaigns (``HardSnapSession``, functional scan,
netlist optimizer on, run to exhaustion) must reproduce these exact
search counters. A change to the decision order, propagation order,
clause learning, the caches or the word-level rewrites in front of the
bit-blaster moves at least one of them even when every verdict stays
right, which the brute-force oracle in ``test_solver_differential.py``
cannot see. A deliberate change to the search updates the numbers here
and says why. The word-level rewrites leave ``vuln_buffer_overflow``
at 32 conflicts, so conflict analysis stays pinned now that
``dispatcher-16`` no longer conflicts at all.
"""

import pytest

from repro.core import HardSnapSession
from repro.firmware import (TIMER_BASE, UART_BASE, dispatcher,
                            vuln_buffer_overflow, vuln_irq_race)
from repro.peripherals import catalog

TIMER = ((catalog.TIMER, TIMER_BASE),)
UART = ((catalog.UART, UART_BASE),)

#: name -> (firmware, peripherals, SatSolver.stats, SolverStats,
#: len(SatSolver.clauses))
PINNED = {
    "dispatcher-16": (
        lambda: dispatcher(16, 40), TIMER,
        {"decisions": 454, "propagations": 300, "conflicts": 0,
         "learned": 0},
        {"queries": 30, "query_cache_hits": 16, "model_cache_hits": 14},
        135),
    "vuln_irq_race": (
        vuln_irq_race, TIMER,
        {"decisions": 887, "propagations": 2062, "conflicts": 16,
         "learned": 16},
        {"queries": 64, "query_cache_hits": 32, "model_cache_hits": 31},
        400),
    "vuln_buffer_overflow": (
        vuln_buffer_overflow, UART,
        {"decisions": 1705, "propagations": 9661, "conflicts": 32,
         "learned": 32},
        {"queries": 128, "query_cache_hits": 64, "model_cache_hits": 63},
        992),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_search_counters_are_pinned(name):
    firmware, peripherals, sat_expected, solver_expected, clauses = \
        PINNED[name]
    session = HardSnapSession(firmware(), peripherals,
                              scan_mode="functional", opt=True)
    report = session.run(max_instructions=1_000_000)
    assert report.stop_reason == "exhausted"
    solver = session.solver
    assert {k: solver.sat_stats[k] for k in sat_expected} == sat_expected
    assert {k: getattr(solver.stats, k) for k in solver_expected} \
        == solver_expected
    assert len(solver._blaster.sat.clauses) == clauses
