"""Regeneration of the paper's Table I: comparison with related work.

The table is qualitative — a feature matrix over the dynamic-analysis
approaches for embedded systems. We regenerate it from a structured
registry (rather than a hard-coded string) and additionally *verify the
HardSnap column against the implementation*: each claimed capability maps
to a predicate evaluated on this library (see
``benchmarks/test_table1_comparison.py``).

Legend (as in the paper): abstraction level L = Logical (RTL), P =
Physical, B = Behavioral; check = yes, cross = no, n/a = not applicable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.tables import format_table

YES = "yes"
NO = "no"
NA = "n/a"
PARTIAL = "limited"

ROWS = [
    "Abstraction Level",
    "Symbolic Execution",
    "Full Visibility",
    "Full Controllability",
    "Ensure HW/SW Consistency",
    "Automated Peripheral Modeling",
    "Fast Forwarding",
    "Open-source",
]


@dataclass
class Approach:
    name: str
    category: str
    abstraction: str
    symbolic: str
    visibility: str
    controllability: str
    consistency: str
    auto_modeling: str
    fast_forwarding: str
    open_source: str

    def column(self) -> List[str]:
        return [self.abstraction, self.symbolic, self.visibility,
                self.controllability, self.consistency, self.auto_modeling,
                self.fast_forwarding, self.open_source]


APPROACHES: List[Approach] = [
    Approach("S2E", "full-emulation", "B", YES, YES, YES, YES, NO, PARTIAL,
             YES),
    Approach("QEMU+SystemC", "full-emulation", "B/L", NO, YES, YES, NA, NO,
             YES, YES),
    Approach("P2IM", "over-approx", "B", NO, NO, NO, NA, YES, NA, YES),
    Approach("HALucinator", "sub-approx", "B", NO, NO, NO, NA, YES, NA, YES),
    Approach("Pretender", "sub-approx", "B", NO, NO, NO, NA, YES, NA, YES),
    Approach("Avatar", "partial-emulation", "B/P", YES, NO, NO, NO, NO, NO,
             YES),
    Approach("Inception", "partial-emulation", "P", YES, NO, NO, NO, NA, YES,
             YES),
    Approach("Surrogates", "partial-emulation", "P", NO, NO, NO, NA, NA,
             PARTIAL, YES),
    Approach("Verilator", "simulation", "L", NO, YES, YES, NA, YES, NA, YES),
    Approach("FPGA", "emulation", "P", NO, NO, NO, NA, YES, NA, NA),
    Approach("HardSnap", "hybrid", "B/L/P", YES, YES, YES, YES, YES, YES,
             YES),
]


def hardsnap_capability_predicates() -> Dict[str, str]:
    """Map each HardSnap Table-I claim to the module that realises it —
    the benchmark evaluates these imports/behaviours."""
    return {
        "Symbolic Execution": "repro.vm.executor.SymbolicExecutor",
        "Full Visibility": "repro.targets.simulator.SimulatorTarget.peek",
        "Full Controllability":
            "repro.instrument.scan_chain.insert_scan_chain",
        "Ensure HW/SW Consistency": "repro.core.engine.SnapshotStrategy",
        "Automated Peripheral Modeling": "repro.hdl.elaborator.elaborate",
        "Fast Forwarding": "repro.targets.orchestrator.TargetOrchestrator",
        "Open-source": "repro",
    }


def render() -> str:
    headers = ["feature"] + [a.name for a in APPROACHES]
    rows = []
    for i, row_name in enumerate(ROWS):
        rows.append([row_name] + [a.column()[i] for a in APPROACHES])
    return format_table(headers, rows,
                        title="Table I: comparison with related work")
