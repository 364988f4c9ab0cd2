"""Session configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.resilience import FaultPlan, RetryPolicy
from repro.vm.forwarding import PERFORMANCE


@dataclass
class SessionConfig:
    """Knobs for a :class:`~repro.core.hardsnap.HardSnapSession`.

    Defaults follow the paper's setup: FPGA target, HardSnap snapshot
    strategy, snapshot-affinity scheduling, performance concretization.
    """

    #: "fpga" or "simulator" (ignored when a target instance is passed).
    target: str = "fpga"
    #: "hardsnap", "naive-consistent" or "naive-inconsistent".
    strategy: str = "hardsnap"
    #: Searcher name: affinity / dfs / bfs / random / coverage.
    searcher: str = "affinity"
    #: Concretization policy mode: performance / completeness.
    concretization: str = PERFORMANCE
    #: Max values enumerated per concretization in completeness mode.
    concretization_limit: int = 8
    #: Firmware RAM size in bytes.
    ram_size: int = 64 * 1024
    #: Base of the MMIO window (everything above is forwarded).
    mmio_base: int = 0x4000_0000
    #: FPGA scan execution mode: "shift" (real RTL shifting) or
    #: "functional" (same costs, direct state move).
    scan_mode: str = "functional"
    #: Let the FPGA snapshot IP store delta-compressed streams in its
    #: SRAM (occupancy = dirty chains only; the shift still pays full
    #: price).
    sram_dedup: bool = False
    #: Run hosted designs through the repro.opt netlist optimizer
    #: before compilation (FPGA target only; the simulator target keeps
    #: full visibility and never optimizes).
    opt: bool = True
    #: Random seed for stochastic searchers.
    seed: int = 0
    #: Seeded fault schedule for the hardware link and the worker pool
    #: (None = infallible hardware, the pre-resilience behaviour).
    fault_plan: Optional[FaultPlan] = None
    #: Recovery bounds (retransmits, deadlines, respawn cap); None uses
    #: :class:`~repro.resilience.RetryPolicy` defaults.
    retry_policy: Optional[RetryPolicy] = None
