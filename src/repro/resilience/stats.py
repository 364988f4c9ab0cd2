"""Resilience accounting: what the recovery machinery actually did.

One mergeable record, kept per target (link-layer events) and per pool
(worker-lifecycle events), then rolled up into
:class:`~repro.core.engine.AnalysisReport` /
:class:`~repro.core.fuzzer.FuzzReport`. Deliberately *excluded* from
``verdict_summary()`` — how many retries a run needed is
schedule-dependent; what it concluded is not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.counters import Counters


@dataclass
class ResilienceStats(Counters):
    """Counts of recovery events (sum-mergeable; ``degraded`` ORs)."""

    #: Scan-shift retransmits after CRC mismatch / drop / stall.
    link_retries: int = 0
    #: MMIO accesses retransmitted after a lost response.
    mmio_retries: int = 0
    #: Cross-target transfer retries after a timeout.
    transfer_retries: int = 0
    #: Link stalls detected (a subset of the retries above).
    stalls: int = 0
    #: Pre-operation link health checks performed.
    health_checks: int = 0
    #: Link reconnects (health check found the link down).
    reconnects: int = 0
    #: Snapshot integrity digests verified on restore/load.
    integrity_checks: int = 0
    #: Modelled backoff time charged by all retry loops.
    backoff_s: float = 0.0
    #: Worker processes respawned after a crash.
    worker_respawns: int = 0
    #: Jobs re-issued (after a worker death or a missed deadline).
    lease_reissues: int = 0
    #: Duplicate result messages discarded by the coordinator.
    duplicate_results: int = 0
    #: True once the pool was exhausted and the run fell back to
    #: in-process execution.
    degraded: bool = False

    @property
    def any(self) -> bool:
        """True when any recovery event occurred."""
        return any(self.as_dict().values())

    def summary(self) -> str:
        parts = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                 if f.name not in ("backoff_s", "degraded")
                 and getattr(self, f.name)]
        if self.backoff_s:
            parts.append(f"backoff={self.backoff_s:.2e}s")
        if self.degraded:
            parts.append("DEGRADED")
        return "[resilience] " + (" ".join(parts) if parts else "clean")
