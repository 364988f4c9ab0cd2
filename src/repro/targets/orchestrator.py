"""Multi-target orchestration (paper §III-B "Multi-target orchestration").

    "It supports state transfer from one target to another one at any
    time during the analysis... the target orchestration enables to
    start the analysis on the FPGA target and once a particular point is
    reached the FPGA state is transferred to the Verilator target."

The orchestrator keeps a registry of targets hosting the *same* set of
peripherals and moves live hardware states between them: capture on the
source (scan chain / CRIU), convert through the canonical state form,
load on the destination. It also tracks which target is *active* so a
virtual machine can route MMIO to the current one transparently.

Transfers pass through a shared content-addressed
:class:`~repro.core.store.SnapshotStore`: the captured image is interned
as canonical chunks, so repeated transfers of mostly-unchanged state
stream only the delta over the debugger link (``TransferRecord.delta_bits``),
while the destination still loads a full image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.store import SnapshotStore
from repro.errors import LinkError, TargetError
from repro.targets.base import HardwareTarget, HwSnapshot


@dataclass
class TransferRecord:
    source: str
    destination: str
    bits: int
    modelled_cost_s: float
    #: Bits that actually crossed the link after chunk dedup against
    #: earlier transfers (== ``bits`` for the first transfer).
    delta_bits: int = -1


class TargetOrchestrator:
    """Registry + state-transfer engine over interchangeable targets."""

    def __init__(self, store: Optional[SnapshotStore] = None) -> None:
        self._targets: Dict[str, HardwareTarget] = {}
        self._active: Optional[str] = None
        self.transfers: List[TransferRecord] = []
        #: Shared store deduplicating the canonical images that travel
        #: between targets (ids here are transfer ids, not snapshot ids).
        self.store = store if store is not None else SnapshotStore()

    # -- registry -----------------------------------------------------------

    def register(self, target: HardwareTarget, active: bool = False) -> None:
        if target.name in self._targets:
            raise TargetError(f"target {target.name!r} already registered")
        if self._targets:
            reference = next(iter(self._targets.values()))
            if set(reference.instances) != set(target.instances):
                raise TargetError(
                    "all registered targets must host the same instances; "
                    f"{target.name!r} differs from {reference.name!r}")
        self._targets[target.name] = target
        if active or self._active is None:
            self._active = target.name

    def target(self, name: str) -> HardwareTarget:
        target = self._targets.get(name)
        if target is None:
            raise TargetError(f"unknown target {name!r}; "
                              f"registered: {sorted(self._targets)}")
        return target

    @property
    def active(self) -> HardwareTarget:
        if self._active is None:
            raise TargetError("no target registered")
        return self._targets[self._active]

    @property
    def names(self) -> List[str]:
        return sorted(self._targets)

    # -- state transfer -------------------------------------------------------------

    def transfer(self, source: str, destination: str,
                 switch_active: bool = True) -> HwSnapshot:
        """Move the live hardware state from *source* to *destination*.

        Captures with the source's snapshot method, loads with the
        destination's, and (by default) makes the destination the active
        target. Returns the canonical snapshot that travelled.
        """
        src = self.target(source)
        dst = self.target(destination)
        if src is dst:
            raise TargetError("source and destination are the same target")
        snapshot = src.save_snapshot()
        # Intern the canonical image: chunks already seen on an earlier
        # transfer are content-identical on both sides of the link, so
        # only the delta needs to travel.
        transfer_id = self.store.next_id()
        record = self.store.put(
            transfer_id, snapshot.states,
            bits_of={name: src.instances[name].state_bits
                     for name in snapshot.states})
        snapshot.record = record
        snapshot.states = self.store.resolve(transfer_id)
        delta_bits = record.stored_bits
        # The state leaves the source's domain: a cross-target transfer
        # always streams the (delta-compressed) image over the slower of
        # the two transports.
        link = max(src.transport, dst.transport,
                   key=lambda t: t.per_access_s)
        link_cost = link.bulk_latency_s(max(delta_bits, 1))
        dst.timer.add_transport(link_cost)
        link_cost += self._retry_transfer(src, dst, link_cost)
        dst.restore_snapshot(snapshot)
        total = snapshot.modelled_cost_s + link_cost
        self.transfers.append(TransferRecord(source, destination,
                                             snapshot.bits, total,
                                             delta_bits=delta_bits))
        if switch_active:
            self._active = destination
        return snapshot

    @staticmethod
    def _retry_transfer(src: HardwareTarget, dst: HardwareTarget,
                        link_cost: float) -> float:
        """Bounded retry for cross-target transfers timing out on the
        link (decided by the destination's fault injector — it owns the
        receiving end). Each retry re-streams the delta and charges
        backoff; returns the extra modelled cost."""
        inj = dst._injector
        if inj is None:
            return 0.0
        policy = dst._retry_policy
        extra = 0.0
        attempt = 0
        while inj.roll("transfer_timeout", inj.plan.transfer_timeout_rate):
            if attempt >= policy.max_link_retries:
                raise LinkError(
                    f"transfer {src.name!r} -> {dst.name!r} timed out; "
                    f"{attempt} retries exhausted")
            backoff = policy.backoff_s(attempt)
            attempt += 1
            dst.timer.add_transport(link_cost)
            dst.timer.add_fixed(backoff)
            extra += link_cost + backoff
            dst.resilience.transfer_retries += 1
            dst.resilience.backoff_s += backoff
        return extra

    def modelled_time_s(self) -> float:
        """Total modelled time across all registered targets."""
        return sum(t.timer.total_s for t in self._targets.values())

    def active_view(self) -> "ActiveTargetView":
        """A HardwareTarget-shaped proxy that always follows the active
        target — lets an analysis engine run over the orchestrator and
        keep working across mid-analysis target switches."""
        return ActiveTargetView(self)


class ActiveTargetView:
    """Delegates the HardwareTarget surface to the orchestrator's active
    target. Attribute access (``timer``, ``instances``, ``visibility``…)
    follows the active target dynamically."""

    def __init__(self, orchestrator: TargetOrchestrator):
        object.__setattr__(self, "_orch", orchestrator)

    @property
    def _target(self) -> HardwareTarget:
        return self._orch.active

    def __getattr__(self, name: str):
        return getattr(self._target, name)

    def read(self, addr: int) -> int:
        return self._target.read(addr)

    def write(self, addr: int, value: int) -> None:
        self._target.write(addr, value)

    def step(self, cycles: int = 1) -> None:
        self._target.step(cycles)

    def irq_lines(self):
        return self._target.irq_lines()

    def reset(self) -> None:
        self._target.reset()

    def save_snapshot(self) -> HwSnapshot:
        return self._target.save_snapshot()

    def restore_snapshot(self, snapshot: HwSnapshot) -> None:
        self._target.restore_snapshot(snapshot)
