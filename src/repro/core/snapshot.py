"""The snapshotting controller (paper §III-C).

    "This controller is in charge of saving/restoring snapshots that are
    identified by a unique identifier. ... The core of the snapshotting
    controller is part of the virtual machine and it communicates with
    target-specific snapshot controllers."

:class:`SnapshotController` is that core: it assigns snapshot ids, calls
into the target-specific mechanisms (CRIU on the simulator target, the
scan-chain IP on the FPGA target), keeps accounting, and implements
Algorithm 1's ``UpdateState``/``RestoreState`` pair.

Storage goes through the content-addressed
:class:`~repro.core.store.SnapshotStore`: each save interns the
canonical per-instance states as deduplicated chunks and records the
complete instance → chunk map, so a child snapshot costs O(changed
registers) in stored bits and a restore reads one record. The
*mechanism* cost is still the target's: a scan chain shifts its full
length; only the simulator's CRIU model prices dirty state
incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from repro.core.store import SnapshotStore
from repro.counters import Counters
from repro.targets.base import HardwareTarget, HwSnapshot
from repro.vm.state import ExecState


@dataclass
class SnapshotStats(Counters):
    saves: int = 0
    restores: int = 0
    resets: int = 0
    bits_saved: int = 0
    bits_restored: int = 0
    #: Bits actually written to storage (after chunk dedup);
    #: compare against ``bits_saved`` for the naive full-image cost.
    bits_stored: int = 0
    modelled_save_s: float = 0.0
    modelled_restore_s: float = 0.0


class SnapshotController:
    """VM-side snapshot management over one hardware target."""

    def __init__(self, target: HardwareTarget,
                 store: Optional[SnapshotStore] = None):
        self.target = target
        self.store = store if store is not None else SnapshotStore()
        self.stats = SnapshotStats()

    # -- primitive operations ---------------------------------------------------

    def save(self) -> HwSnapshot:
        """Suspend the target, capture its state, resume; assign an id
        and intern the image into the store."""
        before_s = self.target.timer.total_s
        snapshot = self.target.save_snapshot()
        store_id = self.store.next_id()
        if snapshot.snapshot_id is None:  # 0 is a valid target-assigned id
            snapshot.snapshot_id = store_id
        record = self.store.put(store_id, snapshot.states,
                                bits_of=self._instance_bits(snapshot.states))
        snapshot.record = record
        # Hand out the store's interned (immutable, shared) payloads so
        # per-fork clones are O(instances) instead of O(design).
        snapshot.states = self.store.resolve(store_id)
        self.stats.saves += 1
        self.stats.bits_saved += snapshot.bits
        self.stats.bits_stored += record.stored_bits
        self.stats.modelled_save_s += self.target.timer.total_s - before_s
        return snapshot

    def restore(self, snapshot: HwSnapshot) -> None:
        before_s = self.target.timer.total_s
        record = snapshot.record
        if record is not None and record.snapshot_id in self.store:
            snapshot.states = self.store.resolve(record.snapshot_id)
        self.target.restore_snapshot(snapshot)
        self.stats.restores += 1
        self.stats.bits_restored += snapshot.bits
        self.stats.modelled_restore_s += self.target.timer.total_s - before_s

    def reset(self) -> None:
        """Full power-on reset (the 'reboot' the baselines pay for)."""
        self.target.reset()
        self.stats.resets += 1

    # -- store plumbing -------------------------------------------------------

    def _instance_bits(self, states: Mapping[str, dict]) -> Dict[str, int]:
        return {name: self.target.instances[name].state_bits
                for name in states if name in self.target.instances}

    # -- Algorithm 1 lines 6-7 -------------------------------------------------------

    def update_state(self, state: ExecState) -> None:
        """``UpdateState(S_prev)``: re-snapshot the live hardware into the
        outgoing state (its old snapshot is superseded)."""
        state.hw_snapshot = self.save()

    def restore_state(self, state: ExecState) -> None:
        """``RestoreState(S)``: make the live hardware match the incoming
        state. A state that never owned hardware gets a fresh reset."""
        if state.hw_snapshot is None:
            self.reset()
            state.hw_snapshot = self.save()
        else:
            self.restore(state.hw_snapshot)

    # -- reporting -------------------------------------------------------------

    def stats_table(self) -> str:
        """Paper-style accounting table for the snapshot subsystem."""
        from repro.analysis.tables import format_snapshot_stats
        return format_snapshot_stats(self.stats, self.store.stats)
