"""The content-addressed snapshot store + controller integration.

Covers three layers:

* the store itself (chunk dedup, complete records, one shared image per
  record),
* the snapshot controller over it (id assignment — including the valid
  id 0 — symmetric cost accounting, saves after out-of-band target
  snapshots),
* property-style round trips: a restore from the store must be
  bit-identical to the full image captured at save time on every target
  and across targets (orchestrator transfer).
"""

import json
import random

import pytest

from repro.core.snapshot import SnapshotController
from repro.core.store import SnapshotStore, chunk_digest
from repro.errors import SnapshotError
from repro.peripherals import catalog
from repro.targets import (FpgaTarget, SimulatorTarget, TargetOrchestrator)
from repro.targets.base import HwSnapshot

BASE = 0x4000_0000
TIMER_CTRL = BASE + 0x00
TIMER_LOAD = BASE + 0x04
GPIO_BASE = 0x4001_0000
GPIO_DIR = GPIO_BASE + 0x00
GPIO_OUT = GPIO_BASE + 0x04


def _bits_of(states):
    return {name: 1 for name in states}


# ---------------------------------------------------------------------------
# chunk_digest
# ---------------------------------------------------------------------------

def test_digest_is_insertion_order_independent():
    a = {"nets": {"x": 1, "y": 2}, "cycle": 3, "memories": {}}
    b = {"memories": {}, "cycle": 3, "nets": {"y": 2, "x": 1}}
    assert chunk_digest(a) == chunk_digest(b)


def test_digest_distinguishes_values():
    a = {"nets": {"x": 1}, "cycle": 0, "memories": {}}
    b = {"nets": {"x": 2}, "cycle": 0, "memories": {}}
    assert chunk_digest(a) != chunk_digest(b)


# ---------------------------------------------------------------------------
# store mechanics
# ---------------------------------------------------------------------------

def _state(v):
    return {"cycle": 0, "nets": {"r": v}, "memories": {}}


def test_identical_states_share_one_chunk():
    store = SnapshotStore()
    store.put(1, {"a": _state(7), "b": _state(7)}, {"a": 8, "b": 8})
    assert store.stats.chunks == 1
    assert store.stats.chunk_hits == 1
    assert store.stats.stored_bits == 8
    assert store.stats.logical_bits == 16


def test_child_stores_only_changed_instances():
    """A child record lists every instance, but only the changed one
    adds a chunk: the unchanged one maps to its parent's chunk."""
    store = SnapshotStore()
    states = {"a": _state(1), "b": _state(2)}
    parent = store.put(1, states, {"a": 8, "b": 8})
    child = dict(states, a=_state(99))
    record = store.put(2, child, {"a": 8, "b": 8})
    assert set(record.chunk_map) == {"a", "b"}
    assert record.chunk_map["b"] == parent.chunk_map["b"]
    assert record.stored_bits == 8  # only the new chunk
    assert store.stats.chunks == 3
    assert store.resolve(2) == child


def test_deep_lineage_records_stay_complete():
    """However long the lineage, each record holds every instance's
    digest and cycle, so every record resolves on its own."""
    store = SnapshotStore()
    first = store.put(1, {"a": _state(0), "b": _state(0)},
                      {"a": 8, "b": 8})
    for i in range(2, 12):
        record = store.put(i, {"a": _state(i), "b": _state(0)},
                           {"a": 8, "b": 8})
        assert record.chunk_map["b"] == first.chunk_map["b"]
        assert set(record.cycle_map) == {"a", "b"}
    # One chunk per distinct state value (the first "a" and "b" are
    # identical → shared).
    assert store.stats.chunks == 11
    for i in range(2, 12):
        assert store.resolve(i) == {"a": _state(i), "b": _state(0)}


def test_cycle_only_movement_stores_no_new_chunks():
    """Lockstep time advances every instance's cycle counter on any
    activity; that alone must not defeat dedup — yet the cycle must
    round-trip exactly."""
    store = SnapshotStore()
    s0 = {"cycle": 10, "nets": {"r": 5}, "memories": {}}
    s1 = {"cycle": 99, "nets": {"r": 5}, "memories": {}}  # idle, just later
    store.put(1, {"a": s0}, {"a": 8})
    record = store.put(2, {"a": s1}, {"a": 8})
    assert record.stored_bits == 0  # same register content, shared chunk
    assert store.resolve(1)["a"]["cycle"] == 10
    assert store.resolve(2)["a"]["cycle"] == 99
    assert store.resolve(2)["a"]["nets"] == {"r": 5}


def test_duplicate_id_rejected():
    store = SnapshotStore()
    store.put(1, {"a": _state(0)}, {"a": 8})
    with pytest.raises(SnapshotError):
        store.put(1, {"a": _state(1)}, {"a": 8})


def test_resolve_returns_one_image_per_record():
    """Records never change, so a record resolves to one shared image;
    an unknown record raises instead of resolving to anything."""
    store = SnapshotStore()
    store.put(1, {"a": _state(1)}, {"a": 8})
    store.put(2, {"a": _state(2)}, {"a": 8})
    image = store.resolve(2)
    assert image == {"a": _state(2)}
    assert store.resolve(2) is image
    assert store.stats.resolves == 2
    assert store.resolve(1) == {"a": _state(1)}
    with pytest.raises(SnapshotError):
        store.resolve(3)


def test_shared_store_ids_never_collide():
    store = SnapshotStore()
    a = store.next_id()
    b = store.next_id()
    assert a != b


# ---------------------------------------------------------------------------
# controller: ids + accounting (the two satellite bugfixes)
# ---------------------------------------------------------------------------

class _ZeroSlotTarget(SimulatorTarget):
    """A target whose mechanism assigns snapshot id 0 (a valid slot)."""

    def save_snapshot(self) -> HwSnapshot:
        snapshot = super().save_snapshot()
        snapshot.snapshot_id = 0
        return snapshot


def test_target_assigned_id_zero_is_preserved():
    target = _ZeroSlotTarget()
    target.add_peripheral(catalog.TIMER, BASE)
    target.reset()
    snapshot = SnapshotController(target).save()
    assert snapshot.snapshot_id == 0  # not clobbered by `or next(ids)`


def test_save_and_restore_costs_both_use_timer_delta():
    target = SimulatorTarget()
    target.add_peripheral(catalog.TIMER, BASE)
    target.reset()
    controller = SnapshotController(target)
    snapshot = controller.save()
    controller.restore(snapshot)
    # Both directions account exactly the mechanism's modelled time.
    assert controller.stats.modelled_save_s == \
        pytest.approx(snapshot.modelled_cost_s)
    assert controller.stats.modelled_restore_s == \
        pytest.approx(target.criu.restore_s(snapshot.bits))


def test_untouched_hardware_dedups_to_zero_new_bits():
    target = SimulatorTarget()
    target.add_peripheral(catalog.TIMER, BASE)
    target.reset()
    controller = SnapshotController(target)
    first = controller.save()
    second = controller.save()  # nothing ran in between
    assert second.record.stored_bits == 0
    assert second.record.chunk_map == first.record.chunk_map


def test_incremental_criu_pricing():
    target = SimulatorTarget()
    target.add_peripheral(catalog.SHA256, BASE)
    target.reset()
    controller = SnapshotController(target)
    first = controller.save()
    target.write(TIMER_CTRL, 1)  # touch the peripheral a little
    second = controller.save()
    # Dirty-page tracking armed: the second dump streams the small
    # incremental image, not the whole process image.
    assert second.modelled_cost_s < first.modelled_cost_s
    dirty_bits = sum(instance.state_bits
                     for instance in target.instances.values())
    assert second.modelled_cost_s == \
        pytest.approx(target.criu.incremental_checkpoint_s(dirty_bits))
    controller.reset()
    third = controller.save()  # process restarted: full dump again
    assert third.modelled_cost_s == pytest.approx(first.modelled_cost_s)


# ---------------------------------------------------------------------------
# round-trip equivalence (property-style)
# ---------------------------------------------------------------------------

def _make_target(kind):
    if kind == "simulator":
        target = SimulatorTarget()
    else:
        target = FpgaTarget(scan_mode=kind)
    target.add_peripheral(catalog.TIMER, BASE)
    target.add_peripheral(catalog.GPIO, GPIO_BASE)
    target.reset()
    return target


def _poke_randomly(target, rng, ops=4):
    for _ in range(ops):
        choice = rng.randrange(4)
        if choice == 0:
            target.write(TIMER_LOAD, rng.randrange(1 << 16))
        elif choice == 1:
            target.write(TIMER_CTRL, rng.randrange(16))
        elif choice == 2:
            target.write(GPIO_OUT, rng.randrange(1 << 32))
        else:
            target.step(rng.randrange(1, 8))


def _frozen(states):
    """Deep, mutation-proof copy of a canonical state map."""
    return json.loads(json.dumps(states, sort_keys=True))


def _live_canonical(target):
    """The live hardware state in canonical form, read directly (no
    capture mechanism — a physical scan shift would advance time)."""
    out = {}
    for name, instance in target.instances.items():
        state = instance.sim.save_state()
        if hasattr(target, "_strip_scan_artifacts"):
            state = target._strip_scan_artifacts(instance, state)
        out[name] = state
    return out


@pytest.mark.parametrize("kind", ["simulator", "functional", "shift"])
def test_delta_chain_restore_is_bit_identical(kind):
    """Save a chain of snapshots, each put against the one before it,
    under random activity, then restore each in random order: the
    resolved image must equal the full image recorded at save time, and
    the hardware must actually reach that state (verified by an
    independent re-capture)."""
    rng = random.Random(1234)
    target = _make_target(kind)
    controller = SnapshotController(target)
    saved = []
    for _ in range(12):
        _poke_randomly(target, rng)
        snapshot = controller.save()
        saved.append((snapshot, _frozen(snapshot.states)))
    order = list(range(len(saved)))
    rng.shuffle(order)
    for i in order:
        snapshot, full_image = saved[i]
        controller.restore(snapshot)
        # The store's image is bit-identical.
        assert _frozen(snapshot.states) == full_image
        # And the live hardware actually holds that state.
        assert _frozen(_live_canonical(target)) == full_image


def _bodies(states):
    """The canonical state map without its cycle counters."""
    return {name: {k: v for k, v in state.items() if k != "cycle"}
            for name, state in _frozen(states).items()}


@pytest.mark.parametrize("kind", ["simulator", "functional", "shift"])
def test_out_of_band_save_and_restore_reach_the_next_record(kind,
                                                            monkeypatch):
    """Behind the controller's back: snapshot, mutate, restore. The
    restore leaves every sim's state version moved and its capture
    cache holding the out-of-band image, yet the controller's next
    record resolves bit-identically to what the target captures."""
    target = _make_target(kind)
    controller = SnapshotController(target)
    first = controller.save()
    target.write(GPIO_OUT, 0x11)
    target.write(TIMER_LOAD, 0x1234)
    stale = target.save_snapshot()
    stale_bodies = _bodies(stale.states)
    target.write(GPIO_OUT, 0x22)
    target.step(3)
    target.restore_snapshot(stale)
    captured = []
    save_snapshot = target.save_snapshot

    def raw_save():
        raw = save_snapshot()
        captured.append(_frozen(raw.states))
        return raw
    monkeypatch.setattr(target, "save_snapshot", raw_save)
    record = controller.save().record
    image = _frozen(controller.store.resolve(record.snapshot_id))
    assert image == captured[0]
    # The hardware holds the out-of-band image, not the first record's.
    assert _bodies(image) == stale_bodies
    assert _bodies(image) != _bodies(first.states)


def test_store_backed_clone_is_cheap_and_identical():
    target = _make_target("functional")
    controller = SnapshotController(target)
    target.write(TIMER_LOAD, 77)
    snapshot = controller.save()
    clone = snapshot.clone()
    assert clone.states == snapshot.states
    # Shared immutable chunks, not deep copies.
    for name in snapshot.states:
        assert clone.states[name] is snapshot.states[name]


def test_readback_capture_matches_scan_canonical_form():
    target = _make_target("functional")
    target.write(TIMER_LOAD, 123)
    target.write(GPIO_OUT, 0xA5)
    scan = target.save_snapshot()
    readback = target.readback_snapshot()
    # Same canonical content → same chunk digests → full store dedup.
    for name in scan.states:
        assert chunk_digest(scan.states[name]) == \
            chunk_digest(readback.states[name])
    store = SnapshotStore()
    store.put(1, scan.states, _bits_of(scan.states))
    store.put(2, readback.states, _bits_of(readback.states))
    assert store.record(2).stored_bits == 0


def test_cross_target_transfer_round_trips_through_store():
    rng = random.Random(99)
    fpga = _make_target("functional")
    sim = SimulatorTarget()
    sim.add_peripheral(catalog.TIMER, BASE)
    sim.add_peripheral(catalog.GPIO, GPIO_BASE)
    sim.reset()
    orch = TargetOrchestrator()
    orch.register(fpga, active=True)
    orch.register(sim)

    _poke_randomly(fpga, rng)
    first = orch.transfer("fpga", "simulator")
    assert _frozen(_live_canonical(sim)) == _frozen(first.states)
    # First transfer: everything is new, the full image crosses.
    assert orch.transfers[0].delta_bits == first.record.logical_bits

    # Back-transfer with no intervening activity: the image dedups
    # against the first transfer and only the delta crosses the link.
    second = orch.transfer("simulator", "fpga")
    assert _frozen(second.states) == _frozen(first.states)
    assert orch.transfers[1].delta_bits == 0
    assert _frozen(_live_canonical(fpga)) == _frozen(first.states)
