"""Bulk scan capture/load ("shift") vs the per-bit reference oracle
(:class:`tests.scan_oracle.PerBitScanTarget`).

The bulk path models the whole chain rotation in one step — identical
modelled cost (chain_length cycles through the scan ports), identical
canonical state, identical post-restore behavior — it just skips the
O(L) per-bit Python loop. These tests pin the equivalence over every
catalog peripheral."""

import pytest

from repro.errors import TargetError
from repro.peripherals import catalog
from repro.targets import FpgaTarget
from tests.scan_oracle import PerBitScanTarget

BASE = 0x4000_0000


def _target(spec, cls=FpgaTarget):
    target = cls()
    target.add_peripheral(spec, BASE)
    target.reset()
    return target


def _pair(spec):
    """The shipped bulk-shift target and the per-bit oracle."""
    return _target(spec), _target(spec, PerBitScanTarget)


def _stimulate(target):
    """Deterministic activity: program a few window registers, run."""
    target.step(3)
    for offset in (0x0, 0x4, 0x8):
        target.write(BASE + offset, 0xA5A5_0000 | offset)
    target.step(5)
    target.read(BASE + 0x0)
    target.step(2)


def _observable(target):
    """Everything the canonical state covers, read per instance."""
    out = {}
    for name, instance in target.instances.items():
        sim = instance.sim
        out[name] = ({k: v for k, v in sim.values.items()
                      if not k.startswith("scan_")},
                     {k: list(v) for k, v in sim.memories.items()
                      if not k.startswith("scan_")},
                     sim.cycle)
    return out


@pytest.mark.parametrize("spec", catalog.CORPUS, ids=lambda s: s.name)
class TestBulkScanEquivalence:
    def test_capture_matches_perbit(self, spec):
        bulk, perbit = _pair(spec)
        _stimulate(bulk)
        _stimulate(perbit)
        s_bulk, s_perbit = bulk.save_snapshot(), perbit.save_snapshot()
        # Same canonical state, bit for bit...
        assert s_bulk.states == s_perbit.states
        # ...same modelled cost (same chain rotation, same scan ports)...
        assert s_bulk.bits == s_perbit.bits
        assert s_bulk.modelled_cost_s == s_perbit.modelled_cost_s
        assert s_bulk.method == s_perbit.method == "scan"
        # ...and both paid the scan-out cycles on the live hardware.
        assert _observable(bulk) == _observable(perbit)

    def test_restore_matches_perbit(self, spec):
        bulk, perbit = _pair(spec)
        _stimulate(bulk)
        _stimulate(perbit)
        snapshot = bulk.save_snapshot()
        # Diverge both targets, then restore the same snapshot each way.
        for target in (bulk, perbit):
            target.write(BASE + 0x0, 0xDEAD_BEEF)
            target.step(9)
        bulk.restore_snapshot(snapshot)
        perbit.restore_snapshot(snapshot.clone())
        assert _observable(bulk) == _observable(perbit)
        assert bulk.irq_lines() == perbit.irq_lines()

    def test_post_restore_behavior_identical(self, spec):
        bulk, perbit = _pair(spec)
        _stimulate(bulk)
        _stimulate(perbit)
        snap_b, snap_p = bulk.save_snapshot(), perbit.save_snapshot()
        bulk.restore_snapshot(snap_b)
        perbit.restore_snapshot(snap_p)
        # The restored machines must run on identically.
        for target in (bulk, perbit):
            target.step(4)
            target.write(BASE + 0x4, 0x1234)
            target.step(4)
        assert _observable(bulk) == _observable(perbit)
        assert [bulk.read(BASE + o) for o in (0x0, 0x4, 0x8)] == \
            [perbit.read(BASE + o) for o in (0x0, 0x4, 0x8)]


def test_unknown_scan_mode_rejected():
    for mode in ("warp", "shift-perbit"):
        with pytest.raises(TargetError):
            FpgaTarget(scan_mode=mode)


def test_bulk_is_default():
    assert FpgaTarget().scan_mode == "shift"
