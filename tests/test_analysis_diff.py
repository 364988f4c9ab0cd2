"""Tests for snapshot diffing and the analysis helpers."""

from repro.analysis import diff_snapshots, format_diff
from repro.firmware import TIMER_BASE
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget, HwSnapshot


def _snap(nets_a=None, mems_a=None, instance="p"):
    return HwSnapshot({instance: {"cycle": 0,
                                  "nets": nets_a or {},
                                  "memories": mems_a or {}}})


class TestDiffStructural:
    def test_identical_snapshots_empty(self):
        a = _snap({"x": 1}, {"m": [0, 1]})
        b = _snap({"x": 1}, {"m": [0, 1]})
        diff = diff_snapshots(a, b)
        assert diff.is_empty
        assert format_diff(diff) == "snapshots are identical"

    def test_net_change_reported(self):
        diff = diff_snapshots(_snap({"x": 1, "y": 2}), _snap({"x": 1, "y": 5}))
        assert len(diff.nets) == 1
        delta = diff.nets[0]
        assert (delta.net, delta.before, delta.after) == ("y", 2, 5)

    def test_memory_word_change_reported(self):
        diff = diff_snapshots(_snap(mems_a={"m": [0, 7, 0]}),
                              _snap(mems_a={"m": [0, 9, 0]}))
        assert len(diff.memories) == 1
        delta = diff.memories[0]
        assert (delta.word, delta.before, delta.after) == (1, 7, 9)

    def test_missing_elements_default_zero(self):
        diff = diff_snapshots(_snap({"x": 3}), _snap({}))
        assert diff.nets[0].after == 0

    def test_instance_mismatch_listed(self):
        diff = diff_snapshots(_snap({"x": 1}, instance="a"),
                              _snap({"x": 1}, instance="b"))
        assert diff.only_before == ["a"]
        assert diff.only_after == ["b"]
        assert "only in the first" in format_diff(diff)

    def test_format_truncates(self):
        a = _snap({f"n{i}": 0 for i in range(60)})
        b = _snap({f"n{i}": 1 for i in range(60)})
        text = format_diff(diff_snapshots(a, b), limit=10)
        assert "more" in text


class TestDiffOnRealTarget:
    def test_good_vs_bad_hardware_state(self):
        """The root-cause workflow: snapshot before and after an event,
        diff shows exactly the peripheral registers that moved."""
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        target.write(TIMER_BASE + timer.REGISTERS["LOAD"], 9)
        before = target.save_snapshot()
        target.write(TIMER_BASE + timer.REGISTERS["CTRL"], timer.CTRL_EN)
        target.step(12)  # expire
        after = target.save_snapshot()
        diff = diff_snapshots(before, after)
        changed = {d.net for d in diff.nets}
        assert "expired" in changed
        assert "value" in changed      # counted down to zero
        assert "load" not in changed   # untouched register stays quiet
        # one-shot: EN self-cleared back to its pre-write value, so ctrl
        # legitimately does NOT appear — the diff is truthful, not noisy
        assert "ctrl" not in changed
        text = format_diff(diff)
        assert "timer.expired: 0x0 -> 0x1" in text
