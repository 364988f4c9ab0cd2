"""Tests for the snapshot-based coverage-guided fuzzer."""

import pytest

from repro.core import SnapshotFuzzer
from repro.core.fuzzer import MAX_INPUT, CorpusScheduler, execute_input
from repro.errors import VmError
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import assemble
from repro.peripherals import catalog
from repro.targets import FpgaTarget


@pytest.fixture(scope="module")
def program():
    return assemble(fuzz_packet_parser())


def _target():
    t = FpgaTarget(scan_mode="functional")
    t.add_peripheral(catalog.TIMER, TIMER_BASE)
    return t


SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]


class TestFuzzer:
    def test_finds_planted_signed_length_bug(self, program):
        fuzzer = SnapshotFuzzer(program, _target(), seeds=SEEDS, seed=3)
        report = fuzzer.run(executions=300)
        assert report.crashes
        for crash in report.crashes:
            # cmd 1 with a "negative" length byte: the planted bug.
            assert crash.input_bytes[0] == 1
            assert crash.input_bytes[1] >= 0x80
            assert "assertion failed" in crash.reason

    def test_coverage_guided_corpus_growth(self, program):
        fuzzer = SnapshotFuzzer(program, _target(), seeds=[b"\x00"], seed=1)
        report = fuzzer.run(executions=200)
        assert report.corpus_size > 1       # new edges kept inputs
        assert report.edges_covered > 10

    def test_deterministic_with_seed(self, program):
        r1 = SnapshotFuzzer(program, _target(), seeds=SEEDS,
                            seed=7).run(executions=120)
        r2 = SnapshotFuzzer(program, _target(), seeds=SEEDS,
                            seed=7).run(executions=120)
        assert len(r1.crashes) == len(r2.crashes)
        assert r1.edges_covered == r2.edges_covered
        assert [c.input_bytes for c in r1.crashes] == \
            [c.input_bytes for c in r2.crashes]

    def test_snapshot_reset_restores_clean_state(self, program):
        """Each execution must start from the same post-boot hardware:
        a cmd-2 input programs the timer; the next execution must not see
        leftovers."""
        target = _target()
        fuzzer = SnapshotFuzzer(program, target,
                                seeds=[bytes([2, 31])], seed=0)
        fuzzer.run(executions=5)
        # After the run, restore once more and check the timer is clean.
        target.restore_snapshot(fuzzer.context.boot)
        assert target.read(TIMER_BASE + 4) == 0  # LOAD back to reset value

    def test_reboot_mode_matches_coverage_but_slower(self, program):
        snap = SnapshotFuzzer(program, _target(), seeds=SEEDS,
                              reset="snapshot", seed=5).run(executions=100)
        reboot = SnapshotFuzzer(program, _target(), seeds=SEEDS,
                                reset="reboot", seed=5).run(executions=100)
        # Same exploration (deterministic mutations, same seed)...
        assert snap.edges_covered == reboot.edges_covered
        assert len(snap.crashes) == len(reboot.crashes)
        # ...but the reboot tax dominates modelled time.
        assert reboot.modelled_time_s > 20 * snap.modelled_time_s
        assert snap.execs_per_modelled_second > \
            100 * reboot.execs_per_modelled_second

    def test_bad_reset_mode_rejected(self, program):
        with pytest.raises(VmError):
            SnapshotFuzzer(program, _target(), reset="cold-boot")

    def test_hang_is_not_a_crash(self, program):
        """An input that spins forever hits the step budget and is simply
        dropped (embedded fuzzers treat hangs separately from crashes)."""
        fuzzer = SnapshotFuzzer(program, _target(), seeds=[bytes([2, 7])],
                                max_steps_per_exec=50, seed=0)
        report = fuzzer.run(executions=20)
        assert not report.crashes  # timer wait exceeds 50 steps: hang only


class TestHarnessBuffer:
    """The firmware reads a length word and then that many staged bytes;
    the buffer after the word holds ``MAX_INPUT`` of them."""

    #: A copy command one byte longer than the buffer.
    OVERLONG = bytes([1, 4]) + bytes(MAX_INPUT - 1)

    def test_overlong_seed_is_rejected_with_its_index_and_length(self):
        with pytest.raises(VmError, match=f"seed 1 is {MAX_INPUT + 1} "):
            CorpusScheduler([b"\x00", self.OVERLONG])

    def test_fuzzer_rejects_overlong_seed(self, program):
        with pytest.raises(VmError, match="seed 0 "):
            SnapshotFuzzer(program, _target(), seeds=[self.OVERLONG])

    def test_execute_input_rejects_overlong_data(self, program):
        with pytest.raises(VmError, match=f"input is {MAX_INPUT + 1} "):
            execute_input(program, _target(), self.OVERLONG)

    def test_a_full_buffer_runs(self, program):
        data = self.OVERLONG[:MAX_INPUT]
        CorpusScheduler([data])
        exit_, _edges, crash, _pc = execute_input(program, _target(), data)
        assert crash is None and exit_.reason == "halt"
