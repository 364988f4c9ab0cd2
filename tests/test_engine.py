"""Algorithm-1 engine tests: strategies, snapshot ownership, reports."""

import pytest

from repro.core import (HardSnapSession, SessionConfig, SnapshotController,
                        run_all_strategies)
from repro.core.engine import RebootReplayStrategy
from repro.firmware import TIMER_BASE, dispatcher, fig1_two_paths
from repro.peripherals import catalog
from repro.targets import FpgaTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]


def _session(src, **overrides):
    defaults = dict(scan_mode="functional")
    defaults.update(overrides)
    return HardSnapSession(src, TIMER, **defaults)


class TestHardSnapStrategy:
    def test_dispatcher_explores_all_paths(self):
        report = _session(dispatcher(6, work_cycles=8)).run(
            max_instructions=100_000)
        assert sorted(report.halt_codes()) == [0x100 + i for i in range(6)]
        assert report.stop_reason == "exhausted"
        assert not report.bugs

    def test_every_path_gets_test_case(self):
        report = _session(dispatcher(4, work_cycles=8)).run(
            max_instructions=100_000)
        commands = set()
        for path in report.halted_paths:
            assert path.test_case, path
            commands.add(list(path.test_case.values())[0] % 4)
        assert commands == {0, 1, 2, 3}

    def test_snapshots_taken_on_forks_and_switches(self):
        report = _session(dispatcher(4, work_cycles=8),
                          searcher="round-robin").run(
            max_instructions=100_000)
        assert report.snapshot_saves >= report.forks
        assert report.snapshot_restores > 0

    def test_affinity_minimises_switches(self):
        affinity = _session(dispatcher(6, work_cycles=8),
                            searcher="affinity").run(max_instructions=100_000)
        rr = _session(dispatcher(6, work_cycles=8),
                      searcher="round-robin").run(max_instructions=100_000)
        assert affinity.snapshot_restores <= rr.snapshot_restores
        assert affinity.halt_codes() == rr.halt_codes()

    def test_instruction_budget_respected(self):
        report = _session(dispatcher(8)).run(max_instructions=50)
        assert report.instructions == 50
        assert report.stop_reason == "instruction-budget"

    def test_stop_after_bugs(self):
        from repro.firmware import vuln_buffer_overflow, UART_BASE
        session = HardSnapSession(vuln_buffer_overflow(),
                                  [(catalog.UART, UART_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000, stop_after_bugs=1)
        assert len(report.bugs) >= 1
        assert report.stop_reason == "bug-budget"


class TestStrategyComparison:
    """The Fig. 1 experiment in test form (E4)."""

    @pytest.fixture(scope="class")
    def reports(self):
        out = {}
        for strategy in ("hardsnap", "naive-consistent",
                         "naive-inconsistent"):
            session = HardSnapSession(
                fig1_two_paths(), TIMER, strategy=strategy,
                searcher="round-robin", scan_mode="functional")
            out[strategy] = session.run(max_instructions=20_000)
        return out

    def test_hardsnap_finds_both_paths_correctly(self, reports):
        assert sorted(reports["hardsnap"].halt_codes()) == [0xA, 0xB]
        assert not reports["hardsnap"].bugs

    def test_naive_consistent_agrees_with_hardsnap(self, reports):
        assert reports["naive-consistent"].halt_codes() == \
            reports["hardsnap"].halt_codes()
        assert not reports["naive-consistent"].bugs

    def test_naive_consistent_pays_reboots(self, reports):
        r = reports["naive-consistent"]
        assert r.reboots > 0
        assert r.modelled_time_s > 10 * reports["hardsnap"].modelled_time_s

    def test_naive_inconsistent_breaks(self, reports):
        """Shared hardware under concurrent exploration loses at least one
        of the two paths (the paper's aborted Task A) or corrupts a
        verdict."""
        broken = reports["naive-inconsistent"]
        good = reports["hardsnap"]
        diverged = (broken.halt_codes() != good.halt_codes()
                    or len(broken.bugs) != len(good.bugs))
        assert diverged

    def test_hardsnap_cheaper_than_reboot(self, reports):
        assert reports["hardsnap"].modelled_time_s < \
            reports["naive-consistent"].modelled_time_s


class TestRebootReplay:
    def test_replay_reconstructs_hardware(self):
        report = _session(dispatcher(4, work_cycles=8),
                          strategy="naive-consistent",
                          searcher="round-robin").run(
            max_instructions=100_000)
        assert sorted(report.halt_codes()) == [0x100 + i for i in range(4)]
        assert report.reboots > 0
        assert report.replayed_accesses > 0

    def test_replay_deterministic_no_divergence(self):
        session = _session(dispatcher(3, work_cycles=8),
                           strategy="naive-consistent",
                           searcher="round-robin")
        session.run(max_instructions=100_000)
        strategy = session.strategy
        assert isinstance(strategy, RebootReplayStrategy)
        assert strategy.replay_divergences == 0


class TestSnapshotController:
    def test_update_restore_cycle(self):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        controller = SnapshotController(target)
        from repro.vm import SymbolicMemory
        from repro.vm.state import ExecState
        state = ExecState(memory=SymbolicMemory(256))
        target.write(TIMER_BASE + 4, 77)
        controller.update_state(state)
        assert state.hw_snapshot is not None
        target.write(TIMER_BASE + 4, 11)
        controller.restore_state(state)
        assert target.read(TIMER_BASE + 4) == 77
        assert controller.stats.saves == 1
        assert controller.stats.restores == 1

    def test_restore_without_snapshot_resets(self):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        controller = SnapshotController(target)
        from repro.vm import SymbolicMemory
        from repro.vm.state import ExecState
        target.write(TIMER_BASE + 4, 55)
        state = ExecState(memory=SymbolicMemory(256))
        controller.restore_state(state)
        assert target.read(TIMER_BASE + 4) == 0  # fresh reset
        assert state.hw_snapshot is not None  # now owns one


class TestSessionConfig:
    def test_config_object_and_overrides_exclusive(self):
        from repro.errors import VmError
        with pytest.raises(VmError):
            HardSnapSession(dispatcher(2), TIMER,
                            config=SessionConfig(), searcher="dfs")

    def test_unknown_strategy_rejected(self):
        from repro.errors import VmError
        with pytest.raises(VmError):
            HardSnapSession(dispatcher(2), TIMER, strategy="psychic")

    def test_unknown_target_rejected(self):
        from repro.errors import VmError
        with pytest.raises(VmError):
            HardSnapSession(dispatcher(2), TIMER, target="asic")

    def test_simulator_target_works_end_to_end(self):
        report = HardSnapSession(dispatcher(3, work_cycles=8), TIMER,
                                 target="simulator").run(
            max_instructions=100_000)
        assert sorted(report.halt_codes()) == [0x100, 0x101, 0x102]

    def test_run_all_strategies_helper(self):
        reports = run_all_strategies(
            dispatcher(2, work_cycles=6), TIMER,
            strategies=("hardsnap", "naive-consistent"),
            config=SessionConfig(scan_mode="functional",
                                 searcher="round-robin"),
            max_instructions=50_000)
        assert [r.strategy for r in reports] == ["hardsnap",
                                                 "naive-consistent"]
        assert reports[0].halt_codes() == reports[1].halt_codes()


class TestCompletenessPolicy:
    def test_completeness_explores_mmio_values(self):
        """A symbolic value written to MMIO forks one state per feasible
        concrete value under the completeness policy."""
        src = f"""
        .equ TIMER, 0x{TIMER_BASE:x}
        start:
            movi r1, TIMER
            sym r2
            andi r2, r2, 3
            addi r2, r2, 1          ; LOAD in [1, 4]
            sw r2, 4(r1)            ; symbolic value crosses the boundary
            movi r3, 1
            sw r3, 0(r1)            ; EN
        poll:
            lw r4, 12(r1)
            beq r4, r0, poll
            lw r5, 4(r1)
            halt r5                 ; halt code = chosen LOAD
        """
        perf = _session(src, concretization="performance").run(
            max_instructions=100_000)
        comp = _session(src, concretization="completeness",
                        concretization_limit=8).run(max_instructions=100_000)
        assert len(perf.halted_paths) == 1
        assert sorted(comp.halt_codes()) == [1, 2, 3, 4]
