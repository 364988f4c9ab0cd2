"""Tests for repro.parallel: wire format, recipes, lease execution, and
the headline property — parallel verdicts are byte-identical to serial
ones, whatever the worker count."""

import os
import pathlib
import pickle
import signal
import subprocess
import sys
from contextlib import contextmanager

import pytest

from repro.core import (HardSnapSession, SnapshotController, SnapshotFuzzer,
                        make_target)
from repro.core.journal import Journal
from repro.core.persistence import snapshot_from_wire, snapshot_to_wire
from repro.core.store import chunk_digest
from repro.errors import SnapshotError, TargetError, VmError
from repro.firmware import (TIMER_BASE, UART_BASE, dispatcher,
                            fuzz_packet_parser, vuln_buffer_overflow)
from repro.isa import assemble
from repro.parallel import (ChunkChannel, ParallelAnalysisEngine,
                            ParallelFuzzer, SessionRecipe, WorkerPool)
from repro.parallel.pool import WorkerError
from repro.peripherals import catalog
from repro.solver import expr as E
from repro.targets import FpgaTarget

SRC_DIR = pathlib.Path(__file__).parent.parent / "src"
TIMER = [(catalog.TIMER, TIMER_BASE)]
UART = [(catalog.UART, UART_BASE)]
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]


@contextmanager
def _deadline(seconds):
    """Fail the test from a SIGALRM after *seconds* instead of hanging
    the suite; the engine's ``with`` block then closes its pool."""
    def expire(signum, frame):
        pytest.fail(f"no verdict within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _timer_target():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    target.reset()
    return target


class TestSnapshotWire:
    def test_round_trip(self):
        target = _timer_target()
        controller = SnapshotController(target)
        target.step(7)
        snap = controller.save()
        wire = snapshot_to_wire(snap)
        pool = {digest: body for digest, (body, _) in wire.chunks.items()}
        back = snapshot_from_wire(wire, pool)
        assert back.states == snap.states
        assert back.method == snap.method
        assert back.bits == snap.bits
        assert back.record is None  # foreign: next save hashes every instance

    def test_known_digests_omit_payloads(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        digests = {chunk_digest(s) for s in snap.states.values()}
        wire = snapshot_to_wire(snap, known=digests)
        assert wire.chunks == {}
        assert wire.refs  # references still present
        assert wire.payload_bits == 0

    def test_missing_chunk_raises(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        wire = snapshot_to_wire(snap)
        with pytest.raises(SnapshotError):
            snapshot_from_wire(wire, pool={})

    def test_wire_is_picklable(self):
        target = _timer_target()
        snap = SnapshotController(target).save()
        wire = snapshot_to_wire(snap)
        clone = pickle.loads(pickle.dumps(wire))
        assert clone.refs == wire.refs
        assert clone.chunks == wire.chunks


class TestChunkChannel:
    def test_second_send_is_delta(self):
        """Resending an unchanged snapshot ships references only —
        the cross-process analogue of TransferRecord.delta_bits."""
        target = _timer_target()
        controller = SnapshotController(target)
        sender, receiver = ChunkChannel(), ChunkChannel()
        bits = {name: inst.state_bits
                for name, inst in target.instances.items()}

        first = sender.encode(controller.save(), peer="w0", bits_of=bits)
        receiver.absorb(first, peer="coord")
        assert first.payload_bits == first.logical_bits > 0

        second = sender.encode(controller.save(), peer="w0", bits_of=bits)
        assert second.payload_bits == 0
        assert second.logical_bits > 0
        assert snapshot_from_wire(second, receiver.pool.bodies).states == \
            controller.save().states

    def test_changed_state_ships_only_new_chunks(self):
        target = _timer_target()
        controller = SnapshotController(target)
        channel = ChunkChannel()
        channel.encode(controller.save(), peer="w0")
        target.write(TIMER_BASE, 0x1)  # program the timer: real state change
        target.step(5)
        wire = channel.encode(controller.save(), peer="w0")
        assert 0 < len(wire.chunks) <= len(wire.refs)

    def test_reencode_fills_payloads_per_peer(self):
        """A wire received from one worker re-addresses to another with
        payloads only for chunks the new peer lacks."""
        target = _timer_target()
        controller = SnapshotController(target)
        worker, coord = ChunkChannel(), ChunkChannel()
        wire = worker.encode(controller.save(), peer="coord")
        coord.absorb(wire, peer=0)
        resend_w0 = coord.reencode(wire, peer=0)
        assert resend_w0.chunks == {}  # worker 0 produced it
        resend_w1 = coord.reencode(wire, peer=1)
        assert set(resend_w1.chunks) == \
            {d for d, _, _ in wire.refs.values()}
        assert snapshot_from_wire(resend_w1, coord.pool.bodies).states == \
            controller.save().states

    def test_stats_account_logical_vs_payload(self):
        target = _timer_target()
        controller = SnapshotController(target)
        channel = ChunkChannel()
        bits = {name: inst.state_bits
                for name, inst in target.instances.items()}
        channel.encode(controller.save(), peer="w0", bits_of=bits)
        channel.encode(controller.save(), peer="w0", bits_of=bits)
        stats = channel.stats
        assert stats.snapshots_sent == 2
        assert stats.logical_bits_sent == 2 * stats.payload_bits_sent
        assert stats.delta_ratio == 2.0


class TestRecipes:
    def test_target_recipe_round_trip(self):
        """A pickled recipe builds the target ``make_target(config)``
        builds, with the same peripherals, state for state."""
        for overrides in ({"scan_mode": "functional"}, {"opt": False},
                          {"target": "simulator"}):
            recipe = pickle.loads(pickle.dumps(SessionRecipe.create(
                dispatcher(2), TIMER + UART, **overrides)))
            rebuilt = recipe.target.build(recipe.config)
            original = make_target(recipe.config)
            for spec, base in TIMER + UART:
                original.add_peripheral(spec, base)
            original.reset()
            rebuilt.reset()
            assert type(rebuilt) is type(original), overrides
            assert rebuilt.instances.keys() == original.instances.keys()
            s0 = SnapshotController(original).save()
            s1 = SnapshotController(rebuilt).save()
            assert s0.states == s1.states, overrides

    def test_non_catalog_peripheral_rejected(self):
        class FakeSpec:
            name = "not-in-catalog"
        with pytest.raises(TargetError):
            SessionRecipe.create(dispatcher(2), [(FakeSpec(), 0x4000_0000)])

    def test_non_hardsnap_strategy_rejected(self):
        with pytest.raises(VmError):
            SessionRecipe.create(dispatcher(2), TIMER,
                                 strategy="naive-consistent")

    def test_session_recipe_rebuilds_equivalent_session(self):
        recipe = SessionRecipe.create(dispatcher(3, work_cycles=8), TIMER,
                                      scan_mode="functional")
        recipe = pickle.loads(pickle.dumps(recipe))
        report = recipe.build_session().run(max_instructions=100_000)
        serial = HardSnapSession(dispatcher(3, work_cycles=8), TIMER,
                                 scan_mode="functional").run(
            max_instructions=100_000)
        assert report.verdict_summary() == serial.verdict_summary()


class TestExprPickling:
    def test_unpickled_expressions_reintern(self):
        """Hash-consing identity (== is `is`) must survive a process
        boundary; otherwise shipped constraints stop comparing equal."""
        a = E.add(E.var("x", 32), E.const(7, 32))
        b = pickle.loads(pickle.dumps(a))
        assert b is a
        pair = pickle.loads(pickle.dumps((a, E.add(a, a))))
        assert pair[0] is a and pair[1].args[0] is a


class TestRunLease:
    """In-process lease-driven exploration equals the serial loop."""

    def test_lease_exploration_matches_serial(self):
        serial = HardSnapSession(dispatcher(4, work_cycles=8), TIMER,
                                 scan_mode="functional").run(
            max_instructions=100_000)

        session = HardSnapSession(dispatcher(4, work_cycles=8), TIMER,
                                  scan_mode="functional")
        from repro.core.engine import AnalysisReport
        report = AnalysisReport(strategy="hardsnap")
        session.engine.strategy.on_start(None)
        pending = [session.make_initial_state()]
        while pending:
            outcome = session.engine.run_lease(pending.pop())
            report.instructions += outcome.executed
            report.forks += len(outcome.forks)
            if outcome.completed is not None:
                report.paths.append(outcome.completed)
            if outcome.state.is_active:
                pending.append(outcome.state)
            pending.extend(outcome.forks)
        report.coverage = len(session.executor.coverage)
        assert report.verdict_summary() == serial.verdict_summary()

    def test_lease_budget_pauses_and_resumes(self):
        session = HardSnapSession(dispatcher(2, work_cycles=8), TIMER,
                                  scan_mode="functional")
        session.engine.strategy.on_start(None)
        state = session.make_initial_state()
        outcome = session.engine.run_lease(state, max_instructions=3)
        assert outcome.paused and outcome.executed == 3
        assert state.is_active and state.hw_snapshot is not None
        # Resume: the paused state continues to its natural end.
        total = outcome.executed
        pending = [state]
        while pending:
            out = session.engine.run_lease(pending.pop())
            total += out.executed
            if out.state.is_active:
                pending.append(out.state)
            pending.extend(out.forks)
        assert total > 3


class TestPool:
    def test_worker_errors_propagate(self):
        recipe = SessionRecipe.create(dispatcher(2), TIMER,
                                      scan_mode="functional")
        with WorkerPool(recipe, workers=1) as pool:
            pool.submit(0, "no-such-job", {})
            with pytest.raises(WorkerError, match="no-such-job"):
                pool.next_result(timeout=60)

    def test_warm_builds_all_workers(self):
        recipe = SessionRecipe.create(dispatcher(2), TIMER,
                                      scan_mode="functional")
        with WorkerPool(recipe, workers=2) as pool:
            pool.warm("fuzz")  # completes without error


class TestEngineDeterminism:
    """Satellite 3: merged DSE verdicts are byte-identical to serial for
    workers = 1, 2, 4 (dispatcher-N and the buffer-overflow workload)."""

    @pytest.fixture(scope="class")
    def dispatcher_serial(self):
        return HardSnapSession(dispatcher(5, work_cycles=8), TIMER,
                               scan_mode="functional").run(
            max_instructions=100_000).verdict_summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dispatcher_matches_serial(self, workers, dispatcher_serial):
        with ParallelAnalysisEngine(dispatcher(5, work_cycles=8), TIMER,
                                    workers=workers,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == dispatcher_serial
        assert report.stop_reason == "exhausted"

    @pytest.fixture(scope="class")
    def modulus_serial(self):
        return HardSnapSession(dispatcher(6, work_cycles=8), TIMER,
                               scan_mode="functional", opt=True).run(
            max_instructions=200_000).verdict_summary()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_constant_modulus_dispatcher_matches_serial(self, workers,
                                                        modulus_serial):
        """dispatcher(6) branches on ``x mod 6``. A cold worker solver
        bit-blasting a full-width divider for it took minutes; the
        narrowed constant divider answers well inside the deadline."""
        with _deadline(30.0):
            with ParallelAnalysisEngine(dispatcher(6, work_cycles=8), TIMER,
                                        workers=workers,
                                        scan_mode="functional",
                                        opt=True) as engine:
                report = engine.run(max_instructions=200_000)
        assert report.verdict_summary() == modulus_serial
        assert report.stop_reason == "exhausted"

    def test_bug_workload_matches_serial(self):
        serial = HardSnapSession(vuln_buffer_overflow(), UART,
                                 scan_mode="functional").run(
            max_instructions=500_000)
        with ParallelAnalysisEngine(vuln_buffer_overflow(), UART,
                                    workers=2,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=500_000)
        assert report.verdict_summary() == serial.verdict_summary()
        # Bug state ids are remapped onto the renumbered paths.
        by_id = {p.state_id: p for p in report.paths}
        for bug in report.bugs:
            assert by_id[bug.state_id].status == "error"

    def test_stop_after_bugs(self):
        with ParallelAnalysisEngine(vuln_buffer_overflow(), UART,
                                    workers=2,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=500_000,
                                stop_after_bugs=1)
        assert report.stop_reason == "bug-budget"
        assert len(report.bugs) >= 1

    def test_pool_stats_show_delta_transfer(self):
        with ParallelAnalysisEngine(dispatcher(4, work_cycles=8), TIMER,
                                    workers=2,
                                    scan_mode="functional") as engine:
            engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert stats.leases > 0
        assert stats.wire.snapshots_sent > 0
        assert stats.wire.payload_bits_sent < stats.wire.logical_bits_sent
        assert "workers=2" in stats.summary()


#: Two instructions that loop forever: one path that never forks or ends.
LOOP = """
loop:
    addi r1, r1, 1
    j    loop
"""


class TestLeaseBudget:
    """Each lease carries the instructions the campaign has left, so a
    path that never forks or ends still returns its lease, and the run
    stops at its budget with the serial verdict."""

    BUDGET = 5000

    def test_non_forking_loop_stops_at_the_serial_budget(self, tmp_path):
        serial = HardSnapSession(LOOP, TIMER, scan_mode="functional").run(
            max_instructions=self.BUDGET).verdict_summary()
        assert f"instr={self.BUDGET} " in serial
        assert "stop=instruction-budget" in serial
        firmware = tmp_path / "loop.s"
        firmware.write_text(LOOP)
        cli_journal = tmp_path / "cli-journal"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get(
            "PYTHONPATH", "")
        with _deadline(240.0):
            for workers, journal in ((1, None), (2, None),
                                     (1, tmp_path / "journal")):
                with ParallelAnalysisEngine(LOOP, TIMER, workers=workers,
                                            journal=journal,
                                            scan_mode="functional") as engine:
                    report = engine.run(max_instructions=self.BUDGET)
                assert report.verdict_summary() == serial, (workers, journal)
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "run", str(firmware),
                 "--peripheral", f"timer@0x{TIMER_BASE:08x}",
                 "--journal", str(cli_journal),
                 "--max-instructions", str(self.BUDGET)],
                env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr[-2000:]
        sealed = Journal.open(cli_journal, readonly=True)
        assert sealed.last("campaign-sealed")["verdict"] == serial

    def test_zero_budget_dispatches_no_lease(self, tmp_path):
        """With no instructions to spend, not even the boot lease goes
        out; the sealed journal resumes to the same verdict."""
        serial = HardSnapSession(LOOP, TIMER, scan_mode="functional").run(
            max_instructions=0).verdict_summary()
        journal = tmp_path / "journal"
        with _deadline(120.0):
            with ParallelAnalysisEngine(LOOP, TIMER, workers=1,
                                        journal=journal,
                                        scan_mode="functional") as engine:
                report = engine.run(max_instructions=0)
                assert engine.pool_stats.leases == 0
            assert report.verdict_summary() == serial
            with ParallelAnalysisEngine.resume(journal) as engine:
                assert engine.resume_run().verdict_summary() == serial

    def test_forking_campaign_stops_at_the_budget(self):
        """Leases share what is left of the budget instead of each
        taking all of it, so a forking campaign stops exactly where the
        serial engine does (it used to overshoot, by up to 38
        instructions at 2 workers)."""
        firmware = dispatcher(16, 40)
        with _deadline(240.0):
            for budget in (400, 600):
                serial = HardSnapSession(firmware, TIMER,
                                         scan_mode="functional").run(
                    max_instructions=budget)
                assert serial.instructions == budget
                for workers in (1, 2):
                    with ParallelAnalysisEngine(
                            firmware, TIMER, workers=workers,
                            scan_mode="functional") as engine:
                        report = engine.run(max_instructions=budget)
                    assert report.instructions == budget, (budget, workers)
                    assert report.stop_reason == "instruction-budget"


def _traffic(stats):
    """Snapshots and software states sent and received, over the
    coordinator and every worker."""
    return (stats.wire.snapshots_sent, stats.wire.snapshots_received,
            stats.state_wire.states_sent, stats.state_wire.states_received)


class TestAccounting:
    """Lease results carry per-lease deltas of the workers' records, so
    a pool's totals are the sum of what its runs did."""

    def test_second_run_adds_only_its_own_traffic(self):
        firmware = dispatcher(8, 40)
        with ParallelAnalysisEngine(firmware, TIMER, workers=2,
                                    scan_mode="functional") as engine:
            engine.run(max_instructions=100_000)
            once = _traffic(engine.pool_stats)
            engine.run(max_instructions=100_000)
            twice = _traffic(engine.pool_stats)
        assert once[0] > 0
        assert twice == tuple(2 * count for count in once)

    def test_respawned_worker_counts_are_kept(self):
        """A worker killed before its fourth job and respawned: what the
        dead incarnation decoded and shipped stays counted, and the
        re-packed leases count once more on the sending side."""
        from repro.resilience import FaultPlan
        firmware = dispatcher(8, 40)
        with ParallelAnalysisEngine(firmware, TIMER, workers=1,
                                    scan_mode="functional") as engine:
            clean_report = engine.run(max_instructions=100_000)
            clean = _traffic(engine.pool_stats)
        with ParallelAnalysisEngine(firmware, TIMER, workers=1,
                                    scan_mode="functional",
                                    fault_plan=FaultPlan.parse("kill=0@4")
                                    ) as engine:
            report = engine.run(max_instructions=100_000)
            killed = _traffic(engine.pool_stats)
        assert report.resilience.worker_respawns == 1
        assert report.verdict_summary() == clean_report.verdict_summary()
        assert (killed[1], killed[3]) == (clean[1], clean[3])
        assert killed[0] > clean[0] and killed[2] > clean[2]

    def test_workers_solver_counters_reach_the_pool(self):
        with ParallelAnalysisEngine(dispatcher(5, work_cycles=8), TIMER,
                                    workers=2,
                                    scan_mode="functional") as engine:
            engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert stats.solver.queries > 0
        assert stats.sat.propagations > 0
        assert stats.summary().splitlines()[-1] == stats.solver.summary(
            stats.sat.as_dict())


class TestFuzzerDeterminism:
    """Satellite 3: merged fuzzing coverage/crashes are byte-identical
    to a serial run with the same batch size (E7 workload)."""

    @pytest.fixture(scope="class")
    def serial_verdict(self):
        fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                _timer_target(), seeds=SEEDS, seed=3)
        return fuzzer.run(executions=120, batch_size=16).verdict_summary()

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial(self, workers, serial_verdict):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=workers, batch_size=16,
                            seed=3) as fuzzer:
            report = fuzzer.run(executions=120)
        assert report.verdict_summary() == serial_verdict
        assert report.resets == 120

    def test_workers_share_identical_boot_state(self):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3) as fuzzer:
            digests = fuzzer.boot_digests()
        assert len(digests) == 2
        first, second = digests.values()
        assert first == second

    def test_serial_batch_size_invariant(self):
        """The serial fuzzer's own results do not depend on how its
        schedule is batched relative to execution — the property that
        makes input sharding sound in the first place."""
        def run(batch_size):
            fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                    _timer_target(), seeds=SEEDS, seed=5)
            return fuzzer.run(executions=60, batch_size=batch_size)
        a, b = run(1), run(1)
        assert a.verdict_summary() == b.verdict_summary()
