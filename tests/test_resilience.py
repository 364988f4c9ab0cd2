"""Tests for repro.resilience: seeded fault injection, link-layer
recovery, snapshot integrity, worker-pool self-healing — and the
headline invariant: with any seeded FaultPlan below the respawn cap,
parallel verdicts stay byte-identical to a fault-free serial run."""

import json
import os
import signal
import time

import pytest

from repro.core import HardSnapSession, SnapshotController
from repro.core.journal import Journal
from repro.core.persistence import snapshot_from_dict, snapshot_to_dict
from repro.errors import (LinkError, ScanShiftError, SnapshotIntegrityError,
                          VmError)
from repro.firmware import TIMER_BASE, dispatcher, fuzz_packet_parser
from repro.parallel import (ParallelAnalysisEngine, ParallelFuzzer,
                            SessionRecipe, WorkerPool)
from repro.parallel.envelope import pack_lease_batch, unpack_lease_results
from repro.parallel.pool import (InlinePool, PoolTimeout, WorkerDeath,
                                 WorkerError)
from repro.peripherals import catalog
from repro.resilience import (FaultInjector, FaultPlan, ResilienceStats,
                              RetryPolicy)
from repro.targets import FpgaTarget, SimulatorTarget
from repro.targets.orchestrator import TargetOrchestrator

TIMER = [(catalog.TIMER, TIMER_BASE)]
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]
FIRMWARE = dispatcher(5, work_cycles=8)


def _timer_target(**attach):
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    target.reset()
    if attach:
        target.attach_resilience(**attach)
    return target


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = FaultPlan.parse(
            "seed=9,scan_corrupt=0.1,mmio_drop=0.02,kill=1@0,kill=3@2")
        assert plan.seed == 9
        assert plan.scan_corrupt_rate == pytest.approx(0.1)
        assert plan.mmio_drop_rate == pytest.approx(0.02)
        assert plan.worker_kills == ((1, 0), (3, 2))
        assert not plan.is_empty

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(VmError):
            FaultPlan.parse("seed=1,flux_capacitor=0.5")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(VmError):
            FaultPlan.parse("scan_corrupt=lots")
        with pytest.raises(VmError):
            FaultPlan.parse("kill=x@y")
        with pytest.raises(VmError):
            FaultPlan.parse("scan_corrupt")

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(worker_kills=((0, 0),)).is_empty

    def test_rolls_are_deterministic(self):
        a = FaultInjector(FaultPlan(seed=4), scope="t")
        b = FaultInjector(FaultPlan(seed=4), scope="t")
        rolls = [a.roll("site", 0.5) for _ in range(64)]
        assert rolls == [b.roll("site", 0.5) for _ in range(64)]
        assert any(rolls) and not all(rolls)

    def test_rolls_differ_by_seed_and_scope(self):
        base = [FaultInjector(FaultPlan(seed=1), "x").roll("s", 0.5)
                for _ in range(1)]
        seq = lambda seed, scope: [
            inj.roll("s", 0.5) for inj in [FaultInjector(
                FaultPlan(seed=seed), scope)] for _ in range(64)]
        assert seq(1, "x") != seq(2, "x")
        assert seq(1, "x") != seq(1, "y")

    def test_explicit_kills_only_first_incarnation(self):
        inj = FaultInjector(FaultPlan(seed=0, worker_kills=((2, 1),)))
        assert inj.should_kill(2, 1, incarnation=0)
        assert not inj.should_kill(2, 1, incarnation=1)
        assert not inj.should_kill(2, 0, incarnation=0)


class TestLinkRecovery:
    def test_scan_corruption_recovered_transparently(self):
        clean = _timer_target()
        clean.step(9)
        want = SnapshotController(clean).save().states

        target = _timer_target(plan=FaultPlan(seed=1, scan_corrupt_rate=0.4))
        target.step(9)
        modelled0 = target.timer.total_s
        snap = target.save_snapshot()
        for _ in range(6):  # roll until a retry actually triggers
            target.restore_snapshot(snap)
        assert target.resilience.link_retries > 0
        # retransmits are charged to modelled time, not free
        assert target.timer.total_s > modelled0
        got = {name: {k: v for k, v in state.items() if k != "cycle"}
               for name, state in snap.states.items()}
        expected = {name: {k: v for k, v in state.items() if k != "cycle"}
                    for name, state in want.states.items()} \
            if hasattr(want, "states") else {
                name: {k: v for k, v in state.items() if k != "cycle"}
                for name, state in want.items()}
        assert got == expected

    def test_scan_retry_exhaustion_names_the_failure(self):
        target = _timer_target(plan=FaultPlan(seed=1, scan_corrupt_rate=1.0),
                               policy=RetryPolicy(max_link_retries=3))
        with pytest.raises(ScanShiftError) as excinfo:
            target.save_snapshot()
        err = excinfo.value
        assert err.instance == "timer"
        assert err.operation == "capture"
        assert err.attempts == 4  # 1 try + 3 retries
        assert "timer" in str(err) and "4 attempts" in str(err)

    def test_mmio_drop_retransmits(self):
        target = _timer_target(plan=FaultPlan(seed=3, mmio_drop_rate=0.3))
        for _ in range(32):
            target.read(TIMER_BASE)
        assert target.resilience.mmio_retries > 0
        assert target.resilience.backoff_s > 0

    def test_mmio_retry_exhaustion_raises_link_error(self):
        target = _timer_target(plan=FaultPlan(seed=3, mmio_drop_rate=1.0),
                               policy=RetryPolicy(max_link_retries=2))
        with pytest.raises(LinkError):
            target.read(TIMER_BASE)

    def test_link_down_reconnects_and_restores_verified_state(self):
        target = _timer_target(plan=FaultPlan(seed=2, link_down_rate=1.0))
        target.step(5)
        snap = target.save_snapshot()  # reconnect happens, then save
        assert target.resilience.reconnects >= 1
        target.step(3)
        target.restore_snapshot(snap)  # reconnect + resync + restore
        assert target.resilience.reconnects >= 2
        strip = lambda states: {name: {k: v for k, v in s.items()
                                       if k != "cycle"}
                                for name, s in states.items()}
        assert strip(target.save_snapshot().states) == strip(snap.states)

    def test_transfer_timeout_retries(self):
        fpga = FpgaTarget(name="fpga")
        fpga.add_peripheral(catalog.TIMER, TIMER_BASE)
        fpga.reset()
        sim = SimulatorTarget(name="sim")
        sim.add_peripheral(catalog.TIMER, TIMER_BASE)
        sim.reset()
        sim.attach_resilience(FaultPlan(seed=5, transfer_timeout_rate=0.6))
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        fpga.step(7)
        modelled0 = sim.timer.total_s
        for src, dst in (("fpga", "sim"), ("sim", "fpga")) * 3:
            moved = orch.transfer(src, dst)
        assert sim.resilience.transfer_retries > 0
        assert sim.timer.total_s > modelled0
        # state still arrived intact on the last hop (the final transfer
        # left sim as the source, so its live state is the canonical one)
        assert (moved.states["timer"]["nets"]["value"]
                == sim.peek("timer", "value"))

    def test_no_plan_means_no_bookkeeping(self):
        target = _timer_target()
        target.step(3)
        snap = target.save_snapshot()
        assert snap.digest is None  # fast path: no sealing
        assert not target.resilience.any


class TestSnapshotIntegrity:
    def test_seal_and_verify(self):
        target = _timer_target()
        target.step(4)
        snap = target.save_snapshot().seal()
        assert snap.digest
        snap.verify()  # intact
        clone = snap.clone()
        assert clone.digest == snap.digest

    def test_tampered_snapshot_rejected_on_restore(self):
        # A rate-only plan (never fires here) still attaches the injector,
        # which turns on snapshot sealing; a fully empty plan would not.
        target = _timer_target(plan=FaultPlan(seed=0, mmio_drop_rate=1e-9))
        target.step(4)
        snap = target.save_snapshot()
        assert snap.digest  # sealed because an injector is attached
        snap.states["timer"] = dict(snap.states["timer"])
        snap.states["timer"]["value"] = 0xDEAD
        with pytest.raises(SnapshotIntegrityError):
            target.restore_snapshot(snap)

    def test_json_round_trip_carries_digest(self):
        target = _timer_target()
        target.step(4)
        data = snapshot_to_dict(target.save_snapshot())
        assert data["digest"]
        snapshot_from_dict(json.loads(json.dumps(data)))  # verifies

    def test_tampered_json_rejected(self):
        target = _timer_target()
        target.step(4)
        data = snapshot_to_dict(target.save_snapshot())
        data["states"]["timer"]["value"] = 0xBAD
        with pytest.raises(SnapshotIntegrityError):
            snapshot_from_dict(data)

    def test_corrupted_wire_chunk_rejected(self):
        from repro.core.persistence import snapshot_to_wire
        from repro.parallel import ChunkChannel
        target = _timer_target()
        target.step(4)
        wire = snapshot_to_wire(SnapshotController(target).save())
        digest = next(iter(wire.chunks))
        body, bits = wire.chunks[digest]
        body = dict(body)
        body["nets"] = dict(body["nets"])
        body["nets"]["value"] ^= 1
        wire.chunks[digest] = (body, bits)
        with pytest.raises(SnapshotIntegrityError) as excinfo:
            ChunkChannel().absorb(wire, peer="w0")
        assert digest in str(excinfo.value)


def _submit_root_batch(pool, worker_id: int) -> int:
    """Queue a one-lease batch whose root lease makes the worker build
    the initial state itself (no wire, no statewire involved)."""
    lease = {"state": None, "wire": None, "sym_base": 0, "budget": 0}
    return pool.submit(worker_id, "lease-batch", {"leases": [lease]},
                       pack=lambda payload, peer: pack_lease_batch(
                           payload["leases"], peer))


class TestWorkerPool:
    def _recipe(self, **config):
        return SessionRecipe.create(FIRMWARE, TIMER, searcher="bfs",
                                    **config)

    def test_dead_worker_raises_structured_error_not_hang(self):
        """The satellite fix: next_result(timeout=None) used to block
        forever when a worker died mid-lease."""
        with WorkerPool(self._recipe(), workers=2) as pool:
            pool.warm("engine")
            job = _submit_root_batch(pool, 1)
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            start = time.monotonic()
            with pytest.raises(WorkerDeath) as excinfo:
                pool.next_result(timeout=None)
            assert time.monotonic() - start < 30
            err = excinfo.value
            assert err.worker_id == 1
            assert job in err.jobs
            assert "worker 1" in str(err) and str(job) in str(err)

    def test_timeout_raises_pool_timeout_when_workers_alive(self):
        with WorkerPool(self._recipe(), workers=1) as pool:
            pool.warm("engine")
            with pytest.raises(PoolTimeout):
                pool.next_result(timeout=0.2)

    def test_close_idempotent_after_worker_crash(self):
        pool = WorkerPool(self._recipe(), workers=2)
        pool.warm("engine")
        for proc in pool._procs:
            os.kill(proc.pid, signal.SIGKILL)
        pool.close()
        pool.close()  # idempotent
        assert all(not proc.is_alive() for proc in pool._procs)

    def test_respawn_replaces_worker_and_returns_leases(self):
        with WorkerPool(self._recipe(), workers=2) as pool:
            pool.warm("engine")
            job = _submit_root_batch(pool, 0)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            with pytest.raises(WorkerDeath):
                pool.next_result()
            assert pool.respawn(0) == [job]
            assert pool._procs[0].is_alive()
            assert pool.stats.resilience.worker_respawns == 1
            pool.resubmit(job)
            kind, worker_id, data = pool.next_result(timeout=120)
            assert kind == "lease-batch" and worker_id == 0
            *_, results = unpack_lease_results(data)
            assert results[0]["executed"] > 0

    def test_worker_dying_mid_send_does_not_wedge_the_pool(self):
        """A worker SIGKILLed while sending a result dies holding its
        result channel's write lock. The respawned worker gets a fresh
        channel and no other worker writes to the wedged one, so both
        workers still deliver."""
        with WorkerPool(self._recipe(), workers=2) as pool:
            pool.warm("engine")
            # Stands in for worker 0 dying mid-write: never released.
            assert pool._results[0]._wlock.acquire(timeout=5)
            job = _submit_root_batch(pool, 0)
            os.kill(pool._procs[0].pid, signal.SIGKILL)
            with pytest.raises(WorkerDeath):
                pool.next_result(timeout=20)
            assert pool.respawn(0) == [job]
            pool.resubmit(job)
            _submit_root_batch(pool, 1)
            deadline = time.monotonic() + 20
            answered = sorted(
                pool.next_result(timeout=deadline - time.monotonic())[1]
                for _ in range(2))
            assert answered == [0, 1]

    def test_worker_errors_still_carry_remote_traceback(self):
        with WorkerPool(self._recipe(), workers=1) as pool:
            pool.submit(0, "no-such-job", {})
            with pytest.raises(WorkerError, match="no-such-job"):
                pool.next_result(timeout=60)

    @pytest.mark.parametrize("kind", ["lease", "fuzz"])
    def test_unbatched_job_kinds_rejected(self, kind):
        """Leases and fuzz shards only travel as batch envelopes."""
        with WorkerPool(self._recipe(), workers=1) as pool:
            pool.submit(0, kind, {})
            with pytest.raises(WorkerError, match="unknown job kind"):
                pool.next_result(timeout=60)
        with pytest.raises(VmError, match="unknown job kind"):
            InlinePool(self._recipe()).submit(0, kind, {})

    def test_duplicate_results_dropped(self):
        plan = FaultPlan(seed=1, result_dup_rate=1.0)
        with WorkerPool(self._recipe(fault_plan=plan), workers=1) as pool:
            pool.warm("engine")
            _submit_root_batch(pool, 0)
            pool.next_result(timeout=120)
            deadline = time.monotonic() + 30
            while (not pool.stats.resilience.duplicate_results
                   and time.monotonic() < deadline):
                with pytest.raises(PoolTimeout):
                    pool.next_result(timeout=0.1)
            assert pool.stats.resilience.duplicate_results == 1


class _SerialVerdicts:
    _engine = None
    _fuzz = None

    @classmethod
    def engine(cls):
        if cls._engine is None:
            cls._engine = HardSnapSession(
                FIRMWARE, TIMER, searcher="bfs").run(
                max_instructions=100_000).verdict_summary()
        return cls._engine

    @classmethod
    def fuzz(cls):
        from repro.core import SnapshotFuzzer
        from repro.isa import assemble
        if cls._fuzz is None:
            fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()),
                                    _timer_target(), seeds=SEEDS, seed=3)
            cls._fuzz = fuzzer.run(executions=96,
                                   batch_size=16).verdict_summary()
        return cls._fuzz


class TestDeterminismUnderFaults:
    """The headline invariant: seeded faults below the respawn cap never
    change what a run concludes, only how much recovery it reports."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_engine_kill_mid_lease_matches_fault_free_serial(self, workers):
        plan = FaultPlan.parse(
            "seed=7,kill=1@0,scan_corrupt=0.05,result_dup=0.05")
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=workers,
                                    searcher="bfs",
                                    fault_plan=plan) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _SerialVerdicts.engine()
        assert report.resilience.worker_respawns == 1
        assert report.resilience.lease_reissues >= 1

    def test_engine_result_loss_recovered_by_deadline(self):
        plan = FaultPlan.parse("seed=11,result_loss=0.3")
        with ParallelAnalysisEngine(
                FIRMWARE, TIMER, workers=2, searcher="bfs",
                fault_plan=plan,
                retry_policy=RetryPolicy(result_deadline_s=2.0)) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _SerialVerdicts.engine()
        assert report.resilience.lease_reissues >= 1

    def test_engine_degrades_to_serial_at_respawn_cap(self):
        plan = FaultPlan.parse("seed=3,kill=0@1")
        with ParallelAnalysisEngine(
                FIRMWARE, TIMER, workers=2, searcher="bfs", fault_plan=plan,
                retry_policy=RetryPolicy(respawn_cap=0)) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _SerialVerdicts.engine()
        assert report.resilience.degraded

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fuzzer_degrades_to_serial_at_respawn_cap(self, workers):
        plan = FaultPlan.parse("seed=3,kill=0@1")
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=workers, batch_size=16, seed=3,
                            fault_plan=plan,
                            retry_policy=RetryPolicy(respawn_cap=0)
                            ) as fuzzer:
            report = fuzzer.run(executions=96)
        assert report.verdict_summary() == _SerialVerdicts.fuzz()
        assert report.resilience.degraded

    def test_journaled_engine_degrades_seals_and_resumes(self, tmp_path):
        plan = FaultPlan.parse("seed=3,kill=0@1")
        with ParallelAnalysisEngine(
                FIRMWARE, TIMER, workers=2, searcher="bfs", fault_plan=plan,
                retry_policy=RetryPolicy(respawn_cap=0),
                journal=tmp_path / "j", checkpoint_every=1) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.resilience.degraded
        journal = Journal.open(tmp_path / "j", readonly=True)
        assert journal.last("campaign-sealed")["verdict"] == \
            _SerialVerdicts.engine()
        with ParallelAnalysisEngine.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _SerialVerdicts.engine()

    def test_journaled_fuzzer_degrades_seals_and_resumes(self, tmp_path):
        plan = FaultPlan.parse("seed=3,kill=0@1")
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            fault_plan=plan,
                            retry_policy=RetryPolicy(respawn_cap=0),
                            journal=tmp_path / "j",
                            checkpoint_every=1) as fuzzer:
            report = fuzzer.run(executions=96)
        assert report.resilience.degraded
        journal = Journal.open(tmp_path / "j", readonly=True)
        assert journal.last("campaign-sealed")["verdict"] == \
            _SerialVerdicts.fuzz()
        with ParallelFuzzer.resume(tmp_path / "j") as resumed:
            report = resumed.resume_run()
        assert report.verdict_summary() == _SerialVerdicts.fuzz()

    def test_degradation_disabled_propagates_death(self):
        plan = FaultPlan.parse("seed=3,kill=0@1")
        with ParallelAnalysisEngine(
                FIRMWARE, TIMER, workers=2, searcher="bfs", fault_plan=plan,
                retry_policy=RetryPolicy(respawn_cap=0,
                                         degrade_to_serial=False)) as engine:
            with pytest.raises(WorkerDeath):
                engine.run(max_instructions=100_000)

    def test_fuzzer_kill_and_link_faults_match_fault_free_run(self):
        plan = FaultPlan.parse(
            "seed=2,kill=1@0,scan_corrupt=0.02,result_dup=0.1")
        with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                            workers=2, batch_size=16, seed=3,
                            fault_plan=plan) as fuzzer:
            report = fuzzer.run(executions=96)
        assert report.verdict_summary() == _SerialVerdicts.fuzz()
        assert report.resilience.worker_respawns == 1

    def test_empty_plan_changes_nothing(self):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    fault_plan=FaultPlan()) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _SerialVerdicts.engine()
        assert not report.resilience.worker_respawns
        assert not report.resilience.lease_reissues

    def test_chaos_matrix_cell(self):
        """One CI chaos-matrix cell: seed and worker count come from the
        environment (defaults make it a plain local test)."""
        seed = int(os.environ.get("REPRO_CHAOS_SEED", "1"))
        workers = int(os.environ.get("REPRO_CHAOS_WORKERS", "2"))
        # Kill on the victim's first job so the kill fires whenever that
        # worker is leased at all (high worker counts thin out leases).
        plan = FaultPlan(seed=seed, scan_corrupt_rate=0.03,
                         mmio_drop_rate=0.01, result_dup_rate=0.05,
                         link_down_rate=0.01,
                         worker_kills=((seed % workers, 0),))
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=workers,
                                    searcher="bfs",
                                    fault_plan=plan) as engine:
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _SerialVerdicts.engine()
        assert report.resilience.any  # some fault fired and was healed


class TestResilienceStats:
    def test_merge_and_delta(self):
        a = ResilienceStats(link_retries=2, backoff_s=0.5)
        a.merge(ResilienceStats(link_retries=1, degraded=True))
        assert a.link_retries == 3 and a.degraded
        base = a.as_dict()
        a.merge({"link_retries": 4})
        assert a.delta(base)["link_retries"] == 4

    def test_summary_clean_and_dirty(self):
        assert "clean" in ResilienceStats().summary()
        text = ResilienceStats(worker_respawns=2, degraded=True).summary()
        assert "worker_respawns=2" in text and "DEGRADED" in text
