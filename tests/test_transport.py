"""Tests for the pool's one IPC path: packed batch envelopes over
``mp.Queue`` (repro.parallel.envelope), the content pool's retention,
the legacy ``transport`` keyword, and verdict identity with serial runs
— fault-free and under worker kills, result loss and duplication."""

import pickle

import pytest

from repro.core import HardSnapSession, SnapshotController, SnapshotFuzzer
from repro.core.persistence import snapshot_to_wire
from repro.firmware import TIMER_BASE, dispatcher, fuzz_packet_parser
from repro.isa import assemble
from repro.parallel import (ChunkChannel, ContentPool,
                            ParallelAnalysisEngine, ParallelFuzzer,
                            StateWire, WireStats)
from repro.parallel.envelope import (pack_fuzz_batch, pack_fuzz_results,
                                     pack_lease_batch, pack_lease_results,
                                     stamp_encode_time, unpack_fuzz_batch,
                                     unpack_fuzz_results, unpack_lease_batch,
                                     unpack_lease_results)
from repro.parallel.statewire import KIND_DELTA
from repro.peripherals import catalog
from repro.resilience import FaultPlan
from repro.solver import expr as E
from repro.targets import FpgaTarget
from repro.targets.base import HwSnapshot
from repro.vm.memory import PAGE_SIZE, SymbolicMemory
from repro.vm.state import ExecState

TIMER = [(catalog.TIMER, TIMER_BASE)]
FIRMWARE = dispatcher(4, work_cycles=8)
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]


def _fuzz_target():
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    target.reset()
    return target


def _timer_wire():
    target = _fuzz_target()
    target.step(5)
    return snapshot_to_wire(SnapshotController(target).save())


_SERIAL = {}


def _engine_serial():
    if "engine" not in _SERIAL:
        _SERIAL["engine"] = HardSnapSession(
            FIRMWARE, TIMER, scan_mode="functional").run(
            max_instructions=100_000).verdict_summary()
    return _SERIAL["engine"]


def _fuzz_serial(executions):
    key = ("fuzz", executions)
    if key not in _SERIAL:
        _SERIAL[key] = SnapshotFuzzer(
            assemble(fuzz_packet_parser()), _fuzz_target(),
            seeds=SEEDS, seed=3).run(
            executions=executions, batch_size=16).verdict_summary()
    return _SERIAL[key]


class TestEnvelope:
    def _lease(self, wire):
        mem = SymbolicMemory(4 * PAGE_SIZE)
        mem.load_image({i: (i * 7 + 3) & 0xFF for i in range(64)})
        state = ExecState(memory=mem, pc=0x40)
        state.add_constraint(E.ult(E.var("x", 32), E.const(9, 32)))
        return {"budget": 7, "sym_base": 2_000_000,
                "state": state, "wire": wire}

    def test_lease_batch_roundtrip_queue(self):
        wire = _timer_wire()
        leases = [self._lease(wire),
                  {"budget": 0, "sym_base": 1_000_000,
                   "state": None, "wire": None}]
        buf = pack_lease_batch(leases, "w0", statewire=StateWire())
        back = unpack_lease_batch(buf)
        assert len(back) == 2
        assert back[0]["budget"] == 7
        assert back[0]["sym_base"] == 2_000_000
        assert back[0]["state_kind"] == KIND_DELTA
        state = StateWire().decode_state(
            back[0]["state_kind"], back[0]["state"],
            back[0]["state_chunks"], "coord")
        assert pickle.dumps(state) == pickle.dumps(leases[0]["state"])
        assert back[0]["wire"].refs == wire.refs
        assert back[0]["wire"].chunks == wire.chunks
        assert back[0]["wire"].method == wire.method
        assert back[1]["state"] is None and back[1]["wire"] is None

    def test_lease_results_roundtrip_and_stamp(self):
        wire = _timer_wire()
        res = {"executed": 42, "paused": False,
               "continuation": (1, b"contblob", {}, wire),
               "children": [(2, b"childblob", {"page": b"\x00" * 8}, wire)],
               "completed": None, "bugs": [], "coverage": [1, 2, 3],
               "modelled_dt": 0.5,
               "stats": {"controller": {"saves": 1},
                         "channel": {"snapshots_sent": 3}}}
        buf = bytearray(pack_lease_results([res], decode_s=0.25))
        stamp_encode_time(buf, 1.5)
        enc, dec, back = unpack_lease_results(buf)
        assert enc == 1.5 and dec == 0.25
        assert back[0]["executed"] == 42
        assert back[0]["coverage"] == [1, 2, 3]
        assert back[0]["stats"]["channel"] == {"snapshots_sent": 3}
        kind, blob, bodies, cwire = back[0]["continuation"]
        assert kind == 1 and blob == b"contblob" and bodies == {}
        assert cwire.refs == wire.refs and cwire.chunks == wire.chunks
        (kind, blob, bodies, _wire), = back[0]["children"]
        assert (kind, blob, bodies) == (2, b"childblob",
                                        {"page": b"\x00" * 8})

    def test_fuzz_batch_and_results_roundtrip(self):
        items = [(0, b"\x01\x02"), (1, b""), (5, b"\xff" * 40)]
        assert unpack_fuzz_batch(pack_fuzz_batch(items)) == items

        res = {"modelled_dt": 0.75, "resets": 3, "resilience": {},
               "results": [(0, b"edges", None, -1),
                           (1, b"", "mem-oob", 0x40)]}
        buf = bytearray(pack_fuzz_results(res, decode_s=0.1))
        stamp_encode_time(buf, 0.2)
        enc, dec, back = unpack_fuzz_results(buf)
        assert enc == 0.2 and dec == 0.1
        assert back["resets"] == 3
        assert back["results"] == res["results"]


class TestTransportSelection:
    """The coordinators keep a ``transport`` keyword for old callers:
    ``auto`` and ``queue`` mean the queue, anything else is refused."""

    @pytest.mark.parametrize("make", [
        lambda t: ParallelAnalysisEngine(FIRMWARE, TIMER, transport=t),
        lambda t: ParallelFuzzer(fuzz_packet_parser(), TIMER, transport=t),
    ], ids=["engine", "fuzzer"])
    def test_shm_transport_rejected(self, make):
        with pytest.raises(ValueError, match="shared-memory transport "
                                             "was removed"):
            make("shm")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="carrier-pigeon"):
            ParallelAnalysisEngine(FIRMWARE, TIMER,
                                   transport="carrier-pigeon")


class TestChunkChannelBounds:
    """JSON-safe delta_ratio."""

    def test_delta_ratio_finite_when_reference_only(self):
        stats = WireStats(logical_bits_sent=4096, payload_bits_sent=0)
        assert stats.delta_ratio == 4096.0  # finite, JSON-safe
        assert WireStats().delta_ratio == 1.0
        import json
        json.dumps(stats.delta_ratio)  # must not raise / produce inf


class TestContentPool:
    def test_bodies_stay_while_peer_lives_and_forget_is_per_peer(self):
        pool = ContentPool()
        for i in range(10_000):
            pool.share("w0", f"d{i}", {"v": i})
        pool.share("w1", "d0", {"v": 0})
        assert all(pool.holds("w0", f"d{i}") for i in range(10_000))
        assert pool.bodies["d0"] == {"v": 0} and len(pool.bodies) == 10_000
        assert pool.holds("w1", "d0") and not pool.holds("w1", "d1")
        pool.forget_peer("w0")
        assert not pool.holds("w0", "d0")
        assert pool.held == {"w1": {"d0"}}
        assert len(pool.bodies) == 10_000  # bodies outlive the peer

    def test_chunk_referenced_after_4200_distinct_snapshots_resolves(self):
        """Regression: the receiver used to LRU-evict chunk bodies (cap
        4 096) while the sender still sent them by reference. One
        channel conversation ships 4 200 distinct snapshots, then the
        first one again, with no notice exchanged in between; the
        reference must still resolve."""
        sender, receiver = ChunkChannel(), ChunkChannel()
        snapshots = [HwSnapshot(states={"timer": {"cycle": i, "count": i}})
                     for i in range(4200)]
        for snapshot in snapshots:
            receiver.decode(sender.encode(snapshot, "coord"), "w0")
        wire = sender.encode(snapshots[0], "coord")
        assert wire.chunks == {}  # by reference
        assert receiver.decode(wire, "w0").states == snapshots[0].states


class TestPoolIntegration:
    def test_respawn_clears_channel_known(self):
        """A respawned worker starts with an empty chunk pool, so the
        coordinator's recovery path must forget what the dead
        incarnation held — otherwise the fresh worker receives
        reference-only wires it cannot resolve — and must leave every
        other peer's known-set alone."""
        plan = FaultPlan.parse("seed=7,kill=0@1")
        forgotten = []
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    scan_mode="functional",
                                    fault_plan=plan) as engine:
            forget = engine._forget_peer

            def spy(worker_id):
                before = {peer: set(held) for peer, held
                          in engine.channel.pool.held.items()}
                forget(worker_id)
                forgotten.append((worker_id, before,
                                  dict(engine.channel.pool.held)))

            engine._forget_peer = spy
            report = engine.run(max_instructions=100_000)
        assert report.verdict_summary() == _engine_serial()
        assert len(forgotten) == 1
        dead, before, after = forgotten[0]
        assert dead == 0 and before.get(0)
        assert 0 not in after  # cleared
        assert before[1] and after[1] == before[1]  # untouched


class TestVerdictIdentityAcrossTransports:
    """Both accepted ``transport`` values run the queue path, and both
    reproduce the serial verdicts at 2 workers."""

    @pytest.mark.parametrize("transport", ["queue", "auto"])
    def test_engine_verdicts(self, transport):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    transport=transport,
                                    scan_mode="functional") as engine:
            report = engine.run(max_instructions=100_000)
            assert engine.pool.stats.ipc.queue_bytes_out > 0
        assert report.verdict_summary() == _engine_serial()

    @pytest.mark.parametrize("transport", ["queue", "auto"])
    def test_fuzzer_verdicts(self, transport):
        with ParallelFuzzer(fuzz_packet_parser(), TIMER,
                            seeds=SEEDS, seed=3, workers=2,
                            batch_size=16,
                            transport=transport) as fuzzer:
            report = fuzzer.run(executions=48)
        assert report.verdict_summary() == _fuzz_serial(48)


class TestChaosVerdicts:
    """Worker kills, result loss and duplication change how much
    recovery a run reports, never what it concludes."""

    def test_engine_chaos_matches_serial(self):
        plan = FaultPlan.parse(
            "seed=7,kill=1@0,result_loss=0.1,result_dup=0.1")
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    scan_mode="functional",
                                    fault_plan=plan) as engine:
            report = engine.run(max_instructions=100_000)
            assert engine.pool.stats.resilience.worker_respawns >= 1
        assert report.verdict_summary() == _engine_serial()

    def test_fuzzer_chaos_matches_serial(self):
        plan = FaultPlan.parse("seed=2,kill=0@0,result_dup=0.2")
        with ParallelFuzzer(fuzz_packet_parser(), TIMER,
                            seeds=SEEDS, seed=3, workers=2,
                            batch_size=16, fault_plan=plan) as fuzzer:
            report = fuzzer.run(executions=32)
            assert fuzzer.pool.stats.resilience.worker_respawns >= 1
        assert report.verdict_summary() == _fuzz_serial(32)
