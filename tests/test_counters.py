"""The one merge rule every stats record follows (repro.counters): counts
add, flags OR, a missing key counts as 0, and a delta carries only what
changed."""

from dataclasses import dataclass

from repro.core.snapshot import SnapshotStats
from repro.core.store import StoreStats
from repro.counters import Counters
from repro.parallel import StateWireStats
from repro.parallel.pool import IpcStats
from repro.parallel.wire import WireStats
from repro.resilience import ResilienceStats
from repro.solver import SolverStats


@dataclass
class Sample(Counters):
    hits: int = 0
    seconds: float = 0.0
    degraded: bool = False


class TestMerge:
    def test_counts_add(self):
        a = Sample(hits=2, seconds=0.5)
        a.merge(Sample(hits=3, seconds=0.25))
        assert (a.hits, a.seconds) == (5, 0.75)

    def test_flags_or(self):
        a = Sample()
        a.merge(Sample(degraded=False))
        assert a.degraded is False
        a.merge({"degraded": True})
        assert a.degraded is True
        a.merge(Sample(degraded=False))
        assert a.degraded is True

    def test_missing_keys_count_as_zero(self):
        a = Sample(hits=1, degraded=True)
        a.merge({})
        a.merge({"seconds": 1.5, "unknown": 9})
        assert a == Sample(hits=1, seconds=1.5, degraded=True)


class TestDelta:
    def test_only_changed_counts_travel(self):
        a = Sample(hits=5, seconds=1.0)
        base = a.as_dict()
        assert a.delta(base) == {}
        a.hits += 2
        assert a.delta(base) == {"hits": 2}

    def test_levels_travel_as_they_stand(self):
        a = Sample(degraded=True)
        base = a.as_dict()
        assert a.delta(base) == {"degraded": True}

    def test_deltas_merge_back_to_the_total(self):
        worker, total = Sample(), Sample()
        for hits, seconds in ((1, 0.5), (4, 0.0), (0, 2.0)):
            base = worker.as_dict()
            worker.hits += hits
            worker.seconds += seconds
            total.merge(worker.delta(base))
        assert total == worker

    def test_baseline_missing_a_key_counts_it_from_zero(self):
        assert Sample(hits=3).delta({}) == {"hits": 3}


class TestRecords:
    """The shipped records follow the rule and keep their field names."""

    RECORDS = (SnapshotStats, StoreStats, SolverStats, WireStats,
               StateWireStats, ResilienceStats, IpcStats)

    def test_every_record_is_counters(self):
        for record in self.RECORDS:
            assert issubclass(record, Counters), record

    def test_as_dict_keys(self):
        assert set(IpcStats().as_dict()) == {
            "messages_out", "messages_in", "queue_bytes_out",
            "queue_bytes_in", "encode_s", "decode_s", "worker_encode_s",
            "worker_decode_s"}
        state_wire = StateWireStats().as_dict()
        assert "delta_ratio" in state_wire
        assert {"states_sent", "state_bytes_full",
                "state_bytes_delta"} <= set(state_wire)
        assert "payload_bits_sent" in WireStats().as_dict()

    def test_state_wire_merge_ignores_its_derived_ratio(self):
        a = StateWireStats(states_sent=1)
        a.merge(StateWireStats(states_sent=2, delta_states=2,
                               state_bytes_delta=10))
        assert (a.states_sent, a.delta_states) == (3, 2)
