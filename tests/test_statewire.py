"""Tests for repro.parallel.statewire — the delta-encoded software-state
wire.

The headline property: ``decode(encode(state))`` reproduces the state
**byte-identically** (``pickle.dumps`` equality — memory pages,
constraints, registers, lineage, bookkeeping) at every fork depth, so
swapping full pickles for deltas can never perturb parallel verdicts.
The rest pins down the codec's economics (pages by reference,
constraint suffixes, expression-table reuse), its retention (a page
body stays resolvable for the whole conversation) and its failure
behaviour (a forgotten peer gets a self-contained delta; divergence
fails loudly).
"""

import pickle

import pytest

from repro.core import HardSnapSession
from repro.errors import SnapshotIntegrityError
from repro.firmware import TIMER_BASE, dispatcher
from repro.parallel import ParallelAnalysisEngine, StateWire, StateWireStats
from repro.parallel.statewire import KIND_DELTA, KIND_FULL
from repro.peripherals import catalog
from repro.resilience import FaultPlan
from repro.solver import expr as E
from repro.vm.memory import PAGE_SIZE, SymbolicMemory
from repro.vm.state import ExecState

TIMER = [(catalog.TIMER, TIMER_BASE)]
FIRMWARE = dispatcher(5, work_cycles=8)


def _root_state(mem_size: int = 16 * PAGE_SIZE) -> ExecState:
    """A root state with a few concrete pages, one symbolic page, and a
    seed constraint — shaped like a post-boot firmware state."""
    mem = SymbolicMemory(mem_size)
    mem.load_image({i: (i * 7 + 3) & 0xFF for i in range(600)})
    x = E.var("x", 32)
    mem.write(0x400, x, 4)  # symbolic page
    state = ExecState(memory=mem, pc=0x40)
    state.set_reg(0, 17)
    state.set_reg(1, E.add(x, E.const(5, 32)))
    state.add_constraint(E.ult(x, E.const(0x1000, 32)))
    return state


def _fork_chain(depth: int) -> list:
    """Root plus one fork per level; each level dirties one page and
    appends one constraint, like a branchy execution."""
    states = [_root_state()]
    for level in range(depth):
        child = states[-1].fork()
        child.pc += 4
        child.steps += 3
        child.memory.write(0x800 + (level % 8) * PAGE_SIZE,
                           0xA0 + (level & 0xF), 1)
        y = E.var(f"y{level % 5}", 32)
        child.add_constraint(E.eq(E.and_(y, E.const(level + 1, 32)),
                                  E.const(0, 32)))
        if level % 3 == 0:
            child.set_reg(2, E.xor(y, E.const(level, 32)))
        states.append(child)
    return states


def _roundtrip(sender, receiver, state, peer="w"):
    kind, record, bodies = sender.encode_state(state, peer)
    return kind, receiver.decode_state(kind, record, bodies, "c")


class TestByteIdenticalRoundTrip:
    @pytest.mark.parametrize("depth", [0, 1, 7, 33, 100])
    def test_fork_chain_roundtrips_byte_identically(self, depth):
        sender, receiver = StateWire(), StateWire()
        for state in _fork_chain(depth):
            ref = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
            kind, back = _roundtrip(sender, receiver, state)
            assert kind == KIND_DELTA
            got = pickle.dumps(back, protocol=pickle.HIGHEST_PROTOCOL)
            assert got == ref, f"depth {state.depth} diverged"
            assert back.lineage == state.lineage
            assert back.regs == state.regs
            assert all(a is b for a, b in
                       zip(back.constraints, state.constraints))

    def test_lease_states_roundtrip_byte_identically(self):
        """Same property on states produced by a real engine lease
        (post-boot memory, solver-built constraints)."""
        session = HardSnapSession(dispatcher(4), TIMER)
        state = session.make_initial_state()
        outcome = session.engine.run_lease(state, max_instructions=0)
        shipped = ([state] if state.is_active else []) + list(outcome.forks)
        assert shipped
        sender, receiver = StateWire(), StateWire()
        for s in shipped:
            s.hw_snapshot = None
            ref = pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL)
            _, back = _roundtrip(sender, receiver, s)
            assert pickle.dumps(
                back, protocol=pickle.HIGHEST_PROTOCOL) == ref

    def test_full_kind_roundtrips_and_warms_registries(self):
        sender, receiver = StateWire(delta=False), StateWire()
        root = _root_state()
        kind, record, bodies = sender.encode_state(root, "w")
        assert kind == KIND_FULL and bodies == {}
        back = receiver.decode_state(kind, record, bodies, "c")
        assert pickle.dumps(back) == pickle.dumps(root)
        # The full ship warmed both ends: the next (delta) ship of a
        # fork references every unchanged page and ships only the
        # constraint suffix.
        sender.delta = True
        child = root.fork()
        child.add_constraint(E.eq(E.var("z", 8), E.const(1, 8)))
        before = sender.stats.pages_shipped
        kind, record, bodies = sender.encode_state(child, "w")
        assert kind == KIND_DELTA
        assert sender.stats.pages_shipped == before  # all by reference
        back = receiver.decode_state(kind, record, bodies, "c")
        assert pickle.dumps(back) == pickle.dumps(child)


class TestDeltaEconomics:
    def test_unchanged_pages_travel_as_references(self):
        sender, receiver = StateWire(), StateWire()
        root = _root_state()
        _roundtrip(sender, receiver, root)
        first_shipped = sender.stats.pages_shipped
        assert first_shipped > 0
        child = root.fork()
        child.memory.write_byte(0x900, 0x5A)  # dirty exactly one page
        _roundtrip(sender, receiver, child)
        assert sender.stats.pages_shipped == first_shipped + 1
        assert sender.stats.pages_referenced >= first_shipped - 1

    def test_constraint_suffix_only(self):
        sender, receiver = StateWire(), StateWire()
        chain = _fork_chain(20)
        for state in chain:
            _roundtrip(sender, receiver, state)
        # Each ship after the root added exactly one constraint; the
        # registry lets every ship carry only that suffix.
        assert sender.stats.constraints_total == sum(
            len(s.constraints) for s in chain)
        assert sender.stats.constraints_suffix == len(chain)

    def test_shared_dag_nodes_serialize_once_per_peer(self):
        sender, receiver = StateWire(), StateWire()
        x = E.var("x", 32)
        a = _root_state()
        _roundtrip(sender, receiver, a)
        sent_after_first = sender.stats.expr_nodes_sent
        b = a.fork()
        # Reuses x and the interned constants already in the table.
        b.add_constraint(E.ult(x, E.const(0x1000, 32)))
        _roundtrip(sender, receiver, b)
        assert sender.stats.expr_nodes_sent == sent_after_first
        assert sender.stats.expr_nodes_reused >= 1

    def test_delta_beats_full_pickle_on_fork_chain(self):
        """The codec's reason to exist: ≥ 4x fewer bytes per shipped
        state than full pickles on a forking workload."""
        sender, receiver = StateWire(), StateWire()
        chain = _fork_chain(40)
        full_bytes = sum(
            len(pickle.dumps(s, protocol=pickle.HIGHEST_PROTOCOL))
            for s in chain)
        for state in chain:
            _roundtrip(sender, receiver, state)
        assert sender.stats.state_bytes_delta * 4 <= full_bytes


class TestRegistryLifecycle:
    def test_page_referenced_after_8300_distinct_pages_resolves(self):
        """Regression: the receiver used to LRU-evict page bodies (cap
        8 192) while the sender still sent them by reference. Here one
        conversation ships 8 300 distinct one-page states, then the
        first one again. No notice is exchanged in between, as inside
        one envelope or in a batch the coordinator packs before it
        decodes the peer's reply; the reference must still resolve."""
        sender, receiver = StateWire(), StateWire()
        states = []
        for i in range(8300):
            mem = SymbolicMemory(PAGE_SIZE)
            mem.load_image({0: i & 0xFF, 1: i >> 8})
            states.append(ExecState(memory=mem, pc=0x40))
            _roundtrip(sender, receiver, states[-1])
        assert sender.stats.pages_shipped == 8300
        kind, record, bodies = sender.encode_state(states[0], "w")
        assert kind == KIND_DELTA and not bodies  # by reference
        back = receiver.decode_state(kind, record, bodies, "c")
        assert pickle.dumps(back) == pickle.dumps(states[0])

    def test_forget_peer_clears_conversation(self):
        sender = StateWire()
        root = _root_state()
        sender.encode_state(root, "w")
        assert "w" in sender.peers
        sender.forget_peer("w")
        assert "w" not in sender.peers
        # A fresh conversation re-ships everything (self-contained).
        receiver = StateWire()
        _, back = _roundtrip(sender, receiver, root)
        assert pickle.dumps(back) == pickle.dumps(root)

    def test_unknown_page_reference_fails_loudly(self):
        sender, receiver = StateWire(), StateWire()
        root = _root_state()
        _roundtrip(sender, receiver, root)
        child = root.fork()
        child.add_constraint(E.eq(E.var("q", 8), E.const(0, 8)))
        kind, record, bodies = sender.encode_state(child, "w")
        assert not bodies  # pages all by reference now
        cold = StateWire()  # never saw the first ship
        with pytest.raises(SnapshotIntegrityError):
            cold.decode_state(kind, record, bodies, "c")

    def test_base_checksum_divergence_fails_loudly(self):
        sender, receiver = StateWire(), StateWire()
        root = _root_state()
        _roundtrip(sender, receiver, root)
        child = root.fork()
        child.add_constraint(E.eq(E.var("q", 8), E.const(0, 8)))
        kind, record, bodies = sender.encode_state(child, "w")
        # Corrupt the receiver's registry entry for the ancestor.
        receiver.peers["c"].bases[root.lineage] = [
            E.eq(E.var("other", 8), E.const(3, 8))]
        with pytest.raises(SnapshotIntegrityError):
            receiver.decode_state(kind, record, bodies, "c")

    def test_stats_merge_and_dict(self):
        a = StateWireStats(states_sent=2, state_bytes_delta=100,
                           delta_states=2)
        a.merge(StateWireStats(states_sent=1, state_bytes_full=400,
                               full_states=1))
        assert a.states_sent == 3
        d = a.as_dict()
        assert d["state_bytes_full"] == 400
        assert d["delta_ratio"] == 8.0  # 400/1 vs 100/2


class TestParallelIntegration:
    def _serial(self):
        return HardSnapSession(FIRMWARE, TIMER, searcher="bfs").run(
            max_instructions=100_000).verdict_summary()

    def test_parallel_delta_matches_serial_and_saves_bytes(self):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs") as engine:
            report = engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert report.verdict_summary() == self._serial()
        sw = stats.state_wire
        assert sw.delta_states > 0
        assert sw.full_states == 0
        assert sw.state_bytes_delta > 0
        assert sw.pages_referenced > 0

    def test_parallel_full_pickle_baseline_matches_serial(self):
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    delta_state=False) as engine:
            report = engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert report.verdict_summary() == self._serial()
        sw = stats.state_wire
        assert sw.full_states > 0
        assert sw.delta_states == 0
        assert sw.state_bytes_full > 0

    def test_respawn_repack_needs_no_full_pickle(self):
        """Chaos: kill a worker mid-run. The coordinator forgets the
        dead incarnation's registries, so the re-packed leases are
        ordinary deltas that ship everything the replacement lacks —
        no full pickle — and the verdicts stay byte-identical to
        serial."""
        plan = FaultPlan.parse("seed=7,kill=1@0")
        with ParallelAnalysisEngine(FIRMWARE, TIMER, workers=2,
                                    searcher="bfs",
                                    fault_plan=plan) as engine:
            report = engine.run(max_instructions=100_000)
            stats = engine.pool_stats
        assert report.verdict_summary() == self._serial()
        assert report.resilience.worker_respawns == 1
        sw = stats.state_wire
        assert sw.delta_states > 0  # all traffic stayed delta
        assert sw.full_states == 0  # the recovery re-pack included
