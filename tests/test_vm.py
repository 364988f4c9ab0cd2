"""Symbolic VM tests: memory COW, executor semantics (differential vs the
concrete CPU), forking, detectors, concretization, searchers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConcretizationError, VmError
from repro.isa import Cpu, assemble
from repro.solver import Solver
from repro.solver import expr as E
from repro.vm import (COMPLETENESS, PERFORMANCE, ConcretizationPolicy,
                      MmioBridge, SymbolicExecutor, SymbolicMemory,
                      make_searcher)
from repro.vm.state import ExecState, STATUS_ERROR, STATUS_HALTED


class TestSymbolicMemory:
    def test_basic_word_roundtrip(self):
        mem = SymbolicMemory(4096)
        mem.write(0x100, 0xDEADBEEF, 4)
        assert mem.read(0x100, 4) == 0xDEADBEEF
        assert mem.read(0x100, 1) == 0xEF  # little-endian

    def test_unwritten_reads_zero(self):
        mem = SymbolicMemory(4096)
        assert mem.read(0x200, 4) == 0

    def test_cow_fork_isolation(self):
        parent = SymbolicMemory(4096)
        parent.write(0, 0x11, 1)
        child = parent.fork()
        child.write(0, 0x22, 1)
        parent.write(4, 0x33, 1)
        assert parent.read(0, 1) == 0x11
        assert child.read(0, 1) == 0x22
        assert child.read(4, 1) == 0  # parent's later write not visible

    def test_fork_shares_untouched_pages(self):
        parent = SymbolicMemory(4096)
        parent.write(0, 0xAB, 1)
        child = parent.fork()
        assert child.read(0, 1) == 0xAB

    def test_symbolic_byte_promotes_word(self):
        mem = SymbolicMemory(4096)
        mem.write(0x10, 0x11223344, 4)
        mem.write_byte(0x11, E.var("mb", 8))
        word = mem.read(0x10, 4)
        assert isinstance(word, E.BitVec)
        # Concrete bytes still recoverable.
        assert word.evaluate({E.var("mb", 8): 0x99}) == 0x11229944

    def test_symbolic_word_write_scatters(self):
        mem = SymbolicMemory(4096)
        v = E.var("mw", 32)
        mem.write(0, v, 4)
        b0 = mem.read_byte(0)
        assert isinstance(b0, E.BitVec) and b0.width == 8
        assert mem.symbolic_byte_count() == 4

    def test_bounds_checked(self):
        mem = SymbolicMemory(4096)
        with pytest.raises(VmError):
            mem.read(4096, 1)
        with pytest.raises(VmError):
            mem.write(4094, 0, 4)

    def test_image_pages_equal_a_loaded_image_and_copy_on_write(self):
        import pickle

        from repro.firmware import init_heavy
        from repro.isa.predecode import decoded_image
        image = decoded_image(assemble(init_heavy(200, 16)))
        loaded = SymbolicMemory(64 * 1024)
        loaded.load_image(image.image)
        first = SymbolicMemory.from_image(64 * 1024, image)
        assert pickle.dumps(first) == pickle.dumps(loaded)
        second = SymbolicMemory.from_image(64 * 1024, image)
        first.write(0x10, 0xDEADBEEF, 4)  # code: demotes only `first`
        assert not first.code_clean and second.code_clean
        assert pickle.dumps(second) == pickle.dumps(loaded)
        with pytest.raises(VmError):
            SymbolicMemory.from_image(256 * ((image.code_limit - 1) // 256),
                                      image)

    def test_concrete_bytes_rejects_symbolic(self):
        mem = SymbolicMemory(4096)
        mem.write_byte(5, E.var("cb", 8))
        with pytest.raises(VmError):
            mem.concrete_bytes(4, 4)

    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(st.tuples(st.integers(0, 1023),
                                  st.integers(0, 2**32 - 1),
                                  st.sampled_from([1, 2, 4])),
                        min_size=1, max_size=40))
    def test_property_matches_bytearray(self, ops):
        mem = SymbolicMemory(4096)
        shadow = bytearray(4096)
        for addr, value, size in ops:
            mem.write(addr, value, size)
            shadow[addr:addr + size] = (value & ((1 << (8 * size)) - 1)) \
                .to_bytes(size, "little")
        for addr, _, size in ops:
            expect = int.from_bytes(shadow[addr:addr + size], "little")
            assert mem.read(addr, size) == expect


DIFFERENTIAL_PROGRAMS = [
    """
    start:
        movi r1, 0x1234
        movi r2, 0x00FF
        and r3, r1, r2
        or r4, r1, r2
        xor r5, r3, r4
        halt r5
    """,
    """
    start:
        movi r1, 10
        movi r2, 0
    loop:
        add r2, r2, r1
        dec r1
        bne r1, r0, loop
        halt r2
    """,
    """
    start:
        movi r1, 0x800
        movi r2, 0xCAFEBABE
        sw r2, 0(r1)
        lbu r3, 1(r1)
        lb r4, 3(r1)
        add r5, r3, r4
        halt r5
    """,
    """
    start:
        movi r1, 97
        movi r2, 13
        divu r3, r1, r2
        remu r4, r1, r2
        mul r5, r3, r2
        add r5, r5, r4
        sub r5, r5, r1
        halt r5
    """,
]


class TestExecutorConcrete:
    @pytest.mark.parametrize("src", DIFFERENTIAL_PROGRAMS)
    def test_differential_vs_cpu(self, src):
        """Concrete programs: the symbolic executor must agree with the
        reference core exactly."""
        prog = assemble(src)
        cpu_exit = Cpu(prog).run()
        executor = SymbolicExecutor(prog, bridge=None)
        state = executor.make_initial_state()
        while state.is_active:
            executor.step(state)
        assert state.status == STATUS_HALTED
        assert state.halt_code == cpu_exit.code

    def test_illegal_opcode_detected(self):
        prog = assemble("start: .word 0xFC000000\n")
        executor = SymbolicExecutor(prog, bridge=None)
        state = executor.make_initial_state()
        executor.step(state)
        assert state.status == STATUS_ERROR
        assert executor.bugs[0].kind == "illegal-instruction"

    def test_oob_store_detected_with_backtrace(self):
        prog = assemble("""
        start:
            movi r1, 0x20000
            sw r0, 0(r1)
            halt r0
        """)
        executor = SymbolicExecutor(prog, bridge=None, ram_size=64 * 1024)
        state = executor.make_initial_state()
        while state.is_active:
            executor.step(state)
        bug = executor.bugs[0]
        assert bug.kind == "out-of-bounds-write"
        assert bug.backtrace  # recent control flow captured


class TestExecutorSymbolic:
    def _explore(self, src, **kw):
        prog = assemble(src)
        executor = SymbolicExecutor(prog, bridge=None, **kw)
        states = [executor.make_initial_state()]
        done = []
        while states:
            state = states.pop()
            if not state.is_active:
                done.append(state)
                continue
            outcome = executor.step(state)
            states.extend(outcome.forks)
            states.append(state) if state.is_active else done.append(state)
        return executor, done

    def test_fork_on_symbolic_branch(self):
        executor, done = self._explore("""
        start:
            sym r1
            movi r2, 100
            bltu r1, r2, small
            movi r3, 1
            halt r3
        small:
            movi r3, 2
            halt r3
        """)
        codes = sorted(s.halt_code for s in done
                       if s.status == STATUS_HALTED)
        assert codes == [1, 2]
        assert executor.sat_forks == 1

    def test_infeasible_branch_not_forked(self):
        executor, done = self._explore("""
        start:
            sym r1
            andi r1, r1, 0xF     ; r1 in [0, 15]
            movi r2, 100
            bltu r1, r2, small   ; always true
            movi r3, 1
            halt r3
        small:
            movi r3, 2
            halt r3
        """)
        codes = [s.halt_code for s in done if s.status == STATUS_HALTED]
        assert codes == [2]
        assert executor.sat_forks == 0

    def test_test_case_satisfies_path(self):
        executor, done = self._explore("""
        start:
            sym r1
            movi r2, 0x1337
            bne r1, r2, other
            movi r3, 0xAA
            halt r3
        other:
            movi r3, 0xBB
            halt r3
        """)
        match = [s for s in done if s.halt_code == 0xAA][0]
        model = executor.solver.check(match.constraints)
        assert model.is_sat
        value = list(model.model.values())[0]
        assert value == 0x1337

    def test_assert_counterexample(self):
        executor, done = self._explore("""
        start:
            sym r1
            andi r1, r1, 0xFF
            movi r2, 200
            sltu r3, r1, r2      ; claim: r1 < 200 ... falsifiable
            assert r3
            halt r0
        """)
        bug = executor.bugs[0]
        assert bug.kind == "assertion-failure"
        value = list(bug.test_case.values())[0]
        assert value & 0xFF >= 200

    def test_assume_prunes(self):
        executor, done = self._explore("""
        start:
            sym r1
            andi r1, r1, 0xFF
            movi r2, 10
            sltu r3, r1, r2
            assume r3            ; r1 < 10
            movi r2, 50
            bltu r1, r2, fine    ; must be true now
            halt r0
        fine:
            movi r3, 7
            halt r3
        """)
        codes = [s.halt_code for s in done if s.status == STATUS_HALTED]
        assert codes == [7]

    def test_symbolic_memory_index_oob_found(self):
        """A symbolic store index reaching past the buffer — the classic
        OOB write KLEE-style detection."""
        executor, done = self._explore("""
        start:
            sym r1
            movi r4, 0x3FFFF      ; up to 256K: beyond 64K RAM
            and r1, r1, r4
            movi r2, 0x1000
            add r2, r2, r1
            sw r0, 0(r2)
            halt r0
        """)
        # Performance policy picks one value; OOB only if that value is
        # out of range. Use solver to steer: constraint-free pick may or
        # may not be OOB, so accept either a bug or a clean halt but the
        # engine must not crash.
        assert done or executor.bugs


class TestConcretization:
    def _bridged(self, policy):
        class FakeHw:
            def __init__(self):
                self.log = []
            def read(self, addr):
                self.log.append(("r", addr))
                return 0x5A
            def write(self, addr, value):
                self.log.append(("w", addr, value))
            def irq_lines(self):
                return {}
            def step(self, cycles):
                pass
        solver = Solver()
        hw = FakeHw()
        return MmioBridge(hw, solver, policy), hw, solver

    def test_performance_pins_single_value(self):
        bridge, hw, solver = self._bridged(
            ConcretizationPolicy(PERFORMANCE))
        state = ExecState(memory=SymbolicMemory(4096))
        v = E.var("cz1", 32)
        state.add_constraint(E.ult(v, E.const(10, 32)))
        pairs = bridge.concretize(state, v, "test")
        assert len(pairs) == 1
        st_out, value = pairs[0]
        assert st_out is state and value < 10
        # pinned: the same value on re-query
        assert solver.eval_upto(v, state.constraints, 4) == [value]

    def test_completeness_forks_per_value(self):
        bridge, hw, solver = self._bridged(
            ConcretizationPolicy(COMPLETENESS, limit=8))
        state = ExecState(memory=SymbolicMemory(4096))
        v = E.var("cz2", 32)
        state.add_constraint(E.ult(v, E.const(3, 32)))
        pairs = bridge.concretize(state, v, "test")
        assert sorted(value for _, value in pairs) == [0, 1, 2]
        assert pairs[0][0] is state
        assert all(p[0] is not state for p in pairs[1:])
        assert bridge.forks_induced == 2

    def test_completeness_respects_limit(self):
        bridge, _, _ = self._bridged(ConcretizationPolicy(COMPLETENESS,
                                                          limit=4))
        state = ExecState(memory=SymbolicMemory(4096))
        v = E.var("cz3", 32)
        pairs = bridge.concretize(state, v, "test")
        assert len(pairs) == 4

    def test_concrete_passthrough(self):
        bridge, _, _ = self._bridged(ConcretizationPolicy(PERFORMANCE))
        state = ExecState(memory=SymbolicMemory(4096))
        assert bridge.concretize(state, 0x42, "x") == [(state, 0x42)]
        assert bridge.concretizations == 0

    def test_infeasible_raises(self):
        bridge, _, _ = self._bridged(ConcretizationPolicy(PERFORMANCE))
        state = ExecState(memory=SymbolicMemory(4096))
        v = E.var("cz4", 32)
        state.add_constraint(E.false())
        with pytest.raises(ConcretizationError):
            bridge.concretize(state, v, "test")

    def test_bad_policy_mode_rejected(self):
        with pytest.raises(ConcretizationError):
            ConcretizationPolicy("yolo")


class TestSearchers:
    def _states(self, n):
        return [ExecState(memory=SymbolicMemory(256)) for _ in range(n)]

    def test_dfs_picks_newest(self):
        s = make_searcher("dfs")
        a, b = self._states(2)
        s.add(a); s.add(b)
        assert s.select(None) is b

    def test_bfs_picks_oldest(self):
        s = make_searcher("bfs")
        a, b = self._states(2)
        s.add(a); s.add(b)
        assert s.select(None) is a

    def test_round_robin_rotates(self):
        s = make_searcher("round-robin", quantum=1)
        a, b, c = self._states(3)
        for x in (a, b, c):
            s.add(x)
        picks = []
        prev = None
        for _ in range(6):
            prev = s.select(prev)
            picks.append(prev)
        assert len(set(picks[:3])) == 3  # all states visited

    def test_affinity_sticks_to_previous(self):
        s = make_searcher("affinity")
        a, b = self._states(2)
        s.add(a); s.add(b)
        first = s.select(None)
        assert s.select(first) is first

    def test_irq_atomicity_overrides_heuristic(self):
        s = make_searcher("round-robin", quantum=1)
        a, b = self._states(2)
        a.in_irq = True
        s.add(a); s.add(b)
        assert s.select(a) is a  # must keep servicing the interrupt

    def test_random_deterministic_with_seed(self):
        picks1, picks2 = [], []
        for picks in (picks1, picks2):
            s = make_searcher("random", seed=99)
            states = self._states(5)
            for x in states:
                s.add(x)
            prev = None
            for _ in range(10):
                prev = s.select(prev)
                picks.append(states.index(prev))
        assert picks1 == picks2

    def test_unknown_searcher_rejected(self):
        with pytest.raises(VmError):
            make_searcher("astar")

    def test_empty_searcher_select_raises(self):
        with pytest.raises(VmError):
            make_searcher("dfs").select(None)


class TestStateFork:
    def test_fork_isolates_everything(self):
        state = ExecState(memory=SymbolicMemory(4096))
        state.set_reg(1, 0x42)
        state.memory.write(0, 0x11, 1)
        state.add_constraint(E.ult(E.var("fk", 8), E.const(5, 8)))
        child = state.fork()
        child.set_reg(1, 0x99)
        child.memory.write(0, 0x22, 1)
        child.add_constraint(E.true())
        assert state.reg(1) == 0x42
        assert state.memory.read(0, 1) == 0x11
        assert len(state.constraints) == 1
        assert child.parent_id == state.state_id
        assert child.depth == state.depth + 1

    def test_fork_clones_hw_snapshot(self):
        from repro.targets.base import HwSnapshot
        state = ExecState(memory=SymbolicMemory(256))
        state.hw_snapshot = HwSnapshot({"p": {"nets": {"a": 1},
                                              "memories": {}, "cycle": 0}})
        child = state.fork()
        child.hw_snapshot.states["p"]["nets"]["a"] = 2
        assert state.hw_snapshot.states["p"]["nets"]["a"] == 1
