"""The analysis engine: Algorithm 1 with pluggable hardware-consistency
strategies.

The paper's Fig. 1 contrasts three ways of co-testing multiple firmware
paths against stateful hardware; all three share the same symbolic
execution loop and differ only in what happens when the scheduled state
changes and when states fork:

* :class:`SnapshotStrategy` — **HardSnap**: ``UpdateState(S_prev)`` /
  ``RestoreState(S)`` hardware context switches through the snapshot
  controller; forked states receive cloned, non-shared snapshots,
* :class:`RebootReplayStrategy` — **naive-and-consistent**: every switch
  reboots the device and replays the incoming state's entire MMIO
  interaction history (record-and-replay; §II's "extremely slow" case),
* :class:`SharedHardwareStrategy` — **naive-and-inconsistent**: states
  share the live hardware with no isolation; fast and wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.shutdown import shutdown_requested
from repro.core.snapshot import SnapshotController, SnapshotStats
from repro.core.store import SnapshotStore, StoreStats
from repro.resilience import ResilienceStats
from repro.targets.base import (CYCLES_PER_INSTRUCTION, REBOOT_TIME_S,
                                HardwareTarget)
from repro.vm.detectors import Bug, model_to_test_case
from repro.vm.executor import SymbolicExecutor
from repro.vm.forwarding import MmioBridge
from repro.vm.searchers import Searcher
from repro.vm.state import (STATUS_HALTED, ExecState)

#: Most instructions one scheduling pass runs on a state the searcher
#: keeps (:attr:`~repro.vm.searchers.Searcher.keeps_previous`); the
#: loop checks for shutdown and the host time limit between passes.
BURST_INSTRUCTIONS = 1024


# ---------------------------------------------------------------------------
# Consistency strategies
# ---------------------------------------------------------------------------

class ConsistencyStrategy:
    """Hooks invoked by the engine around scheduling and forking."""

    name = "abstract"

    def bind(self, controller: SnapshotController,
             bridge: MmioBridge) -> None:
        self.controller = controller
        self.bridge = bridge

    def on_start(self, initial: ExecState) -> None:
        self.controller.reset()

    def on_switch(self, previous: Optional[ExecState],
                  current: ExecState) -> None:
        raise NotImplementedError

    def on_fork(self, state: ExecState, forks: List[ExecState]) -> None:
        raise NotImplementedError

    def on_access(self, state: ExecState, op: str, addr: int,
                  value: int) -> None:
        """Called for every MMIO access of the scheduled state."""


class SnapshotStrategy(ConsistencyStrategy):
    """HardSnap: per-state hardware snapshots (Algorithm 1)."""

    name = "hardsnap"

    def on_switch(self, previous: Optional[ExecState],
                  current: ExecState) -> None:
        if previous is not None and previous.is_active:
            self.controller.update_state(previous)
        self.controller.restore_state(current)

    def on_fork(self, state: ExecState, forks: List[ExecState]) -> None:
        # "Resulting state flows with a unique and non-shared hardware
        # snapshot" (§IV-B): refresh the parent's snapshot from the live
        # hardware and hand clones to the children.
        snapshot = self.controller.save()
        state.hw_snapshot = snapshot
        for fork in forks:
            fork.hw_snapshot = snapshot.clone()


class RebootReplayStrategy(ConsistencyStrategy):
    """Naive-and-consistent: reboot + replay the MMIO history per switch."""

    name = "naive-consistent"

    def __init__(self):
        #: state id -> [(op, addr, value, instruction_count)]
        self.traces: Dict[int, List[Tuple[str, int, int, int]]] = {}
        self.replayed_accesses = 0
        self.replay_divergences = 0
        self.reboots = 0

    def on_start(self, initial: ExecState) -> None:
        self.controller.reset()
        self.traces[initial.state_id] = []

    def on_switch(self, previous: Optional[ExecState],
                  current: ExecState) -> None:
        self._reboot()
        self._replay(current)

    def on_fork(self, state: ExecState, forks: List[ExecState]) -> None:
        trace = self.traces.get(state.state_id, [])
        for fork in forks:
            self.traces[fork.state_id] = list(trace)

    def on_access(self, state: ExecState, op: str, addr: int,
                  value: int) -> None:
        self.traces.setdefault(state.state_id, []).append(
            (op, addr, value, state.steps))

    def _reboot(self) -> None:
        self.controller.reset()
        self.controller.target.timer.add_fixed(REBOOT_TIME_S)
        self.reboots += 1

    def _replay(self, state: ExecState) -> None:
        """Re-execute the state's MMIO history against fresh hardware."""
        trace = self.traces.get(state.state_id, [])
        last_step = 0
        for op, addr, value, at_step in trace:
            gap = max(0, at_step - last_step) * CYCLES_PER_INSTRUCTION
            if gap:
                self.bridge.step_hardware(gap)
            last_step = at_step
            self.replayed_accesses += 1
            if op == "w":
                self.bridge.write(addr, value)
            else:
                got = self.bridge.read(addr)
                if got != value:
                    self.replay_divergences += 1
        tail = max(0, state.steps - last_step) * CYCLES_PER_INSTRUCTION
        if tail:
            self.bridge.step_hardware(tail)


class SharedHardwareStrategy(ConsistencyStrategy):
    """Naive-and-inconsistent: no isolation whatsoever."""

    name = "naive-inconsistent"

    def on_switch(self, previous: Optional[ExecState],
                  current: ExecState) -> None:
        pass  # hardware carries over: this is the bug the paper shows

    def on_fork(self, state: ExecState, forks: List[ExecState]) -> None:
        pass


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class CompletedPath:
    state_id: int
    status: str
    halt_code: Optional[int]
    steps: int
    depth: int
    test_case: Dict[str, int] = field(default_factory=dict)
    trace_marks: List[int] = field(default_factory=list)
    error: Optional[str] = None
    #: Fork-tree address of the finished state (see
    #: :attr:`~repro.vm.state.ExecState.lineage`); schedule-independent,
    #: the merge key for parallel runs.
    lineage: Tuple[int, ...] = ()


@dataclass
class AnalysisReport:
    strategy: str
    paths: List[CompletedPath] = field(default_factory=list)
    bugs: List[Bug] = field(default_factory=list)
    instructions: int = 0
    forks: int = 0
    max_live_states: int = 0
    coverage: int = 0
    modelled_time_s: float = 0.0
    host_time_s: float = 0.0
    snapshot_saves: int = 0
    snapshot_restores: int = 0
    #: Sum of full-image sizes over all saves (the naive storage cost).
    snapshot_logical_bits: int = 0
    #: Bits actually written to the content-addressed store.
    snapshot_stored_bits: int = 0
    #: Fraction of chunk lookups served by an already-stored chunk.
    snapshot_dedup_hit_rate: float = 0.0
    reboots: int = 0
    replayed_accesses: int = 0
    mmio_accesses: int = 0
    stop_reason: str = "exhausted"
    #: Recovery events over the run (link retries, worker respawns, …).
    #: Deliberately absent from :meth:`verdict_summary` — recovery cost
    #: is schedule-dependent; verdicts are not.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def halted_paths(self) -> List[CompletedPath]:
        return [p for p in self.paths if p.status == STATUS_HALTED]

    def record_snapshot_stats(self, snapshot: SnapshotStats,
                              store: StoreStats) -> None:
        """Fill the ``snapshot_*`` fields from the run's snapshot and
        store records (one controller's, or merged over workers)."""
        self.snapshot_saves = snapshot.saves
        self.snapshot_restores = snapshot.restores
        self.snapshot_logical_bits = store.logical_bits
        self.snapshot_stored_bits = store.stored_bits
        self.snapshot_dedup_hit_rate = store.dedup_hit_rate

    def halt_codes(self) -> Dict[int, int]:
        """Histogram of halt codes over completed paths (ground-truth
        comparison axis for the consistency experiment)."""
        out: Dict[int, int] = {}
        for p in self.halted_paths:
            if p.halt_code is not None:
                out[p.halt_code] = out.get(p.halt_code, 0) + 1
        return out

    def summary(self) -> str:
        return (f"[{self.strategy}] paths={len(self.paths)} "
                f"(halted={len(self.halted_paths)}) bugs={len(self.bugs)} "
                f"instr={self.instructions} forks={self.forks} "
                f"saves={self.snapshot_saves} restores={self.snapshot_restores} "
                f"dedup={self.snapshot_dedup_hit_rate:.0%} "
                f"reboots={self.reboots} "
                f"modelled={self.modelled_time_s:.4f}s "
                f"host={self.host_time_s:.3f}s stop={self.stop_reason}")

    def verdict_summary(self) -> str:
        """The schedule-independent verdicts of a run, as one canonical
        string: per-path outcomes keyed by fork lineage, bug sites,
        instruction/fork/coverage totals.

        Excludes everything legitimately schedule- or host-dependent —
        wall-clock time, snapshot traffic, raw state ids, solver-model
        test-case values. A parallel run merged from any worker count
        must produce this string byte-identical to the serial engine's
        (asserted by ``tests/test_parallel.py``).
        """
        paths = sorted(self.paths, key=lambda p: p.lineage)

        def _path(p: CompletedPath) -> str:
            where = ".".join(map(str, p.lineage)) if p.lineage else "root"
            out = f"{where}:{p.status}"
            if p.halt_code is not None:
                out += f":0x{p.halt_code:x}"
            return out

        bugs = ",".join(f"{b.kind}@0x{b.pc:x}" for b in
                        sorted(self.bugs, key=lambda b: (b.kind, b.pc)))
        return (f"[{self.strategy}] paths={len(self.paths)} "
                f"halted={len(self.halted_paths)} "
                f"instr={self.instructions} forks={self.forks} "
                f"coverage={self.coverage} stop={self.stop_reason} "
                f"verdicts=<{','.join(_path(p) for p in paths)}> "
                f"bugs=<{bugs}>")


@dataclass
class LeaseOutcome:
    """Result of :meth:`AnalysisEngine.run_lease`: one state executed
    until completion, its first fork event, or budget exhaustion."""

    state: ExecState
    executed: int = 0
    #: Children created by the fork event that ended the lease (empty
    #: when the state completed or paused).
    forks: List[ExecState] = field(default_factory=list)
    #: Set when the state finished (halted / errored / terminated).
    completed: Optional[CompletedPath] = None
    #: True when the lease stopped on the instruction budget with the
    #: state still active (its snapshot has been refreshed for re-lease).
    paused: bool = False


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class AnalysisEngine:
    """Algorithm 1: the main execution loop."""

    def __init__(self, executor: SymbolicExecutor, searcher: Searcher,
                 strategy: ConsistencyStrategy, target: HardwareTarget,
                 bridge: MmioBridge,
                 store: Optional[SnapshotStore] = None):
        self.executor = executor
        self.searcher = searcher
        self.strategy = strategy
        self.target = target
        self.bridge = bridge
        self.controller = SnapshotController(target, store=store)
        strategy.bind(self.controller, bridge)
        self._wire_access_recording()

    def _wire_access_recording(self) -> None:
        """Route every MMIO access through the strategy's on_access hook
        (record-and-replay needs the trace)."""
        engine = self
        bridge = self.bridge
        original_read, original_write = bridge.read, bridge.write

        def read(addr: int) -> int:
            value = original_read(addr)
            if engine._scheduled is not None and not engine._replaying:
                engine.strategy.on_access(engine._scheduled, "r", addr, value)
            return value

        def write(addr: int, value: int) -> None:
            original_write(addr, value)
            if engine._scheduled is not None and not engine._replaying:
                engine.strategy.on_access(engine._scheduled, "w", addr, value)

        bridge.read = read  # type: ignore[method-assign]
        bridge.write = write  # type: ignore[method-assign]
        self._scheduled: Optional[ExecState] = None
        self._replaying = False

    def _switch(self, previous: Optional[ExecState],
                current: ExecState) -> None:
        """The strategy's hardware context switch; its own MMIO traffic
        (a replay) is not recorded as the state's."""
        self._replaying = True
        try:
            self.strategy.on_switch(previous, current)
        finally:
            self._replaying = False

    def _burst(self, state: ExecState, max_steps: int):
        """Up to *max_steps* instructions on the scheduled state, each
        one ServePendingInterrupt → StepInstruction → clock the
        hardware, executed inside the VM's tight block loop. The IRQ
        lines are read only when the state could take an interrupt."""
        executor = self.executor
        bridge = self.bridge
        deliverable = executor.deliverable

        def pre_step(s: ExecState) -> None:
            if deliverable(s):
                executor.maybe_interrupt(s, any(bridge.irq_lines().values()))

        def post_step() -> None:
            bridge.step_hardware(CYCLES_PER_INSTRUCTION)

        self._scheduled = state
        try:
            return executor.step_block(state, max_steps, pre_step=pre_step,
                                       post_step=post_step)
        finally:
            self._scheduled = None

    # -- main loop ---------------------------------------------------------------

    def run(self, initial: ExecState, max_instructions: int = 1_000_000,
            max_states: int = 4096, stop_after_bugs: int = 0,
            host_time_limit_s: float = 0.0) -> AnalysisReport:
        """Algorithm 1: select a state, switch the hardware to it when it
        is not the previous one, serve a pending interrupt and execute
        one instruction. A searcher that keeps the previous state while
        it lives gets a burst of up to :data:`BURST_INSTRUCTIONS` per
        pass instead, which ends where its passes would switch: at a
        fork or the state's end."""
        report = AnalysisReport(strategy=self.strategy.name)
        start = time.perf_counter()
        modelled_start = self.target.timer.total_s
        resilience0 = self.target.resilience.as_dict()
        self.strategy.on_start(initial)
        self.searcher.add(initial)
        executed = 0
        burst = BURST_INSTRUCTIONS if self.searcher.keeps_previous else 1
        previous: Optional[ExecState] = None
        while len(self.searcher):
            if shutdown_requested():
                report.stop_reason = "interrupted"
                break
            if executed >= max_instructions:
                report.stop_reason = "instruction-budget"
                break
            if stop_after_bugs and len(self.executor.bugs) >= stop_after_bugs:
                report.stop_reason = "bug-budget"
                break
            if host_time_limit_s and \
                    time.perf_counter() - start > host_time_limit_s:
                report.stop_reason = "host-timeout"
                break
            state = self.searcher.select(previous)
            if state is not previous:
                self._switch(previous, state)
                previous = state
            outcome = self._burst(state,
                                  min(burst, max_instructions - executed))
            executed += outcome.executed
            if outcome.forks:
                self.strategy.on_fork(state, outcome.forks)
                report.forks += len(outcome.forks)
                for fork in outcome.forks:
                    if len(self.searcher) < max_states:
                        self.searcher.add(fork)
            report.max_live_states = max(report.max_live_states,
                                         len(self.searcher))
            if not state.is_active:
                self.searcher.remove(state)
                report.paths.append(self._finish_path(state))
        else:
            report.stop_reason = "exhausted"
        report.instructions = executed
        report.bugs = list(self.executor.bugs)
        report.coverage = len(self.executor.coverage)
        report.host_time_s = time.perf_counter() - start
        report.modelled_time_s = self.target.timer.total_s - modelled_start
        report.record_snapshot_stats(self.controller.stats,
                                     self.controller.store.stats)
        report.mmio_accesses = self.bridge.accesses
        report.resilience.merge(self.target.resilience.delta(resilience0))
        if isinstance(self.strategy, RebootReplayStrategy):
            report.reboots = self.strategy.reboots
            report.replayed_accesses = self.strategy.replayed_accesses
        return report

    # -- lease execution (the parallel runtime's unit of work) -------------

    def run_lease(self, state: ExecState,
                  max_instructions: int = 0) -> LeaseOutcome:
        """Execute ONE state until it completes, forks, or exhausts
        *max_instructions* (0 = unbounded).

        This is the engine's unit of work for the parallel coordinator:
        the same restore → poll-IRQ → step → fork/finish sequence as one
        :meth:`run` iteration, restricted to a single state. Fork events
        end the lease so the coordinator's searcher decides what runs
        next; a paused state has its snapshot refreshed so it can be
        re-leased anywhere.
        """
        outcome = LeaseOutcome(state)
        self._switch(None, state)
        while state.is_active:
            if max_instructions and outcome.executed >= max_instructions:
                self.controller.update_state(state)
                outcome.paused = True
                return outcome
            burst = (max_instructions - outcome.executed) \
                if max_instructions else 1_000_000
            step_outcome = self._burst(state, burst)
            outcome.executed += step_outcome.executed
            if step_outcome.forks:
                self.strategy.on_fork(state, step_outcome.forks)
                outcome.forks = step_outcome.forks
                return outcome
        outcome.completed = self._finish_path(state)
        return outcome

    def _finish_path(self, state: ExecState) -> CompletedPath:
        test_case: Dict[str, int] = {}
        if state.status == STATUS_HALTED and state.constraints:
            result = self.executor.solver.check(state.constraints)
            if result.is_sat:
                test_case = model_to_test_case(result.model)
        return CompletedPath(
            state_id=state.state_id,
            status=state.status,
            halt_code=state.halt_code,
            steps=state.steps,
            depth=state.depth,
            test_case=test_case,
            trace_marks=list(state.trace_marks),
            error=state.error,
            lineage=state.lineage,
        )
