"""The serial engine's differential oracle: Algorithm 1 one instruction
per scheduling pass, on a hardware clock that simulates every cycle
as it is charged.

:class:`StepwiseEngine` is :class:`repro.core.engine.AnalysisEngine`
with the loop it had before bursts and IRQ gating: each pass selects a
state, switches the hardware when the state changes and runs exactly
one instruction, and the IRQ lines are read before every instruction.
:class:`EagerClock` gives a target the ``step`` it had before the cycle
debt: every peripheral simulates the cycles at once, so the target
never owes any. The strategies, the snapshot controller and the
executor are shared, so a divergence lies in the burst scheduling, the
IRQ gating or the lazy clock.

``tests/test_engine_oracle.py`` runs the shipped engine and targets
against it.
"""

from __future__ import annotations

import time
from typing import Optional
from unittest import mock

import repro.core.hardsnap as hardsnap
from repro.core.config import SessionConfig
from repro.core.engine import AnalysisEngine, AnalysisReport, RebootReplayStrategy
from repro.core.shutdown import shutdown_requested
from repro.targets.base import CYCLES_PER_INSTRUCTION
from repro.targets.fpga import FpgaTarget
from repro.targets.simulator import SimulatorTarget
from repro.vm.state import ExecState


class EagerClock:
    """Target mixin: ``step`` simulates its cycles on every peripheral
    at once."""

    def step(self, cycles: int = 1) -> None:
        for instance in self.instances.values():
            instance.sim.step(cycles)
        self.cycles += cycles
        self.timer.add_cycles(cycles, self.clock_hz)


class EagerFpgaTarget(EagerClock, FpgaTarget):
    pass


class EagerSimulatorTarget(EagerClock, SimulatorTarget):
    pass


class StepwiseEngine(AnalysisEngine):
    """One instruction per scheduling pass, IRQ lines read before each."""

    def _burst(self, state: ExecState, max_steps: int):
        executor = self.executor
        bridge = self.bridge

        def pre_step(s: ExecState) -> None:
            executor.maybe_interrupt(s, any(bridge.irq_lines().values()))

        def post_step() -> None:
            bridge.step_hardware(CYCLES_PER_INSTRUCTION)

        self._scheduled = state
        try:
            return executor.step_block(state, max_steps, pre_step=pre_step,
                                       post_step=post_step)
        finally:
            self._scheduled = None

    def run(self, initial: ExecState, max_instructions: int = 1_000_000,
            max_states: int = 4096, stop_after_bugs: int = 0,
            host_time_limit_s: float = 0.0) -> AnalysisReport:
        report = AnalysisReport(strategy=self.strategy.name)
        start = time.perf_counter()
        modelled_start = self.target.timer.total_s
        resilience0 = (self.target.resilience.as_dict()
                       if getattr(self.target, "resilience", None) else None)
        self.strategy.on_start(initial)
        self.searcher.add(initial)
        executed = 0
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
            outcome = self._burst(state, 1)
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
        report.snapshot_saves = self.controller.stats.saves
        report.snapshot_restores = self.controller.stats.restores
        store_stats = self.controller.store.stats
        report.snapshot_logical_bits = store_stats.logical_bits
        report.snapshot_stored_bits = store_stats.stored_bits
        report.snapshot_dedup_hit_rate = store_stats.dedup_hit_rate
        report.mmio_accesses = self.bridge.accesses
        if resilience0 is not None:
            report.resilience.merge(
                self.target.resilience.delta(resilience0))
        if isinstance(self.strategy, RebootReplayStrategy):
            report.reboots = self.strategy.reboots
            report.replayed_accesses = self.strategy.replayed_accesses
        return report


def eager_target(config: SessionConfig):
    """The target :func:`repro.core.make_target` builds for *config*,
    on the eager clock."""
    if config.target == "simulator":
        return EagerSimulatorTarget()
    return EagerFpgaTarget(scan_mode=config.scan_mode,
                           sram_dedup=config.sram_dedup, opt=config.opt)


def oracle_session(firmware, peripherals,
                   **overrides) -> hardsnap.HardSnapSession:
    """A :class:`~repro.core.HardSnapSession` of *overrides* on the
    stepwise engine and the eager target."""
    config = SessionConfig(**overrides)
    with mock.patch.object(hardsnap, "AnalysisEngine", StepwiseEngine):
        return hardsnap.HardSnapSession(firmware, peripherals, config=config,
                                        target=eager_target(config))
