"""The HardSnap session facade — the library's main entry point.

Wires together every layer: peripherals are elaborated onto a hardware
target (FPGA or simulator), firmware is assembled, the selective symbolic
VM is built over the MMIO bridge, and Algorithm 1 runs with the chosen
consistency strategy.

Typical use::

    from repro import HardSnapSession
    from repro.peripherals import catalog

    session = HardSnapSession(
        firmware=ASM_SOURCE,
        peripherals=[(catalog.TIMER, 0x4000_0000)],
    )
    report = session.run(max_instructions=200_000)
    for bug in report.bugs:
        print(bug.summary())
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.config import SessionConfig
from repro.core.engine import (AnalysisEngine, AnalysisReport,
                               ConsistencyStrategy, RebootReplayStrategy,
                               SharedHardwareStrategy, SnapshotStrategy)
from repro.errors import VmError
from repro.isa.assembler import Program, assemble
from repro.peripherals.catalog import PeripheralSpec
from repro.solver import Solver
from repro.targets.base import HardwareTarget
from repro.targets.fpga import FpgaTarget
from repro.targets.simulator import SimulatorTarget
from repro.vm.executor import SymbolicExecutor
from repro.vm.forwarding import ConcretizationPolicy, MmioBridge
from repro.vm.searchers import Searcher, make_searcher
from repro.vm.state import ExecState

PeripheralBinding = Tuple[PeripheralSpec, int]


def make_strategy(name: str) -> ConsistencyStrategy:
    if name == "hardsnap":
        return SnapshotStrategy()
    if name == "naive-consistent":
        return RebootReplayStrategy()
    if name == "naive-inconsistent":
        return SharedHardwareStrategy()
    raise VmError(f"unknown strategy {name!r}")


def make_target(config: SessionConfig) -> HardwareTarget:
    """The empty target *config* describes; every session, fuzz campaign
    and parallel worker builds its target here."""
    if config.target == "fpga":
        return FpgaTarget(scan_mode=config.scan_mode,
                          sram_dedup=config.sram_dedup,
                          opt=config.opt)
    if config.target == "simulator":
        return SimulatorTarget()
    raise VmError(f"unknown target kind {config.target!r}")


def make_session_searcher(config: SessionConfig,
                          covered: Set[int]) -> Searcher:
    """The searcher *config* names, seeded from the config; the coverage
    searcher reads the covered pcs from *covered*."""
    if config.searcher == "random":
        return make_searcher("random", seed=config.seed)
    if config.searcher == "coverage":
        return make_searcher("coverage", covered=covered)
    return make_searcher(config.searcher)


class HardSnapSession:
    """One co-testing analysis: firmware + peripherals + engine."""

    def __init__(self,
                 firmware: Union[str, Program],
                 peripherals: Sequence[PeripheralBinding] = (),
                 config: Optional[SessionConfig] = None,
                 target: Optional[Union[HardwareTarget, str]] = None,
                 solver: Optional[Solver] = None,
                 **overrides):
        if isinstance(target, str):
            # `target="simulator"` is a config override, not an instance.
            overrides["target"] = target
            target = None
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            raise VmError("pass either a config or keyword overrides")
        self.config = config
        self.program = (firmware if isinstance(firmware, Program)
                        else assemble(firmware))
        self.target = target or make_target(config)
        if config.fault_plan is not None:
            self.target.attach_resilience(config.fault_plan,
                                          config.retry_policy)
        for spec, base in peripherals:
            self.target.add_peripheral(spec, base)
        self.solver = solver or Solver()
        policy = ConcretizationPolicy(config.concretization,
                                      config.concretization_limit)
        self.bridge = MmioBridge(self.target, self.solver, policy)
        self.executor = SymbolicExecutor(
            self.program, self.bridge, self.solver,
            ram_size=config.ram_size, mmio_base=config.mmio_base)
        self.searcher = make_session_searcher(config,
                                              self.executor.coverage)
        self.strategy = make_strategy(config.strategy)
        self.engine = AnalysisEngine(
            self.executor, self.searcher, self.strategy, self.target,
            self.bridge)

    # -- running ------------------------------------------------------------

    def make_initial_state(self) -> ExecState:
        return self.executor.make_initial_state()

    def run(self, max_instructions: int = 1_000_000,
            max_states: int = 4096, stop_after_bugs: int = 0,
            host_time_limit_s: float = 0.0) -> AnalysisReport:
        """Run Algorithm 1 to completion (or budget exhaustion)."""
        initial = self.make_initial_state()
        return self.engine.run(initial,
                               max_instructions=max_instructions,
                               max_states=max_states,
                               stop_after_bugs=stop_after_bugs,
                               host_time_limit_s=host_time_limit_s)


def run_all_strategies(firmware: Union[str, Program],
                       peripherals: Sequence[PeripheralBinding],
                       strategies: Iterable[str] = (
                           "hardsnap", "naive-consistent",
                           "naive-inconsistent"),
                       config: Optional[SessionConfig] = None,
                       **run_kwargs) -> List[AnalysisReport]:
    """Run the same analysis under several consistency strategies —
    the comparison harness behind experiments E2 and E4."""
    reports = []
    for name in strategies:
        cfg = SessionConfig(**{**(config.__dict__ if config else {}),
                               "strategy": name})
        session = HardSnapSession(firmware, peripherals, config=cfg)
        reports.append(session.run(**run_kwargs))
    return reports
