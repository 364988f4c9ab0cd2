"""Software-driven hardware testbench (paper §III).

    "[HardSnap] enables security analysts to write a software-based
    testbench, and it generates test cases thanks to the symbolic
    execution engine. HardSnap enables pre-production co-testing of
    hardware and firmware... an embedded software developer can test
    hardware drivers even if the full design is not available."

Two layers:

* :class:`HwTestbench` — a concrete, Python-driven bench over one
  peripheral instance: named-register access, stepping, IRQ waits and
  property checks. This is the "drive hardware components" interface.
* :func:`generate_test_vectors` — run a firmware harness (typically one
  that feeds ``sym`` values into the peripheral) through the symbolic
  engine and return the concrete test vector for every completed path:
  software-generated stimuli for hardware verification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.engine import AnalysisReport
from repro.core.hardsnap import HardSnapSession, PeripheralBinding
from repro.errors import TargetError
from repro.targets.base import HardwareTarget


@dataclass
class PropertyFailure:
    name: str
    cycle: int
    detail: str


class HwTestbench:
    """Concrete testbench over one peripheral hosted on a target."""

    def __init__(self, target: HardwareTarget, instance_name: str):
        self.target = target
        self.instance = target.instances.get(instance_name)
        if self.instance is None:
            raise TargetError(f"no instance {instance_name!r} on target")
        self.base = self.instance.region.base
        self.registers = self.instance.spec.registers
        self.failures: List[PropertyFailure] = []
        self._properties: List[Tuple[str, Callable[["HwTestbench"], bool]]] = []

    # -- register access by name ------------------------------------------------

    def _addr(self, register: Union[str, int], offset: int = 0) -> int:
        if isinstance(register, str):
            if register not in self.registers:
                raise TargetError(
                    f"unknown register {register!r}; "
                    f"have {sorted(self.registers)}")
            return self.base + self.registers[register] + offset
        return self.base + register + offset

    def write(self, register: Union[str, int], value: int,
              offset: int = 0) -> None:
        self.target.write(self._addr(register, offset), value)

    def read(self, register: Union[str, int], offset: int = 0) -> int:
        return self.target.read(self._addr(register, offset))

    # -- time / interrupts ----------------------------------------------------------

    def step(self, cycles: int = 1) -> None:
        self.target.step(cycles)
        self._check_properties()

    def wait_for_irq(self, timeout_cycles: int = 10_000,
                     chunk: int = 8) -> bool:
        """Step until the peripheral raises its interrupt line."""
        waited = 0
        while waited < timeout_cycles:
            if self.target.irq_lines()[self.instance.name]:
                return True
            self.step(chunk)
            waited += chunk
        return False

    def wait_until(self, register: Union[str, int], mask: int,
                   value: Optional[int] = None,
                   timeout_polls: int = 1000) -> bool:
        """Poll ``register`` until ``reg & mask == value`` (default: != 0)."""
        for _ in range(timeout_polls):
            got = self.read(register) & mask
            if (got == value) if value is not None else got:
                return True
        return False

    # -- properties -------------------------------------------------------------------

    def add_property(self, name: str,
                     predicate: Callable[["HwTestbench"], bool]) -> None:
        """Register an invariant checked after every :meth:`step`."""
        self._properties.append((name, predicate))

    def _check_properties(self) -> None:
        for name, predicate in self._properties:
            try:
                ok = predicate(self)
            except Exception as exc:  # property code errors are failures
                ok = False
                detail = f"property raised {exc!r}"
            else:
                detail = "predicate returned False"
            if not ok:
                self.failures.append(PropertyFailure(
                    name, self.target.cycles, detail))

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class TestVector:
    """One software-generated hardware test stimulus."""

    path_id: int
    halt_code: Optional[int]
    assignments: Dict[str, int] = field(default_factory=dict)
    trace_marks: List[int] = field(default_factory=list)


def generate_test_vectors(firmware: str,
                          peripherals: Sequence[PeripheralBinding],
                          max_instructions: int = 500_000,
                          **session_kwargs) -> Tuple[List[TestVector],
                                                     AnalysisReport]:
    """Symbolically execute a firmware harness and emit one concrete test
    vector per completed path (§III: "HardSnap can be used to generate
    software test vectors to test hardware")."""
    session = HardSnapSession(firmware, peripherals, **session_kwargs)
    report = session.run(max_instructions=max_instructions)
    vectors = [TestVector(p.state_id, p.halt_code, dict(p.test_case),
                          list(p.trace_marks))
               for p in report.halted_paths]
    return vectors, report
