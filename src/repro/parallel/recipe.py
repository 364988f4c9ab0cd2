"""Picklable recipes for rebuilding a session inside a worker process.

Live targets cannot cross a process boundary: a
:class:`~repro.peripherals.catalog.PeripheralSpec` holds the peripheral's
generator *module* and an elaborated instance holds a compiled
simulation. Workers therefore receive a recipe — catalog names, base
addresses and the :class:`~repro.core.config.SessionConfig` — and
re-elaborate their own private target, exactly as the coordinator's was
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple, Union

from repro.core.config import SessionConfig
from repro.errors import TargetError, VmError
from repro.isa.assembler import Program, assemble
from repro.peripherals import catalog
from repro.targets.base import HardwareTarget
from repro.targets.fpga import FpgaTarget
from repro.targets.simulator import SimulatorTarget


@dataclass(frozen=True)
class TargetRecipe:
    """How to rebuild one hardware target in another process."""

    kind: str  # "fpga" | "simulator"
    scan_mode: str = "functional"
    sram_dedup: bool = False
    #: Netlist optimization for the worker's compiled backend (FPGA
    #: kind only) — must match the coordinator so snapshots transport
    #: between bit-identical simulations.
    opt: bool = True
    #: (catalog name, base address, instance name) per peripheral.
    peripherals: Tuple[Tuple[str, int, str], ...] = ()

    @classmethod
    def from_target(cls, target: HardwareTarget) -> "TargetRecipe":
        """Describe a live target so a worker can rebuild it by name.

        Every hosted peripheral must come from the catalog — the recipe
        travels as names, not modules.
        """
        if isinstance(target, FpgaTarget):
            kind, scan_mode, sram_dedup, opt = \
                "fpga", target.scan_mode, target.sram_dedup, target.opt
        elif isinstance(target, SimulatorTarget):
            kind, scan_mode, sram_dedup, opt = \
                "simulator", "functional", False, True
        else:
            raise TargetError(
                f"cannot describe target {type(target).__name__} for "
                f"worker-side reconstruction")
        peripherals = []
        for name, instance in target.instances.items():
            spec_name = instance.spec.name
            try:
                catalog.get(spec_name)
            except KeyError:
                raise TargetError(
                    f"peripheral {spec_name!r} is not in the catalog; "
                    f"parallel workers rebuild targets by catalog name")
            peripherals.append((spec_name, instance.region.base, name))
        return cls(kind=kind, scan_mode=scan_mode, sram_dedup=sram_dedup,
                   opt=opt, peripherals=tuple(peripherals))

    def build(self) -> HardwareTarget:
        if self.kind == "fpga":
            target: HardwareTarget = FpgaTarget(
                scan_mode=self.scan_mode, sram_dedup=self.sram_dedup,
                opt=self.opt)
        elif self.kind == "simulator":
            target = SimulatorTarget()
        else:
            raise TargetError(f"unknown target kind {self.kind!r}")
        for spec_name, base, instance_name in self.peripherals:
            target.add_peripheral(catalog.get(spec_name), base,
                                  instance_name=instance_name)
        return target


@dataclass(frozen=True)
class SessionRecipe:
    """Everything a worker needs to rebuild the full analysis stack:
    assembled firmware, target recipe, session knobs, fuzz harness
    parameters. All fields are plain picklable data."""

    program: Program
    target: TargetRecipe
    config: SessionConfig = field(default_factory=SessionConfig)
    # Fuzz-harness parameters (ignored by engine workers).
    max_steps_per_exec: int = 20_000
    #: Ship software state as dirty-page + constraint-suffix deltas
    #: (:mod:`repro.parallel.statewire`). ``False`` forces full pickles
    #: on every lease — the measurement baseline and the degraded
    #: in-process fallback, where no wire format is involved at all.
    delta_state: bool = True

    @classmethod
    def create(cls, firmware: Union[str, Program],
               peripherals: Sequence[Tuple[object, int]] = (),
               config: Optional[SessionConfig] = None,
               max_steps_per_exec: int = 20_000,
               delta_state: bool = True,
               **overrides) -> "SessionRecipe":
        """Build a recipe from the same arguments
        :class:`~repro.core.hardsnap.HardSnapSession` takes."""
        if config is None:
            config = SessionConfig(**overrides)
        elif overrides:
            raise VmError("pass either a config or keyword overrides")
        if config.strategy != "hardsnap":
            raise VmError(
                f"the parallel runtime requires the 'hardsnap' strategy "
                f"(snapshots are what make states portable); "
                f"got {config.strategy!r}")
        program = (firmware if isinstance(firmware, Program)
                   else assemble(firmware))
        bindings = []
        for spec, base in peripherals:
            try:
                catalog.get(spec.name)
            except (AttributeError, KeyError):
                raise TargetError(
                    f"peripheral {getattr(spec, 'name', spec)!r} is not "
                    f"in the catalog; parallel workers rebuild targets "
                    f"by catalog name")
            bindings.append((spec.name, base, spec.name))
        target = TargetRecipe(
            kind=config.target, scan_mode=config.scan_mode,
            sram_dedup=config.sram_dedup, opt=config.opt,
            peripherals=tuple(bindings))
        return cls(program=program, target=target, config=config,
                   max_steps_per_exec=max_steps_per_exec,
                   delta_state=delta_state)

    def build_session(self):
        """Construct a full HardSnapSession from this recipe (worker
        side). Imported lazily to keep recipe unpickling cheap."""
        from repro.core.hardsnap import HardSnapSession
        return HardSnapSession(self.program, (), config=self.config,
                               target=self.target.build())

    def with_config(self, **changes) -> "SessionRecipe":
        return replace(self, config=replace(self.config, **changes))
