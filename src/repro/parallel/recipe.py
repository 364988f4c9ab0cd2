"""Picklable recipes for rebuilding a session inside a worker process.

Live targets cannot cross a process boundary: a
:class:`~repro.peripherals.catalog.PeripheralSpec` holds the peripheral's
generator *module* and an elaborated instance holds a compiled
simulation. Workers therefore receive a recipe — catalog names, base
addresses and the :class:`~repro.core.config.SessionConfig` — and
re-elaborate their own private target, exactly as the coordinator's was
built.

Journals pickle the recipe. A :class:`TargetRecipe` pickled by an older
version may carry ``kind``, ``scan_mode``, ``sram_dedup`` and ``opt``
attributes; nothing reads them, since the config is the one source of
those settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple, Union

from repro.core.config import SessionConfig
from repro.core.hardsnap import HardSnapSession, make_target
from repro.errors import TargetError, VmError
from repro.isa.assembler import Program, assemble
from repro.peripherals import catalog
from repro.targets.base import HardwareTarget


@dataclass(frozen=True)
class TargetRecipe:
    """The catalog peripherals a worker binds onto its target. The
    target itself is whatever :func:`~repro.core.hardsnap.make_target`
    builds from the session config, on both sides of the process
    boundary."""

    #: (catalog name, base address, instance name) per peripheral.
    peripherals: Tuple[Tuple[str, int, str], ...] = ()

    def build(self, config: SessionConfig) -> HardwareTarget:
        target = make_target(config)
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
        return cls(program=program,
                   target=TargetRecipe(peripherals=tuple(bindings)),
                   config=config,
                   max_steps_per_exec=max_steps_per_exec,
                   delta_state=delta_state)

    def build_session(self) -> HardSnapSession:
        """Construct a full HardSnapSession from this recipe (worker
        side)."""
        return HardSnapSession(self.program, (), config=self.config,
                               target=self.target.build(self.config))

    def with_config(self, **changes) -> "SessionRecipe":
        return replace(self, config=replace(self.config, **changes))
