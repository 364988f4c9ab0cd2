"""The simulator target (paper §III-A "Simulator Target", §III-C).

Hosts peripherals on the tree-walking :class:`Interpreter` backend — the
Verilator-process analogue — reached through a shared-memory remote
interface. Properties:

* **full visibility**: every internal net is inspectable at any time and
  VCD tracing can be attached (the reason multi-target orchestration
  transfers states *to* this target),
* **snapshot method**: CRIU-style process checkpoint. The controller
  flushes pending bus operations, freezes the process, and stores the
  image; we capture the canonical state (behaviourally identical) and
  charge a CRIU cost model — fixed freeze/dump overhead plus image size
  over storage bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bus.transport import SHARED_MEMORY, Transport
from repro.errors import SnapshotError
from repro.hdl.ir import Design
from repro.sim.interpreter import Interpreter
from repro.sim.vcd import VcdWriter
from repro.targets.base import HardwareTarget, HwSnapshot

#: Effective simulation speed of the interpreted backend, cycles/second.
#: (Verilator on the paper's testbed reaches a few MHz on small designs;
#: our interpreter plays that role at its own scale.)
DEFAULT_SIM_CLOCK_HZ = 1e6


@dataclass(frozen=True)
class CriuModel:
    """Cost model for checkpoint/restore of the simulator process."""

    #: Freeze + dump fixed overhead (page-map walking, descriptors).
    checkpoint_base_s: float = 28e-3
    restore_base_s: float = 18e-3
    #: Resident image of the simulator process beyond design state.
    process_image_bytes: int = 6 * 1024 * 1024
    #: Persistent-storage streaming bandwidth.
    storage_bytes_per_s: float = 1.2e9
    #: Pages of the simulator process itself (stack, allocator churn)
    #: that an incremental dump with soft-dirty tracking still rewrites.
    incremental_image_bytes: int = 256 * 1024

    def image_bytes(self, state_bits: int) -> int:
        return self.process_image_bytes + state_bits // 8

    def checkpoint_s(self, state_bits: int) -> float:
        return (self.checkpoint_base_s
                + self.image_bytes(state_bits) / self.storage_bytes_per_s)

    def incremental_checkpoint_s(self, dirty_state_bits: int) -> float:
        """Incremental dump (CRIU ``--track-mem``): only pages written
        since the previous checkpoint are streamed out."""
        image = self.incremental_image_bytes + dirty_state_bits // 8
        return self.checkpoint_base_s + image / self.storage_bytes_per_s

    def restore_s(self, state_bits: int) -> float:
        return (self.restore_base_s
                + self.image_bytes(state_bits) / self.storage_bytes_per_s)


class SimulatorTarget(HardwareTarget):
    """Interpreter-backed target with full visibility and CRIU snapshots."""

    visibility = "full"

    def __init__(self, name: str = "simulator",
                 clock_hz: float = DEFAULT_SIM_CLOCK_HZ,
                 transport: Transport = SHARED_MEMORY,
                 criu: Optional[CriuModel] = None):
        super().__init__(name, clock_hz, transport)
        self.criu = criu or CriuModel()
        self.snapshots_taken = 0
        self.snapshots_restored = 0
        # Dirty-page tracking starts with the first full dump; until then
        # every checkpoint is a complete image.
        self._tracking = False
        #: Set once a VCD trace is attached: a trace samples every cycle,
        #: so from then on every step is simulated as it is charged.
        self._traced = False

    def _make_sim(self, design: Design) -> Interpreter:
        return Interpreter(design)

    # -- full-visibility extras ----------------------------------------------

    def attach_vcd(self, instance_name: str,
                   writer: Optional[VcdWriter] = None) -> VcdWriter:
        """Attach a VCD trace to one peripheral (simulator-only feature)."""
        self.settle()
        instance = self._instance(instance_name)
        if writer is None:
            writer = VcdWriter()
        instance.sim.attach_vcd(writer)
        self._traced = True
        return writer

    def step(self, cycles: int = 1) -> None:
        super().step(cycles)
        if self._traced:
            self.settle()

    def peek_memory(self, instance_name: str, memory: str, index: int) -> int:
        self.settle()
        return self._instance(instance_name).sim.peek_memory(memory, index)

    # -- snapshotting -------------------------------------------------------------

    def reset(self) -> None:
        # A power-on reset restarts the simulator process: dirty-page
        # tracking must be re-established with a fresh full dump.
        super().reset()
        self._tracking = False

    def save_snapshot(self) -> HwSnapshot:
        """Flush, freeze and checkpoint the whole simulator process.

        The first checkpoint streams the complete process image; once
        dirty-page tracking is armed, later checkpoints are incremental
        dumps priced by the state that actually changed ("the simulator
        prices only dirty state").
        """
        # "Flush pending read/write operations": the BFM is idle between
        # transactions by construction; capture_states settles the clock.
        states, dirty = self.capture_states()
        bits = sum(inst.state_bits for inst in self.instances.values())
        if self._tracking:
            dirty_bits = sum(self.instances[name].state_bits
                             for name in dirty)
            cost = self.criu.incremental_checkpoint_s(dirty_bits)
        else:
            cost = self.criu.checkpoint_s(bits)
            self._tracking = True
        self.timer.add_fixed(cost)
        self.snapshots_taken += 1
        snapshot = HwSnapshot(states, method="criu", bits=bits,
                              modelled_cost_s=cost)
        if self._injector is not None:
            snapshot.seal()
        self._mark_verified(snapshot)
        return snapshot

    def restore_snapshot(self, snapshot: HwSnapshot) -> None:
        self.settle()
        missing = set(snapshot.states) - set(self.instances)
        if missing:
            raise SnapshotError(
                f"snapshot references unknown instances {sorted(missing)}")
        self._verify_integrity(snapshot)
        bits = 0
        for name, state in snapshot.states.items():
            instance = self.instances[name]
            instance.sim.load_state(state)
            bits += instance.state_bits
        cost = self.criu.restore_s(bits)
        self.timer.add_fixed(cost)
        self.snapshots_restored += 1
        self._note_restored(snapshot)
        self._mark_verified(snapshot)
