"""Shared simulation state and API for both simulator backends.

A :class:`BaseSimulation` owns the value store of an elaborated design:
one integer per net, one integer list per memory. Subclasses implement
``_settle`` (evaluate combinational logic) and ``_clock_edge`` (execute
sequential blocks for one rising edge of the stepped clock).

The *hardware state* in the paper's sense — S_hw, the content a snapshot
must capture — is exactly the design's state nets and state memories plus
the primary inputs (the levels an external bus would be driving). Wires
are recomputed by settling after a restore.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import SimulationError
from repro.hdl.ir import Design, Memory, Net


class BaseSimulation:
    """Cycle-based simulation of one elaborated design."""

    #: Monotonic counter bumped by every operation that can change the
    #: design's *state* (pokes, clock steps, loads, resets). Targets use
    #: it for incremental snapshot capture: an instance whose version is
    #: unchanged since the last capture is bit-identical to that capture.
    state_version = 0

    def __init__(self, design: Design, clock: str = "clk"):
        self.design = design
        self.clock_name = clock
        if clock not in design.nets:
            raise SimulationError(f"design has no clock net {clock!r}")
        self.values: Dict[str, int] = {}
        self.memories: Dict[str, List[int]] = {}
        self.cycle = 0
        self._vcd = None
        self.reset_state()

    # -- lifecycle ----------------------------------------------------------

    def reset_state(self) -> None:
        """Power-on state: declared initial values, then initial blocks."""
        for name, net in self.design.nets.items():
            self.values[name] = net.initial & net.mask
        for name, mem in self.design.memories.items():
            if mem.initial is not None:
                words = list(mem.initial) + [0] * (mem.depth - len(mem.initial))
                self.memories[name] = [w & mem.mask for w in words[:mem.depth]]
            else:
                self.memories[name] = [0] * mem.depth
        self.cycle = 0
        self.state_version += 1
        self._run_init_blocks()
        self._settle()

    # -- I/O -------------------------------------------------------------------

    def poke(self, name: str, value: int) -> None:
        """Drive a primary input (or force any net) and settle."""
        net = self._net(name)
        self.values[name] = value & net.mask
        self.state_version += 1
        self._settle()

    def poke_many(self, assignments: Dict[str, int]) -> None:
        for name, value in assignments.items():
            net = self._net(name)
            self.values[name] = value & net.mask
        self.state_version += 1
        self._settle()

    def peek(self, name: str) -> int:
        if name not in self.values:
            raise SimulationError(f"unknown net {name!r}")
        return self.values[name]

    def peek_memory(self, name: str, index: int) -> int:
        mem = self._memory(name)
        if not (0 <= index < mem.depth):
            raise SimulationError(
                f"index {index} out of range for {name!r} (depth {mem.depth})")
        return self.memories[name][index]

    def _net(self, name: str) -> Net:
        net = self.design.nets.get(name)
        if net is None:
            raise SimulationError(f"unknown net {name!r}")
        return net

    def _memory(self, name: str) -> Memory:
        mem = self.design.memories.get(name)
        if mem is None:
            raise SimulationError(f"unknown memory {name!r}")
        return mem

    # -- time ---------------------------------------------------------------------

    #: Set by backends that found negedge-triggered blocks in the design;
    #: enables the mid-cycle settle + falling-edge evaluation.
    _has_negedge = False

    #: Generated AXI4-Lite transaction entry ``axi(V, M, write, addr,
    #: data, timeout) -> (data, cycles, status)``; the compiled backend
    #: sets it for designs with an ``s_axi_*`` slave port (see
    #: :meth:`repro.sim.compiler._CodeGen.generate_axi`).
    axi_entry = None

    def step(self, cycles: int = 1) -> None:
        """Advance *cycles* full clock periods (rising then falling edge)."""
        if cycles:
            self.state_version += 1
        if self._has_negedge:
            for _ in range(cycles):
                self.values[self.clock_name] = 1
                self._clock_edge()
                self._settle()
                self.values[self.clock_name] = 0
                self._clock_negedge()
                self._settle()
                self.cycle += 1
                if self._vcd is not None:
                    self._vcd.sample(self.cycle, self.values)
            return
        for _ in range(cycles):
            self.values[self.clock_name] = 1
            self._clock_edge()
            self.values[self.clock_name] = 0
            self._settle()
            self.cycle += 1
            if self._vcd is not None:
                self._vcd.sample(self.cycle, self.values)

    def _clock_negedge(self) -> None:  # pragma: no cover - overridden
        """Falling-edge hook; backends with negedge blocks override."""

    def settle(self) -> None:
        """Re-evaluate combinational logic without a clock edge."""
        self._settle()

    # -- state capture ----------------------------------------------------------------

    def save_state(self) -> Dict[str, object]:
        """Capture S_hw: state nets, state memories, primary input levels."""
        nets = {n.name: self.values[n.name] for n in self.design.state_nets}
        for n in self.design.inputs:
            nets[n.name] = self.values[n.name]
        mems = {m.name: list(self.memories[m.name])
                for m in self.design.state_memories}
        return {"cycle": self.cycle, "nets": nets, "memories": mems}

    def load_state(self, snapshot: Dict[str, object]) -> None:
        """Restore a snapshot produced by :meth:`save_state` and settle."""
        nets: Dict[str, int] = snapshot["nets"]  # type: ignore[assignment]
        mems: Dict[str, List[int]] = snapshot["memories"]  # type: ignore[assignment]
        for name, value in nets.items():
            net = self._net(name)
            self.values[name] = value & net.mask
        for name, words in mems.items():
            mem = self._memory(name)
            if len(words) != mem.depth:
                raise SimulationError(
                    f"snapshot for {name!r} has {len(words)} words, "
                    f"expected {mem.depth}")
            self.memories[name] = [w & mem.mask for w in words]
        self.cycle = int(snapshot.get("cycle", 0))  # type: ignore[arg-type]
        self.state_version += 1
        self._settle()

    # -- tracing ------------------------------------------------------------------------

    def attach_vcd(self, writer) -> None:
        """Attach a VCD writer; it is sampled after every clock cycle."""
        self._vcd = writer
        writer.declare(self.design)
        writer.sample(self.cycle, self.values)

    def detach_vcd(self) -> None:
        self._vcd = None

    # -- backend hooks ------------------------------------------------------------------

    def _settle(self) -> None:
        raise NotImplementedError

    def _clock_edge(self) -> None:
        raise NotImplementedError

    def _run_init_blocks(self) -> None:
        raise NotImplementedError
