"""The semantics-preserving ``optimize(design) -> design`` pre-pass.

Pipeline (on a copy that shares every untouched net, memory, process
and expression with the input; the input design is never mutated):

1. nets no process mentions (and nothing external observes) are dropped,
2. single-use wire fusion (:func:`repro.opt.cones.inline_single_use_wires`).

Invariants the passes must uphold (the differential gate enforces them):

* ``state_nets`` / ``state_memories`` are carried over verbatim —
  snapshots of the optimized design are byte-compatible,
* inputs, outputs, every sequential clock/async-reset net and the
  clock-alias glue blocks survive untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from repro.hdl import ir
from repro.opt.cones import inline_single_use_wires
from repro.sim.scheduler import clock_domain


@dataclass
class OptReport:
    """What the optimizer did — surfaced by ``repro run/fuzz``."""

    inlined_wires: List[str] = field(default_factory=list)
    removed_nets: List[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.inlined_wires) + len(self.removed_nets)

    def summary(self) -> str:
        return (f"fused {len(self.inlined_wires)} wires, "
                f"removed {len(self.removed_nets)} nets")


@dataclass
class OptResult:
    design: ir.Design
    report: OptReport


def _protected_nets(design: ir.Design, clock: str) -> Set[str]:
    names: Set[str] = set()
    names.update(net.name for net in design.inputs)
    names.update(net.name for net in design.outputs)
    names.update(net.name for net in design.state_nets)
    clocks = {clock}
    clocks.update(block.clock.name for block in design.seq_blocks)
    for name in clocks:
        if name in design.nets:
            names.update(clock_domain(design, name))
    for block in design.seq_blocks:
        if block.areset is not None:
            names.add(block.areset.name)
    return names


def _mentioned_names(design: ir.Design) -> Set[str]:
    names: Set[str] = set()
    for block in design.seq_blocks:
        names.add(block.clock.name)
        if block.areset is not None:
            names.add(block.areset.name)
    for process in (*design.comb_blocks, *design.seq_blocks,
                    *design.init_blocks):
        reads, writes = ir.stmt_reads_writes(process.stmts)
        names.update(reads)
        names.update(writes)
    return names


def run_opt(design: ir.Design, clock: str = "clk") -> OptResult:
    """Optimize a copy of *design*; the original is left untouched."""
    report = OptReport()
    design = design.copy()
    protected = _protected_nets(design, clock)
    mentioned = _mentioned_names(design) | protected
    for name in sorted(set(design.nets) - mentioned):
        del design.nets[name]
        report.removed_nets.append(name)
    report.inlined_wires = inline_single_use_wires(design, protected)
    return OptResult(design, report)


def optimize(design: ir.Design, clock: str = "clk") -> ir.Design:
    """Convenience wrapper: the optimized design alone."""
    return run_opt(design, clock).design
