"""Cycle-accurate RTL simulation of elaborated designs.

Two backends share one API (:class:`~repro.sim.base.BaseSimulation`):

* :class:`~repro.sim.interpreter.Interpreter` — tree-walking, slow, fully
  introspectable, VCD-traceable: HardSnap's *simulator target* substrate,
* :class:`~repro.sim.compiler.CompiledSimulation` — Python code generation,
  roughly an order of magnitude faster: the *FPGA target* substrate.

Both produce bit-identical behaviour for the supported Verilog subset
(property-tested in ``tests/test_sim_equivalence.py``).
"""

from repro.sim.base import BaseSimulation
from repro.sim.compiler import CompiledSimulation
from repro.sim.interpreter import Interpreter
from repro.sim.scheduler import clock_domain, order_comb_blocks
from repro.sim.vcd import VcdWriter

__all__ = [
    "BaseSimulation", "CompiledSimulation", "Interpreter", "VcdWriter",
    "clock_domain", "order_comb_blocks",
]
