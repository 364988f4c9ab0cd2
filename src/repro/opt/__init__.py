"""Bit-level dataflow analysis and netlist optimization.

The package has two consumers:

* ``repro.lint`` — the dataflow-backed rules (``df-*``) query
  :func:`constant_map` and :func:`live_masks` directly,
* ``repro.sim`` — :func:`optimize` / :func:`run_opt` fuse single-use
  wires into their consumers for the netlist the compiled backend
  executes when ``opt=True``.
"""

from repro.opt.cones import inline_single_use_wires
from repro.opt.dataflow import constant_map
from repro.opt.lattice import BitsVal, eval_expr, join, of_const, top
from repro.opt.liveness import LiveSets, live_masks
from repro.opt.transform import OptReport, OptResult, optimize, run_opt

__all__ = [
    "BitsVal", "LiveSets", "OptReport", "OptResult", "constant_map",
    "eval_expr", "inline_single_use_wires", "join", "live_masks",
    "of_const", "optimize", "run_opt", "top",
]
