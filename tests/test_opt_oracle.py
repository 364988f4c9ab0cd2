"""The indexed, copy-on-write passes against their originals.

* Wire fusion: :func:`repro.opt.run_opt` must fuse exactly the wires the
  original per-net scan (``tests/opt_oracle.py``) fuses, drop the same
  nets, and produce a netlist from which both code-generator tiers
  (settle/edge, the fast tier's run loop and its ``axi`` entry) emit
  byte-identical source.
* Scan insertion: sharing untouched structure with the input must give
  the same instrumented design and chain as instrumenting a deep copy.
* Neither pass may change its input: hosted designs are memoised and
  shared between targets, so an in-place edit would leak into every
  other session hosting the same peripheral.

The design set is the extended catalog, four composed SoCs and the RTL
fuzz corpus of ``tests/test_opt_differential.py``.
"""

import copy
from functools import lru_cache

import pytest

from repro.hdl import elaborate, ir
from repro.instrument import insert_scan_chain
from repro.opt import run_opt
from repro.peripherals import catalog
from repro.peripherals.soc import SocSpec
from repro.sim.compiler import _CodeGen, design_fingerprint
from tests.opt_oracle import reference_run_opt
from tests.rtl_fuzz import DesignGen

SOCS = {
    "soc2": [catalog.TIMER, catalog.GPIO],
    "soc3": [catalog.TIMER, catalog.GPIO, catalog.UART],
    "soc4": [catalog.TIMER, catalog.GPIO, catalog.UART, catalog.AES128],
    "soc5": [catalog.TIMER, catalog.GPIO, catalog.UART, catalog.AES128,
             catalog.SHA256],
}
FUZZ_SEEDS = range(14)
NAMES = ([spec.name for spec in catalog.EXTENDED_CORPUS] + list(SOCS)
         + [f"fuzz{seed}" for seed in FUZZ_SEEDS])


@lru_cache(maxsize=None)
def _source(name: str) -> tuple:
    if name in SOCS:
        return SocSpec(SOCS[name], name=name).verilog(), name
    if name.startswith("fuzz"):
        return DesignGen(int(name[4:])).generate()[0], "fuzzed"
    spec = catalog.get(name)
    return spec.verilog(), spec.name


def _build(name: str, variant: str = "plain") -> ir.Design:
    design = elaborate(*_source(name))
    if variant == "scan":
        design = insert_scan_chain(design).design
    return design


def _sources(design: ir.Design) -> tuple:
    fast = _CodeGen(design, "clk", fast=True)
    return (_CodeGen(design, "clk").generate(), fast.generate(),
            fast.generate_axi())


@pytest.mark.parametrize("variant", ["plain", "scan"])
@pytest.mark.parametrize("name", NAMES)
def test_fusion_matches_oracle(name, variant):
    design = _build(name, variant)
    ref_design, ref_fused, ref_removed = reference_run_opt(design)
    result = run_opt(design)
    assert result.report.inlined_wires == ref_fused
    assert result.report.removed_nets == ref_removed
    assert _sources(result.design) == _sources(ref_design)


@pytest.mark.parametrize("name", NAMES)
def test_scan_insertion_matches_deep_copy(name):
    design = _build(name)
    copied = insert_scan_chain(copy.deepcopy(design))
    shared = insert_scan_chain(design)
    assert (design_fingerprint(shared.design)
            == design_fingerprint(copied.design))
    assert shared.elements == copied.elements
    assert shared.excluded == copied.excluded


def test_scoped_scan_insertion_matches_deep_copy():
    design = _build("soc3")
    copied = insert_scan_chain(copy.deepcopy(design), include=["p1"])
    shared = insert_scan_chain(design, include=["p1"])
    assert (design_fingerprint(shared.design)
            == design_fingerprint(copied.design))
    assert shared.elements == copied.elements
    assert shared.excluded == copied.excluded


@pytest.mark.parametrize("name", NAMES)
def test_passes_leave_their_input_unchanged(name):
    plain = _build(name)
    plain_fp = design_fingerprint(plain)
    run_opt(plain)
    assert design_fingerprint(plain) == plain_fp, "run_opt mutated its input"
    scan = insert_scan_chain(plain).design
    assert design_fingerprint(plain) == plain_fp, \
        "insert_scan_chain mutated its input"
    scan_fp = design_fingerprint(scan)
    run_opt(scan)
    assert design_fingerprint(scan) == scan_fp, \
        "run_opt mutated the instrumented design"
    assert design_fingerprint(plain) == plain_fp, \
        "run_opt reached through the instrumented design into its source"
