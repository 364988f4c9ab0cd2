"""Scan-chain insertion — the core of HardSnap's Peripheral Snapshotting
Mechanism (paper §III-A, §IV-A).

The pass threads every state element of a design (flip-flops, and state
memories up to a configurable size) into one shift register:

* three ports are added: ``scan_enable``, ``scan_in``, ``scan_out``,
* every original sequential block is gated with ``if (!scan_enable)``,
* one new sequential block implements the shift path: with
  ``scan_enable`` high, each state element shifts one bit per clock,
  LSB-first, receiving the LSB of its predecessor (the first element
  receives ``scan_in``); ``scan_out`` is the LSB of the last element.

Shifting for ``chain_length`` cycles therefore streams the complete
hardware state out of ``scan_out`` while simultaneously loading a new
state from ``scan_in`` — save and restore in one pass, exactly how silicon
scan chains are operated. The transformation is RTL-to-RTL: the result is
an ordinary :class:`~repro.hdl.ir.Design` that can be re-emitted as
Verilog, simulated by either backend, or "synthesised" to the FPGA target.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

from repro.errors import InstrumentationError, ScanCoverageError
from repro.hdl import ir

SCAN_ENABLE = "scan_enable"
SCAN_IN = "scan_in"
SCAN_OUT = "scan_out"

#: Internal nets the pass synthesises; user nets with these names would
#: be clobbered, so insertion rejects them up front.
_RESERVED_INTERNAL = re.compile(r"^(scan_p|scan_tap|scan_t\d+)$")

#: Memories larger than this many bits are left out of the chain by
#: default (real scan insertion excludes SRAM macros; they are captured
#: via readback or dedicated BIST ports instead).
DEFAULT_MEMORY_LIMIT_BITS = 16384


@dataclass
class ChainElement:
    """One state element on the chain, in shift order."""

    kind: str  # "net" | "mem"
    name: str
    width: int
    word: Optional[int] = None  # memory word index for kind == "mem"

    @property
    def bits(self) -> int:
        return self.width


@dataclass
class ExcludedElement:
    """A state element the chain does not thread, and why.

    ``reason`` is ``"memory-limit"`` (bigger than *memory_limit_bits*;
    captured via readback instead) or ``"include-filter"`` (outside the
    user's sub-component selection).
    """

    kind: str  # "net" | "mem"
    name: str
    bits: int
    reason: str

    def as_tuple(self) -> Tuple[str, str, int, str]:
        return (self.kind, self.name, self.bits, self.reason)


@dataclass
class ScanChainResult:
    """Instrumented design plus the chain map needed to (de)serialise state."""

    design: ir.Design
    elements: List[ChainElement] = field(default_factory=list)
    excluded: List[ExcludedElement] = field(default_factory=list)

    @property
    def excluded_memories(self) -> List[str]:
        """Memories left off the chain by the size limit (readback path)."""
        return [e.name for e in self.excluded
                if e.kind == "mem" and e.reason == "memory-limit"]

    @cached_property
    def chain_length(self) -> int:
        # The elements are fixed once insert_scan_chain returns.
        return sum(e.bits for e in self.elements)

    # -- state <-> bitstream -----------------------------------------------------
    #
    # Shift-order convention: on each scan edge a bit enters the FIRST
    # element's MSB and a bit leaves the LAST element's LSB. Feeding the
    # stream bit 0 first for `chain_length` edges loads the packed state,
    # while the packed *old* state appears bit 0 first on scan_out. Hence
    # bit 0 of the stream is the LSB of the LAST element, and offsets walk
    # each element LSB→MSB going backwards through the chain.

    def pack(self, net_values, memory_values) -> int:
        """Pack a state (name->int, name->list[int]) into a scan stream."""
        bitstream = 0
        offset = 0
        for element in reversed(self.elements):
            if element.kind == "net":
                value = net_values[element.name]
            else:
                value = memory_values[element.name][element.word]
            bitstream |= (value & ((1 << element.width) - 1)) << offset
            offset += element.width
        return bitstream

    def unpack(self, bitstream: int) -> Tuple[dict, dict]:
        """Inverse of :meth:`pack`: scan stream -> (nets, memories) dicts."""
        nets: dict = {}
        mems: dict = {}
        offset = 0
        for element in reversed(self.elements):
            value = (bitstream >> offset) & ((1 << element.width) - 1)
            offset += element.width
            if element.kind == "net":
                nets[element.name] = value
            else:
                mems.setdefault(element.name, {})[element.word] = value
        return nets, mems


def preflight_lint(design: ir.Design, clock: str = "clk",
                   memory_limit_bits: int = DEFAULT_MEMORY_LIMIT_BITS,
                   include: Optional[Sequence[str]] = None,
                   readback: bool = True) -> None:
    """Run the static analyzer before instrumenting *design*.

    Raises :class:`InstrumentationError` with the lint diagnostics
    attached when any error-severity finding (combinational loop,
    multiple driver, uncovered state, scan-name collision, ...) would
    make the instrumented design wrong or the snapshot inconsistent.
    """
    from repro.lint import LintConfig, lint_design  # local: avoid cycle

    config = LintConfig(
        clock=clock,
        include=tuple(include) if include is not None else None,
        memory_limit_bits=memory_limit_bits,
        readback=readback)
    report = lint_design(design, config)
    if not report.ok:
        errors = [d for d in report.diagnostics if d.severity == "error"]
        raise InstrumentationError(
            f"design {design.name!r} failed pre-flight lint with "
            f"{len(errors)} error(s); refusing to instrument",
            diagnostics=errors)


def insert_scan_chain(design: ir.Design, clock: str = "clk",
                      memory_limit_bits: int = DEFAULT_MEMORY_LIMIT_BITS,
                      include: Optional[Sequence[str]] = None,
                      on_excluded: str = "record",
                      preflight: bool = False) -> ScanChainResult:
    """Return a scan-instrumented copy of *design*.

    The copy shares every net, memory and statement tree it leaves
    untouched with *design* (see :meth:`~repro.hdl.ir.Design.copy`);
    neither design is mutated.

    ``include`` optionally restricts instrumentation to a sub-component:
    only state elements whose name starts with one of the given prefixes
    are placed on the chain (paper §IV-A: "User-defined parameters allow
    to limit the instrumentation to a sub-component of the entire
    design"). Others keep functioning but are not snapshottable.

    Every element left off the chain — whether by the ``include`` filter
    or by the memory size limit — is recorded in the result's
    ``excluded`` list with its reason. With ``on_excluded="error"`` the
    pass instead raises :class:`ScanCoverageError` naming each offending
    element, for callers that need the full-coverage guarantee.

    ``preflight=True`` runs the static analyzer first and refuses to
    instrument a design with error-severity lint findings (see
    :func:`preflight_lint`). An explicit ``include`` filter is treated
    as deliberate scoping here: coverage gaps it creates are governed by
    ``on_excluded``, not the completeness rule — call
    :func:`preflight_lint` directly with ``include`` for the strict
    full-coverage proof.
    """
    if on_excluded not in ("record", "error"):
        raise ValueError(f"on_excluded must be 'record' or 'error', "
                         f"got {on_excluded!r}")
    if preflight:
        preflight_lint(design, clock, memory_limit_bits, include=None)
    if clock not in design.nets:
        raise InstrumentationError(f"design has no clock net {clock!r}")
    for reserved in (SCAN_ENABLE, SCAN_IN, SCAN_OUT):
        if reserved in design.nets:
            raise InstrumentationError(
                f"design already has a net named {reserved!r}")
    for name in list(design.nets) + list(design.memories):
        if _RESERVED_INTERNAL.match(name.split(".")[-1]):
            raise InstrumentationError(
                f"design already has a net named {name!r}, which collides "
                f"with a scan-chain internal net")
    new_design = design.copy()
    new_design.name = design.name + "_scan"

    def _selected(name: str) -> bool:
        if include is None:
            return True
        return any(name == p or name.startswith(p + ".") for p in include)

    # Scan control ports.
    scan_enable = ir.Net(SCAN_ENABLE, 1, "input")
    scan_in = ir.Net(SCAN_IN, 1, "input")
    scan_out = ir.Net(SCAN_OUT, 1, "output")
    for net in (scan_enable, scan_in, scan_out):
        new_design.nets[net.name] = net
    new_design.inputs.extend([scan_enable, scan_in])
    new_design.outputs.append(scan_out)

    # Gate every original sequential block.
    not_scan = ir.Unary("!", ir.Ref(scan_enable, width=1), width=1)
    new_design.seq_blocks = [
        replace(block, stmts=[ir.SIf(not_scan, block.stmts, [])])
        for block in new_design.seq_blocks]

    # Build the chain in deterministic order, recording every element the
    # chain does not thread (and why) instead of silently skipping it.
    elements: List[ChainElement] = []
    excluded: List[ExcludedElement] = []
    for net in new_design.state_nets:
        if _selected(net.name):
            elements.append(ChainElement("net", net.name, net.width))
        else:
            excluded.append(ExcludedElement(
                "net", net.name, net.width, "include-filter"))
    for mem in new_design.state_memories:
        if not _selected(mem.name):
            excluded.append(ExcludedElement(
                "mem", mem.name, mem.state_bits, "include-filter"))
            continue
        if mem.state_bits > memory_limit_bits:
            excluded.append(ExcludedElement(
                "mem", mem.name, mem.state_bits, "memory-limit"))
            continue
        for word in range(mem.depth):
            elements.append(ChainElement("mem", mem.name, mem.width, word))
    if not elements:
        raise ScanCoverageError(
            f"design {design.name!r} has no state elements to scan",
            elements=[e.as_tuple() for e in excluded])
    if on_excluded == "error" and excluded:
        raise ScanCoverageError(
            f"scan chain for {design.name!r} cannot thread "
            f"{len(excluded)} state element(s)",
            elements=[e.as_tuple() for e in excluded])

    # Shift statements. A 1-bit blocking temporary `scan_p` carries the bit
    # travelling between adjacent elements on one edge; per-memory blocking
    # temporaries hold the word being shifted so its old bits can be read
    # after the (deferred) non-blocking write is issued. This stays inside
    # the Verilog subset: the instrumented design re-emits, re-parses and
    # re-simulates.
    scan_p = ir.Net("scan_p", 1, "reg")
    new_design.nets[scan_p.name] = scan_p
    mem_temps: dict = {}
    for element in elements:
        if element.kind == "mem" and element.name not in mem_temps:
            mem = new_design.memories[element.name]
            temp = ir.Net(f"scan_t{len(mem_temps)}", mem.width, "reg")
            new_design.nets[temp.name] = temp
            mem_temps[element.name] = temp

    shift_stmts: List[ir.Stmt] = [
        ir.SAssign(ir.LNet(scan_p), ir.Ref(scan_in, width=1), blocking=True)]
    p_ref = ir.Ref(scan_p, width=1)
    for element in elements:
        if element.kind == "net":
            net = new_design.nets[element.name]
            current: ir.Expr = ir.Ref(net, width=net.width)
            target: ir.LValue = ir.LNet(net)
        else:
            mem = new_design.memories[element.name]
            temp = mem_temps[element.name]
            index = ir.const(element.word, max(1, _clog2(mem.depth)))
            # temp = mem[word]  (blocking: reads the pre-edge word)
            shift_stmts.append(ir.SAssign(
                ir.LNet(temp), ir.MemRead(mem, index, width=mem.width),
                blocking=True))
            current = ir.Ref(temp, width=temp.width)
            target = ir.LMem(mem, index)
        if element.width == 1:
            new_value: ir.Expr = p_ref
        else:
            upper = ir.Slice(current, element.width - 1, 1,
                             width=element.width - 1)
            new_value = ir.Concat([p_ref, upper], width=element.width)
        # element <= {scan_p, element[w-1:1]}  (non-blocking shift)
        shift_stmts.append(ir.SAssign(target, new_value, blocking=False))
        # scan_p = element[0]  (blocking: old LSB rides to the next element)
        shift_stmts.append(ir.SAssign(
            ir.LNet(scan_p), ir.Slice(current, 0, 0, width=1), blocking=True))

    scan_block = ir.SeqBlock(
        clock=new_design.nets[clock],
        clock_edge="posedge",
        stmts=[ir.SIf(ir.Ref(scan_enable, width=1), shift_stmts, [])],
        name="scan_chain_shift",
    )
    new_design.seq_blocks.append(scan_block)

    # scan_out is combinational: it presents the bit that will leave the
    # chain on the NEXT shift edge (the LSB of the last element). Reading
    # it before each edge and feeding the value back into scan_in rotates
    # the chain in place — the standard circular-scan save protocol.
    last = elements[-1]
    if last.kind == "net":
        last_lsb: ir.Expr = ir.Slice(
            ir.Ref(new_design.nets[last.name],
                   width=new_design.nets[last.name].width), 0, 0, width=1)
    else:
        mem = new_design.memories[last.name]
        tap = ir.Net("scan_tap", mem.width, "wire")
        new_design.nets[tap.name] = tap
        index = ir.const(last.word, max(1, _clog2(mem.depth)))
        tap_stmt = ir.SAssign(ir.LNet(tap),
                              ir.MemRead(mem, index, width=mem.width),
                              blocking=True)
        reads, writes = ir.stmt_reads_writes([tap_stmt])
        new_design.comb_blocks.append(ir.CombBlock(
            [tap_stmt], frozenset(reads), frozenset(writes), name="scan_tap"))
        last_lsb = ir.Slice(ir.Ref(tap, width=tap.width), 0, 0, width=1)
    out_stmt = ir.SAssign(ir.LNet(scan_out), last_lsb, blocking=True)
    reads, writes = ir.stmt_reads_writes([out_stmt])
    new_design.comb_blocks.append(ir.CombBlock(
        [out_stmt], frozenset(reads), frozenset(writes), name="scan_out"))

    new_design.finalize()
    return ScanChainResult(new_design, elements, excluded)


def _clog2(value: int) -> int:
    return max(1, (value - 1).bit_length())
