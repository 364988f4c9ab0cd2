"""Structural RTL lint rules.

These catch the classic defects that make a design un-simulatable or
un-snapshottable before it ever reaches a backend: combinational loops,
multiple drivers, inferred latches, silent width truncation, dead logic,
clockless processes and unresettable state.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Set

from repro.hdl import ir
from repro.lint.analysis import (BlockInfo, LintContext, lvalue_width,
                                 significant_width,
                                 strongly_connected_components)
from repro.lint.framework import ERROR, WARNING, Diagnostic, rule

COMB_LOOP = "comb-loop"
MULTI_DRIVER = "multi-driver"
LATCH = "latch"
WIDTH_TRUNC = "width-trunc"
DEAD_NET = "dead-net"
UNREACHABLE_SEQ = "unreachable-seq"
NO_RESET = "no-reset"


@rule(COMB_LOOP, ERROR, "Combinational loop",
      "A cycle through combinational processes has no stable evaluation "
      "order; the cycle-based simulators reject it and synthesis would "
      "oscillate.")
def check_comb_loop(ctx: LintContext) -> Iterable[Diagnostic]:
    blocks = ctx.comb
    writers: Dict[str, List[int]] = {}
    for i, info in enumerate(blocks):
        for name in info.writes:
            writers.setdefault(name, []).append(i)
    succ: Dict[int, Set[int]] = {}
    for j, info in enumerate(blocks):
        for name in info.reads:
            for i in writers.get(name, ()):
                if i != j:
                    succ.setdefault(i, set()).add(j)
    for component in strongly_connected_components(succ, len(blocks)):
        if len(component) < 2:
            continue
        names = ", ".join(blocks[i].label for i in component[:6])
        if len(component) > 6:
            names += ", ..."
        first = blocks[component[0]]
        yield ctx.diag(
            COMB_LOOP, ERROR,
            f"combinational loop through {len(component)} processes: {names}",
            subject=first.label, line=first.line)


def _exclusive(a: BlockInfo, b: BlockInfo) -> bool:
    """True when two processes provably never execute together."""
    return (a.gate is not None and b.gate is not None
            and a.gate[0] == b.gate[0] and a.gate[1] != b.gate[1])


@rule(MULTI_DRIVER, ERROR, "Multiple drivers",
      "A net driven by more than one process (with overlapping bits, and "
      "no mutually exclusive gating) has no defined value; on silicon the "
      "drivers would short.")
def check_multi_driver(ctx: LintContext) -> Iterable[Diagnostic]:
    comb_w: Dict[str, List[BlockInfo]] = {}
    seq_w: Dict[str, List[BlockInfo]] = {}
    for info in ctx.comb:
        for name in info.write_masks:
            comb_w.setdefault(name, []).append(info)
    for info in ctx.seq:
        for name in info.write_masks:
            seq_w.setdefault(name, []).append(info)

    def overlapping(infos: List[BlockInfo], name: str) -> List[BlockInfo]:
        culprits: List[BlockInfo] = []
        for i, a in enumerate(infos):
            for b in infos[i + 1:]:
                if (a.write_masks[name] & b.write_masks[name]
                        and not _exclusive(a, b)):
                    culprits.extend(x for x in (a, b) if x not in culprits)
        return culprits

    for name in sorted(set(comb_w) | set(seq_w)):
        comb_blocks = comb_w.get(name, [])
        seq_blocks = seq_w.get(name, [])
        if comb_blocks and seq_blocks:
            yield ctx.diag(
                MULTI_DRIVER, ERROR,
                f"net {name!r} is driven by both combinational "
                f"({comb_blocks[0].label}) and sequential "
                f"({seq_blocks[0].label}) processes",
                subject=name)
            continue
        for group in (comb_blocks, seq_blocks):
            culprits = overlapping(group, name)
            if culprits:
                labels = ", ".join(c.label for c in culprits[:4])
                yield ctx.diag(
                    MULTI_DRIVER, ERROR,
                    f"net {name!r} has overlapping drivers: {labels}",
                    subject=name)
                break


@rule(LATCH, WARNING, "Inferred latch",
      "A combinational process that does not assign a net on every path "
      "must remember the old value — a latch. Latched bits are invisible "
      "to the flip-flop-based state inference, so snapshots would miss "
      "them.")
def check_latch(ctx: LintContext) -> Iterable[Diagnostic]:
    for info in ctx.comb:
        for name, maybe in sorted(info.write_masks.items()):
            held = maybe & ~info.definite_masks.get(name, 0)
            if held:
                yield ctx.diag(
                    LATCH, WARNING,
                    f"net {name!r} is not assigned on every path through "
                    f"{info.label} (bits {held:#x} would latch); add a "
                    f"default assignment",
                    subject=name, line=info.line or None)


@rule(WIDTH_TRUNC, WARNING, "Width truncation",
      "The right-hand side can carry more significant bits than the "
      "target holds; the extra bits are silently dropped.")
def check_width_trunc(ctx: LintContext) -> Iterable[Diagnostic]:
    for info in ctx.comb + ctx.seq + ctx.init:
        for stmt in info.assigns:
            target_w = lvalue_width(stmt.target)
            sig = significant_width(stmt.value)
            if sig > target_w:
                leaves = list(ir._leaf_lvalues(stmt.target))
                subject = ""
                if leaves and isinstance(leaves[0], (ir.LNet, ir.LNetDyn)):
                    subject = leaves[0].net.name
                elif leaves and isinstance(leaves[0], ir.LMem):
                    subject = leaves[0].memory.name
                yield ctx.diag(
                    WIDTH_TRUNC, WARNING,
                    f"assignment truncates a {sig}-bit value to "
                    f"{target_w} bits in {info.label}",
                    subject=subject, line=stmt.line or info.line or None)


@rule(DEAD_NET, WARNING, "Dead net",
      "A net or memory no process ever reads (and that is not an output "
      "port) is dead logic — often a typo'd name or a leftover.")
def check_dead_net(ctx: LintContext) -> Iterable[Diagnostic]:
    for name, net in sorted(ctx.design.nets.items()):
        if net.kind in ("input", "output"):
            continue
        if ctx.readers.get(name, 0) == 0:
            yield ctx.diag(
                DEAD_NET, WARNING,
                f"net {name!r} is never read",
                subject=name)
    for name in sorted(ctx.design.memories):
        if ctx.readers.get(name, 0) == 0:
            yield ctx.diag(
                DEAD_NET, WARNING,
                f"memory {name!r} is never read",
                subject=name)


@rule(UNREACHABLE_SEQ, ERROR, "Unreachable sequential process",
      "A sequential process whose clock is not an input and is never "
      "driven can never trigger; its state is permanently stuck.")
def check_unreachable_seq(ctx: LintContext) -> Iterable[Diagnostic]:
    driven: Set[str] = set()
    for info in ctx.comb + ctx.seq + ctx.init:
        driven |= set(info.write_masks) | set(info.mem_writes)
    for info in ctx.seq:
        clock = ctx.design.nets.get(info.clock or "")
        if clock is None:
            continue
        if clock.kind == "input" or clock.name in driven:
            continue
        yield ctx.diag(
            UNREACHABLE_SEQ, ERROR,
            f"clock {clock.name!r} of process {info.label} is never "
            f"driven and is not an input; the process can never execute",
            subject=info.label, line=info.line or None)


_SCAN_INTERNAL = re.compile(r"^(scan_p|scan_tap|scan_t\d+)$")


@rule(NO_RESET, WARNING, "Unresettable state",
      "State that is neither covered by a reset nor explicitly "
      "initialised powers up undefined; after a snapshot restore it is "
      "the only state the testbench cannot force to a known value "
      "through a reboot.")
def check_no_reset(ctx: LintContext) -> Iterable[Diagnostic]:
    if not ctx.reset_nets:
        return  # design-wide style choice: nothing to compare against
    for net in ctx.design.state_nets:
        if _SCAN_INTERNAL.match(net.name.split(".")[-1]):
            continue  # chain internals are loaded before use, by design
        if net.name in ctx.reset_covered:
            continue
        if net.name in ctx.init_written or net.explicit_init:
            continue
        yield ctx.diag(
            NO_RESET, WARNING,
            f"state register {net.name!r} is neither reset nor "
            f"initialised",
            subject=net.name)
