"""HardSnap-specific lint rules: snapshot consistency, statically.

The paper's guarantee is that S_hw — every inferred state element — is
observable and controllable through the scan chain (or at least captured
by configuration readback). These rules prove that property *before*
instrumentation and simulation, instead of discovering inconsistent
snapshots as silently diverging path exploration later.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Sequence

from repro.hdl import ir
from repro.instrument.scan_chain import SCAN_ENABLE, SCAN_IN, SCAN_OUT
from repro.lint.analysis import BlockInfo, LintContext
from repro.lint.framework import ERROR, INFO, Diagnostic, rule

SNAPSHOT_COMPLETENESS = "snapshot-completeness"
SCAN_PORT_COLLISION = "scan-port-collision"
SCAN_GATING = "scan-gating"

#: Internal nets the scan pass synthesises; a colliding user net would be
#: silently clobbered by the insertion.
_RESERVED_INTERNAL = re.compile(r"^(scan_p|scan_tap|scan_t\d+)$")


def _selected(name: str, include: Optional[Sequence[str]]) -> bool:
    """Mirror of the scan pass's ``include`` prefix filter."""
    if include is None:
        return True
    return any(name == p or name.startswith(p + ".") for p in include)


@rule(SNAPSHOT_COMPLETENESS, ERROR, "Snapshot completeness",
      "Every inferred state element (S_hw) must be threaded on the scan "
      "chain or captured by readback; uncovered state makes snapshots "
      "inconsistent — the paper's naive-and-inconsistent regime.")
def check_snapshot_completeness(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.design
    cfg = ctx.config
    if cfg.clock not in design.nets:
        yield ctx.diag(
            SNAPSHOT_COMPLETENESS, ERROR,
            f"design has no clock net {cfg.clock!r}; the scan chain "
            f"cannot be inserted",
            subject=cfg.clock)
        return
    if not design.state_nets and not design.state_memories:
        yield ctx.diag(
            SNAPSHOT_COMPLETENESS, ERROR,
            "design has no state elements to snapshot")
        return
    covered_bits = 0
    for net in design.state_nets:
        if not _selected(net.name, cfg.include):
            yield ctx.diag(
                SNAPSHOT_COMPLETENESS, ERROR,
                f"state register {net.name!r} ({net.width} bits) is "
                f"excluded from the scan chain by the include filter; its "
                f"value survives across restores and corrupts replays",
                subject=net.name)
        else:
            covered_bits += net.width
    for mem in design.state_memories:
        if not _selected(mem.name, cfg.include):
            yield ctx.diag(
                SNAPSHOT_COMPLETENESS, ERROR,
                f"state memory {mem.name!r} ({mem.state_bits} bits) is "
                f"excluded from the scan chain by the include filter",
                subject=mem.name)
        elif mem.state_bits > cfg.memory_limit_bits:
            if cfg.readback:
                yield ctx.diag(
                    SNAPSHOT_COMPLETENESS, INFO,
                    f"state memory {mem.name!r} ({mem.state_bits} bits) "
                    f"exceeds the chain limit "
                    f"({cfg.memory_limit_bits} bits); it is captured via "
                    f"configuration readback (capture-only)",
                    subject=mem.name)
            else:
                yield ctx.diag(
                    SNAPSHOT_COMPLETENESS, ERROR,
                    f"state memory {mem.name!r} ({mem.state_bits} bits) "
                    f"exceeds the chain limit "
                    f"({cfg.memory_limit_bits} bits) and the target has "
                    f"no readback path; its contents are unsnapshottable",
                    subject=mem.name)
        else:
            covered_bits += mem.state_bits
    if cfg.include is not None and covered_bits == 0:
        yield ctx.diag(
            SNAPSHOT_COMPLETENESS, ERROR,
            f"include filter {list(cfg.include)!r} matches no state "
            f"element; the chain would be empty")


def _looks_instrumented(design: ir.Design) -> bool:
    """True when the design already carries a well-formed scan interface."""
    enable = design.nets.get(SCAN_ENABLE)
    sin = design.nets.get(SCAN_IN)
    sout = design.nets.get(SCAN_OUT)
    return (enable is not None and enable.kind == "input"
            and enable.width == 1
            and sin is not None and sin.kind == "input" and sin.width == 1
            and sout is not None and sout.kind == "output"
            and sout.width == 1)


@rule(SCAN_PORT_COLLISION, ERROR, "Scan port name collision",
      "The scan pass adds scan_enable/scan_in/scan_out ports and internal "
      "shift nets; a user net with one of those names would be rejected "
      "or silently clobbered during insertion.")
def check_scan_port_collision(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.design
    if _looks_instrumented(design):
        return  # an already-instrumented design owns these names
    for name in (SCAN_ENABLE, SCAN_IN, SCAN_OUT):
        if name in design.nets or name in design.memories:
            yield ctx.diag(
                SCAN_PORT_COLLISION, ERROR,
                f"net {name!r} collides with a reserved scan port name",
                subject=name)
    for name in sorted(design.nets) + sorted(design.memories):
        local = name.split(".")[-1]
        if _RESERVED_INTERNAL.match(local):
            yield ctx.diag(
                SCAN_PORT_COLLISION, ERROR,
                f"net {name!r} collides with a scan-chain internal net "
                f"name and would be clobbered by insertion",
                subject=name)


@rule(SCAN_GATING, ERROR, "Un-gated writer of scanned state",
      "In an instrumented design every functional writer of chain state "
      "must be gated off while scan_enable is high; an un-gated writer "
      "races the shift path and corrupts the snapshot as it streams.")
def check_scan_gating(ctx: LintContext) -> Iterable[Diagnostic]:
    design = ctx.design
    enable = design.nets.get(SCAN_ENABLE)
    if enable is None or enable.width != 1:
        return  # not an instrumented design
    shift_writers: Dict[str, List[BlockInfo]] = {}
    ungated: Dict[str, List[BlockInfo]] = {}
    for info in ctx.seq:
        if info.gate == (SCAN_ENABLE, True):
            bucket = shift_writers
        elif info.gate == (SCAN_ENABLE, False):
            continue  # properly gated functional process
        else:
            bucket = ungated
        for name in list(info.write_masks) + list(info.mem_writes):
            bucket.setdefault(name, []).append(info)
    for name in sorted(set(shift_writers) & set(ungated)):
        culprit = ungated[name][0]
        yield ctx.diag(
            SCAN_GATING, ERROR,
            f"state element {name!r} is written by the scan shift path "
            f"({shift_writers[name][0].label}) and by un-gated process "
            f"{culprit.label}; shifting would race functional updates",
            subject=name, line=culprit.line or None)
