"""Instrumentation overhead accounting (experiment E6) and the
machine-readable instrumentation report.

Builds the per-peripheral table the paper's §IV-A implies — how much
logic the scan-chain pass adds to each design in the corpus — and
:func:`machine_report`, the JSON-ready record combining overhead, chain
coverage and lint findings that the CLI and the benchmark artifacts use.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.hdl.ir import Design
from repro.instrument.emit_verilog import emit_verilog
from repro.instrument.scan_chain import ScanChainResult, insert_scan_chain


@dataclass
class OverheadRow:
    design: str
    flip_flops: int
    memory_bits: int
    chain_length: int
    added_muxes: int
    verilog_lines_before: int
    verilog_lines_after: int

    @property
    def mux_overhead_pct(self) -> float:
        """Added scan muxes relative to existing state bits."""
        if self.flip_flops + self.memory_bits == 0:
            return 0.0
        return 100.0 * self.added_muxes / (self.flip_flops + self.memory_bits)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["mux_overhead_pct"] = round(self.mux_overhead_pct, 2)
        return out


def overhead_row(design: Design, clock: str = "clk",
                 result: Optional[ScanChainResult] = None) -> OverheadRow:
    """Measure the instrumentation overhead for one design."""
    if result is None:
        result = insert_scan_chain(design, clock)
    before = emit_verilog(design)
    after = emit_verilog(result.design)
    stats = design.stats()
    return OverheadRow(
        design=design.name,
        flip_flops=stats["flip_flops"],
        memory_bits=stats["memory_bits"],
        chain_length=result.chain_length,
        added_muxes=result.chain_length,
        verilog_lines_before=before.count("\n"),
        verilog_lines_after=after.count("\n"),
    )


def overhead_table(designs: Sequence[Design], clock: str = "clk") -> List[OverheadRow]:
    return [overhead_row(d, clock) for d in designs]


def machine_report(design: Design, result: Optional[ScanChainResult] = None,
                   clock: str = "clk", lint_report=None) -> dict:
    """One JSON-ready record describing the instrumentation of *design*.

    Combines the overhead accounting, the chain coverage map (threaded
    and excluded elements), and — when a
    :class:`repro.lint.LintReport` is passed — the lint findings, so one
    artifact answers both "what did instrumentation cost" and "is the
    snapshot provably consistent".
    """
    if result is None:
        result = insert_scan_chain(design, clock)
    row = overhead_row(design, clock=clock, result=result)
    report = {
        "design": design.name,
        "source_file": design.source_file,
        "overhead": row.to_dict(),
        "chain": {
            "length_bits": result.chain_length,
            "elements": [
                {"kind": e.kind, "name": e.name, "width": e.width,
                 "word": e.word}
                for e in result.elements
            ],
            "excluded": [
                {"kind": e.kind, "name": e.name, "bits": e.bits,
                 "reason": e.reason}
                for e in result.excluded
            ],
        },
    }
    if lint_report is not None:
        report["lint"] = lint_report.to_dict()
    return report


def format_overhead_table(rows: Sequence[OverheadRow]) -> str:
    header = (f"{'design':<16} {'FFs':>6} {'mem bits':>9} {'chain':>7} "
              f"{'muxes':>7} {'mux %':>7} {'LoC pre':>8} {'LoC post':>9}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.design:<16} {row.flip_flops:>6} {row.memory_bits:>9} "
            f"{row.chain_length:>7} {row.added_muxes:>7} "
            f"{row.mux_overhead_pct:>6.1f}% {row.verilog_lines_before:>8} "
            f"{row.verilog_lines_after:>9}")
    return "\n".join(lines)
