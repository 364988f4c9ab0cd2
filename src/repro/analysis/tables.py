"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render a fixed-width table; numeric cells are right-aligned."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out: List[str] = []
    if title:
        out.append(title)
        out.append("=" * len(sep))
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in rows:
        cells = []
        for cell, width in zip(row, widths):
            if _is_numeric(cell):
                cells.append(cell.rjust(width))
            else:
                cells.append(cell.ljust(width))
        out.append(" | ".join(cells))
    return "\n".join(out)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.1f}"
        if abs(cell) >= 0.01:
            return f"{cell:.3f}"
        return f"{cell:.3e}"
    return str(cell)


def _is_numeric(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def format_snapshot_stats(controller_stats, store_stats) -> str:
    """Snapshot-subsystem accounting table.

    Duck-typed over :class:`~repro.core.snapshot.SnapshotStats` and
    :class:`~repro.core.store.StoreStats` (keeps analysis import-light).
    """
    logical = store_stats.logical_bits
    stored = store_stats.stored_bits
    rows = [
        ("saves", controller_stats.saves),
        ("restores", controller_stats.restores),
        ("resets", controller_stats.resets),
        ("logical bits", logical),
        ("stored bits", stored),
        ("compression", f"{store_stats.compression_ratio:.1f}x"),
        ("dedup hit-rate", f"{store_stats.dedup_hit_rate:.1%}"),
        ("unique chunks", store_stats.chunks),
        ("modelled save", format_si_time(controller_stats.modelled_save_s)),
        ("modelled restore",
         format_si_time(controller_stats.modelled_restore_s)),
    ]
    return format_table(("metric", "value"), rows, title="snapshot store")


def format_si_time(seconds: float) -> str:
    """Human-scale time: 1.23 us / 4.56 ms / 7.89 s."""
    if seconds == 0:
        return "0"
    if seconds < 1e-6:
        return f"{seconds * 1e9:.2f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
