"""E13 — journaling overhead: the event-sourced campaign log must be
nearly free.

Mirrors the E9 2-worker fuzzing cell (same firmware, seeds, batch size,
and E9's own sizing, :func:`benchmarks.conftest.grown_serial_fuzz`: the
serial baseline is grown until it clears the measurement floor) and
runs it twice through :class:`~repro.parallel.ParallelFuzzer`:
journal off, then journal on (``journal=<dir>``, default checkpoint
cadence).  The journal-on run records what a resume needs — the setup
blob, crash events and periodic checkpoints — through
:mod:`repro.core.journal`.

Two properties are asserted:

* **identity** (unconditional): journaling is observation, never
  behaviour — the journal-on verdict is byte-identical to journal-off;
* **overhead** (gated like E9's speedup: only when the host has the
  cores for the cell): best-of-N wall time with the journal on stays
  within ``MAX_OVERHEAD_PCT`` of journal-off.  Everything is written
  on the coordinator: one flushed JSON frame per event, and one
  pickled, fsync'd blob per checkpoint.

Emits ``benchmarks/out/BENCH_journal.json``; CI reads the gate back.
"""

import os
import time

from benchmarks.conftest import (FUZZ_BATCH, FUZZ_SEEDS, MIN_SERIAL_S, TIMER,
                                 emit, emit_json, grown_serial_fuzz)
from repro.firmware import fuzz_packet_parser
from repro.parallel import ParallelFuzzer

WORKERS = 2
#: The gate: journaling-on wall overhead on the E9 2-worker cell.
MAX_OVERHEAD_PCT = 5.0
ROUNDS = 3  # best-of-N per cell, interleaved


def _effective_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell(executions, journal_dir=None):
    with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=FUZZ_SEEDS,
                        workers=WORKERS, batch_size=FUZZ_BATCH, seed=3,
                        journal=journal_dir) as fuzzer:
        fuzzer.warm()  # target elaboration out of the timed region
        start = time.perf_counter()
        report = fuzzer.run(executions=executions)
        elapsed = time.perf_counter() - start
    return report, elapsed


def test_journal_overhead(tmp_path):
    executions, _, serial_s, serial_runs = grown_serial_fuzz()

    off_best = on_best = None
    journal_stats = None
    for round_ in range(ROUNDS):  # interleaved: noise hits both cells
        report, elapsed = _cell(executions)
        if off_best is None or elapsed < off_best[1]:
            off_best = (report, elapsed)
        journal_dir = tmp_path / f"journal-{round_}"
        report, elapsed = _cell(executions, journal_dir=journal_dir)
        if on_best is None or elapsed < on_best[1]:
            on_best = (report, elapsed)
        journal_stats = {
            "events_log_bytes": (journal_dir / "events.log").stat().st_size,
            "blob_count": len(list((journal_dir / "blobs").iterdir())),
        }

    off_report, off_s = off_best
    on_report, on_s = on_best
    overhead_pct = (on_s / off_s - 1.0) * 100.0
    identical = on_report.verdict_summary() == off_report.verdict_summary()

    effective_cores = _effective_cores()
    # Same eligibility rule as E9's speedup gate: wall-clock ratios on a
    # host that cannot run the cell's processes concurrently measure
    # the scheduler, not the journal — but the skipped gate must be
    # visible in the artifact (no-silent-caps).
    gate = {"max_overhead_pct": MAX_OVERHEAD_PCT, "workers": WORKERS,
            "enforced": effective_cores >= WORKERS}
    if not gate["enforced"]:
        gate["note"] = (
            f"overhead gate SKIPPED: {effective_cores} effective "
            f"core(s) cannot overlap journal I/O with {WORKERS} "
            f"workers; identity still asserted")
        print(gate["note"])

    emit("journal_overhead", "\n".join([
        f"E13: journaling overhead, {executions} executions "
        f"(batch {FUZZ_BATCH}, {WORKERS} workers, best of {ROUNDS})",
        f"  journal off : {off_s:.3f} s",
        f"  journal on  : {on_s:.3f} s",
        f"  overhead    : {overhead_pct:+.1f}% "
        f"(gate < {MAX_OVERHEAD_PCT:.0f}%, "
        f"{'enforced' if gate['enforced'] else 'skipped'})",
        f"  verdict     : {'identical' if identical else 'DIVERGED'}",
        f"  journal     : {journal_stats['events_log_bytes']} log bytes, "
        f"{journal_stats['blob_count']} blobs",
    ]))

    emit_json("BENCH_journal.json", {
        "experiment": "journal_overhead",
        "executions": executions,
        "probe_host_s": serial_runs[0][1],
        "serial_runs": serial_runs,
        "serial_host_s": serial_s,
        "min_serial_s": MIN_SERIAL_S,
        "batch_size": FUZZ_BATCH,
        "workers": WORKERS,
        "rounds": ROUNDS,
        "journal_off_s": off_s,
        "journal_on_s": on_s,
        "overhead_pct": overhead_pct,
        "verdict_identical": identical,
        "journal": journal_stats,
        "gate": gate,
    })

    # Journaling is observation: the campaign's verdict never moves.
    assert identical, "journal-on verdict diverged from journal-off"
    # Sealed campaigns record the verdict they reached.
    assert on_report.verdict_summary() is not None
    if gate["enforced"]:
        assert overhead_pct < MAX_OVERHEAD_PCT, (
            f"journaling overhead {overhead_pct:.1f}% exceeds the "
            f"{MAX_OVERHEAD_PCT:.0f}% gate on the E9 {WORKERS}-worker "
            f"cell")
