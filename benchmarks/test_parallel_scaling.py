"""E9 — parallel scaling: sharded workers vs the serial runtime.

HardSnap's snapshots make states portable, so N target instances can
explore concurrently (§VI discusses scaling co-testing beyond one
target). This experiment measures the worker-pool runtime two ways:

* **fuzzing throughput** — the input-sharded :class:`ParallelFuzzer`
  against the packet-parser firmware at 1/2/4 workers vs the serial
  fuzzer, *with identical results asserted*: same crashes,
  same edge set, byte-identical verdict string for every cell. The
  workload is **scaled until the serial baseline takes ≥ 2 s** (probe
  run → executions rounded up to whole batches), so speedup ratios sit
  well above timer noise; every cell records ``executions/s`` next to
  its speedup.
* **DSE verdict identity + state-wire economics** — the leased
  :class:`ParallelAnalysisEngine` reproduces the serial engine's
  verdicts on a forking workload at 1/2/4 workers, and the delta state
  wire (:mod:`repro.parallel.statewire`) is measured against a
  full-pickle baseline cell (``delta_state=False``): the
  **wire-efficiency gate** requires mean delta bytes per shipped state
  < 25 % of mean full-pickle bytes. Every DSE cell's host seconds are
  tabulated next to the serial engine's, and the **DSE host-time
  gate** bounds each cell, the full-pickle baseline included, at
  :data:`MAX_DSE_CELL_S`.

Every cell moves its envelopes over the pool's one IPC path (packed
batches on ``mp.Queue``); the artifact records the queue bytes and
encode/decode seconds per cell.

Speedup is only asserted for worker counts the host can actually run
concurrently (``effective cores >= workers``); other counts still
verify every identity property, and the skipped gate is recorded in
the artifact — never silently dropped. The gate: the pool must beat
serial (> 1.0x) at 2 workers.

Emits ``benchmarks/out/BENCH_parallel.json`` with the scaling table.
"""

import os
import time

from benchmarks.conftest import emit, emit_json
from repro.analysis import format_table
from repro.core import HardSnapSession, SnapshotFuzzer
from repro.firmware import TIMER_BASE, dispatcher, fuzz_packet_parser
from repro.isa import assemble
from repro.parallel import ParallelAnalysisEngine, ParallelFuzzer
from repro.peripherals import catalog
from repro.targets import FpgaTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]
# The cmd-2 seed programs a long timer wait: each execution steps the
# RTL simulation for dozens of cycles, so per-input hardware work (the
# thing workers parallelise) dominates the result-merge traffic.
SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 31])]
BATCH = 64
#: Workload for the scaling probe; the real run is scaled from it.
PROBE_EXECUTIONS = 576  # 9 batches
#: Measurement floor: the serial fuzz baseline must take at least this
#: long, or speedup ratios drown in scheduler/timer noise.
MIN_SERIAL_S = 2.0
#: Ceiling so a fast host cannot scale the run into minutes.
MAX_EXECUTIONS = 19_968  # 312 batches
WORKER_COUNTS = [1, 2, 4]
#: The parallel runtime must beat serial at 2 workers, when the host
#: has the cores.
MIN_SPEEDUP = 1.0
GATE_WORKERS = 2
#: Wire-efficiency gate (ISSUE-9): mean delta-encoded state bytes must
#: be < 25 % of mean full-pickle state bytes on the DSE workload.
MAX_STATE_BYTES_RATIO = 0.25
#: DSE host-time gate: every leased DSE cell must reach its verdict
#: within this many host seconds. An absolute bound, not a ratio to
#: serial: serial takes ~50 ms, so worker start-up alone puts a cell
#: at several times serial, while a solver stall costs minutes.
MAX_DSE_CELL_S = 5.0

DSE_FIRMWARE_ARGS = dict(n_paths=6, work_cycles=8)
DSE_INSTRUCTIONS = 200_000


def _effective_cores() -> int:
    """Cores this process may actually run on (affinity/cgroup aware) —
    the number that decides whether a speedup gate is meaningful."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial_fuzz(executions):
    target = FpgaTarget(scan_mode="functional")
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()), target,
                            seeds=SEEDS, seed=3)
    start = time.perf_counter()
    report = fuzzer.run(executions=executions, batch_size=BATCH)
    return report, time.perf_counter() - start


def _scaled_executions(probe_s: float) -> int:
    """Executions needed to push the serial baseline past the floor,
    rounded up to whole batches (the fuzzer's scheduling granule, so
    parallel runs replay the identical batch sequence)."""
    if probe_s >= MIN_SERIAL_S:
        return PROBE_EXECUTIONS
    per_exec = probe_s / PROBE_EXECUTIONS
    need = (MIN_SERIAL_S * 1.15) / per_exec  # 15% headroom over floor
    batches = -(-int(need) // BATCH) + 1
    return min(batches * BATCH, MAX_EXECUTIONS)


def _parallel_fuzz(workers, executions):
    with ParallelFuzzer(fuzz_packet_parser(), TIMER, seeds=SEEDS,
                        workers=workers, batch_size=BATCH,
                        seed=3) as fuzzer:
        fuzzer.warm()  # target elaboration out of the timed region
        start = time.perf_counter()
        report = fuzzer.run(executions=executions)
        elapsed = time.perf_counter() - start
        stats = fuzzer.pool_stats
    return report, elapsed, stats


def _dse_cell(workers, delta_state=True):
    with ParallelAnalysisEngine(dispatcher(**DSE_FIRMWARE_ARGS), TIMER,
                                workers=workers,
                                delta_state=delta_state,
                                scan_mode="functional") as engine:
        start = time.perf_counter()
        report = engine.run(max_instructions=DSE_INSTRUCTIONS)
        elapsed = time.perf_counter() - start
        stats = engine.pool_stats
    return report, elapsed, stats


def test_parallel_scaling(benchmark):
    # -- workload scaling: serial baseline above the measurement floor --
    _probe_report, probe_s = _serial_fuzz(PROBE_EXECUTIONS)
    executions = _scaled_executions(probe_s)
    if executions == PROBE_EXECUTIONS:
        serial, serial_s = _probe_report, probe_s
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    else:
        serial, serial_s = benchmark.pedantic(
            _serial_fuzz, args=(executions,), rounds=1, iterations=1)

    rows = [["serial", 1, f"{serial_s:.3f}", "1.00x",
             f"{executions / serial_s:.0f}",
             len(serial.crashes), serial.edges_covered, "-",
             "reference"]]
    cells = {}
    for workers in WORKER_COUNTS:
        report, elapsed, stats = _parallel_fuzz(workers, executions)
        identical = (report.verdict_summary()
                     == serial.verdict_summary())
        ipc = stats.ipc
        cells[workers] = (report, elapsed, identical, ipc.as_dict())
        rows.append([
            "parallel", workers, f"{elapsed:.3f}",
            f"{serial_s / elapsed:.2f}x",
            f"{executions / elapsed:.0f}",
            len(report.crashes), report.edges_covered,
            f"{ipc.queue_bytes_out + ipc.queue_bytes_in}",
            "identical" if identical else "DIVERGED"])

    cores = os.cpu_count() or 1
    effective_cores = _effective_cores()
    table = format_table(
        ["runtime", "workers", "host s", "speedup", "exec/s", "crashes",
         "edges", "queue B", "verdict vs serial"],
        rows,
        title=f"E9: input-sharded fuzzing, {executions} executions "
              f"(batch {BATCH}, {cores} host cores, "
              f"{effective_cores} effective)")

    # -- DSE: verdict identity at 1/2/4 workers, and state-wire
    # economics vs a full-pickle baseline cell -------------------------
    start = time.perf_counter()
    dse_serial = HardSnapSession(
        dispatcher(**DSE_FIRMWARE_ARGS), TIMER,
        scan_mode="functional").run(max_instructions=DSE_INSTRUCTIONS)
    dse_serial_s = time.perf_counter() - start

    def measure_dse(workers, delta_state=True):
        report, elapsed, stats = _dse_cell(workers, delta_state)
        return {"host_s": elapsed,
                "verdict_identical": (report.verdict_summary()
                                      == dse_serial.verdict_summary()),
                "ipc": stats.ipc.as_dict(),
                "state_wire": stats.state_wire.as_dict()}

    dse_cells = {workers: measure_dse(workers) for workers in WORKER_COUNTS}
    baseline_cell = measure_dse(GATE_WORKERS, delta_state=False)

    dse_rows = [["serial", 1, f"{dse_serial_s:.3f}", "1.0x", "-", "-",
                 "reference"]]
    for label, workers, cell in (
            [("delta", w, c) for w, c in dse_cells.items()]
            + [("full pickle", GATE_WORKERS, baseline_cell)]):
        sw = cell["state_wire"]
        dse_rows.append([
            label, workers, f"{cell['host_s']:.3f}",
            f"{cell['host_s'] / dse_serial_s:.1f}x",
            sw["states_sent"],
            sw["state_bytes_delta"] + sw["state_bytes_full"],
            "identical" if cell["verdict_identical"] else "DIVERGED"])
    dse_table = format_table(
        ["state wire", "workers", "host s", "vs serial", "states",
         "state B", "verdict vs serial"],
        dse_rows,
        title=f"E9: leased DSE, dispatcher(n_paths="
              f"{DSE_FIRMWARE_ARGS['n_paths']}), "
              f"{dse_serial.instructions} instructions")
    emit("parallel_scaling", table + "\n\n" + dse_table)

    # Wire-efficiency gate: mean state bytes per shipped state, delta
    # vs full pickle, on the same workload and worker count.
    delta_sw = dse_cells[GATE_WORKERS]["state_wire"]
    full_sw = baseline_cell["state_wire"]
    mean_delta_b = (delta_sw["state_bytes_delta"]
                    / max(1, delta_sw["delta_states"]))
    mean_full_b = (full_sw["state_bytes_full"]
                   / max(1, full_sw["full_states"]))
    wire_gate = {
        "mean_delta_bytes_per_state": round(mean_delta_b, 1),
        "mean_full_bytes_per_state": round(mean_full_b, 1),
        "ratio": round(mean_delta_b / mean_full_b, 4),
        "max_ratio": MAX_STATE_BYTES_RATIO,
        "enforced": True,  # byte accounting needs no spare cores
    }
    dse_gate = {
        "max_cell_s": MAX_DSE_CELL_S,
        "slowest_cell_s": max(cell["host_s"] for cell in
                              [*dse_cells.values(), baseline_cell]),
        "enforced": True,  # a stall is not a matter of spare cores
    }

    # Speedup gate eligibility: judging scaling on a runner without the
    # cores to scale onto is meaningless, but the skipped gate must be
    # visible in the artifact (no-silent-caps).
    gate_eligible = effective_cores >= GATE_WORKERS
    gate = {"min_speedup": MIN_SPEEDUP, "workers": GATE_WORKERS,
            "enforced": gate_eligible}
    if not gate_eligible:
        gate["note"] = (
            f"speedup gate SKIPPED: {effective_cores} effective core(s) "
            f"cannot host {GATE_WORKERS} concurrent workers; identity "
            f"properties still asserted")
        print(gate["note"])

    emit_json("BENCH_parallel.json", {
        "experiment": "parallel_scaling",
        "host_cores": cores,
        "effective_cores": effective_cores,
        "executions": executions,
        "probe_executions": PROBE_EXECUTIONS,
        "probe_host_s": probe_s,
        "min_serial_s": MIN_SERIAL_S,
        "batch_size": BATCH,
        "serial_host_s": serial_s,
        "serial_execs_per_s": executions / serial_s,
        "fuzz": {
            str(w): {
                "host_s": elapsed,
                "speedup": serial_s / elapsed,
                "execs_per_s": executions / elapsed,
                "crashes": len(report.crashes),
                "edges": report.edges_covered,
                "verdict_identical": identical,
                "ipc": ipc,
            } for w, (report, elapsed, identical, ipc) in cells.items()
        },
        "speedup_gate": gate,
        "dse": {
            "serial_instructions": dse_serial.instructions,
            "serial_host_s": dse_serial_s,
            "cells": {str(w): cell for w, cell in dse_cells.items()},
            "full_pickle_baseline": baseline_cell,
        },
        "state_wire_gate": wire_gate,
        "dse_gate": dse_gate,
    })

    # Identity holds unconditionally, per worker count.
    for workers, (report, _, identical, _ipc) in cells.items():
        assert identical, f"workers={workers} diverged from serial"
        assert [c.input_bytes for c in report.crashes] == \
            [c.input_bytes for c in serial.crashes]
        assert report.edge_set == serial.edge_set
    for workers, cell in dse_cells.items():
        assert cell["verdict_identical"], (
            f"DSE workers={workers} diverged")
    assert baseline_cell["verdict_identical"], \
        "full-pickle baseline diverged from serial"
    # DSE host-time gate: no cell, the full-pickle baseline included,
    # may stall in the solver.
    assert dse_gate["slowest_cell_s"] <= MAX_DSE_CELL_S, (
        f"slowest DSE cell took {dse_gate['slowest_cell_s']:.1f}s, over "
        f"the {MAX_DSE_CELL_S}s gate")
    assert serial.crashes and serial.crashes[0].input_bytes[1] >= 0x80
    assert serial_s >= MIN_SERIAL_S, (
        f"serial baseline {serial_s:.2f}s below the {MIN_SERIAL_S}s "
        f"measurement floor even at {executions} executions")

    # Wire-efficiency gate: the delta codec must cut per-state bytes to
    # under a quarter of the full-pickle baseline.
    assert delta_sw["delta_states"] > 0 and full_sw["full_states"] > 0
    assert wire_gate["ratio"] < MAX_STATE_BYTES_RATIO, (
        f"state wire shipped {mean_delta_b:.0f}B/state vs "
        f"{mean_full_b:.0f}B full — ratio {wire_gate['ratio']:.3f} "
        f"exceeds {MAX_STATE_BYTES_RATIO}")

    # Scaling gate: the pool must beat serial at 2 workers where the
    # host can truly run them.
    if gate_eligible:
        _, elapsed, _, _ = cells[GATE_WORKERS]
        assert serial_s / elapsed >= MIN_SPEEDUP, (
            f"speedup {serial_s / elapsed:.2f}x at "
            f"{GATE_WORKERS} workers < {MIN_SPEEDUP}x "
            f"({effective_cores} effective cores)")
