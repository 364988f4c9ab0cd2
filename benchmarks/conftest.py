"""Shared helpers for the benchmark/experiment harness.

Every module regenerates one table or figure of the paper (see the
experiment index in DESIGN.md). Each experiment:

* runs the real code paths (never canned numbers),
* prints a paper-style table (visible with ``pytest -s``) and writes it
  to ``benchmarks/out/<experiment>.txt``,
* asserts the *shape* the paper reports (who wins, how things scale),
* wraps a representative kernel in pytest-benchmark for host-time data.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.core import SnapshotFuzzer
from repro.core.persistence import atomic_write_json, atomic_write_text
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.isa import assemble
from repro.peripherals import catalog
from repro.targets import FpgaTarget, SimulatorTarget

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Base address used when hosting a single corpus peripheral.
PERIPH_BASE = 0x4000_0000

# -- E9's fuzzing cell, which E13 times too ---------------------------------

#: The cell fuzzes the packet-parser firmware against a TIMER.
TIMER = [(catalog.TIMER, TIMER_BASE)]
#: The cmd-2 seed programs a long timer wait: each execution steps the
#: RTL simulation for dozens of cycles, so per-input hardware work (the
#: thing workers parallelise) dominates the result-merge traffic.
FUZZ_SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 31])]
FUZZ_BATCH = 64
#: Workload for the sizing probe; the real run is grown from it.
PROBE_EXECUTIONS = 576  # 9 batches
#: Measurement floor: the serial fuzz baseline must take at least this
#: long, or wall-clock ratios drown in scheduler/timer noise.
MIN_SERIAL_S = 2.0
#: Ceiling so a fast host cannot scale the run into minutes. At about
#: 30 000 exec/s the floor (with its 15 % headroom) needs about 70 000
#: executions; the ceiling leaves room for hosts several times faster.
MAX_EXECUTIONS = 262_144  # 4 096 batches


def _serial_fuzz(executions):
    """One serial run of the fuzzing cell: ``(report, host seconds)``."""
    target = FpgaTarget(scan_mode="functional")
    for spec, base in TIMER:
        target.add_peripheral(spec, base)
    fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()), target,
                            seeds=FUZZ_SEEDS, seed=3)
    start = time.perf_counter()
    report = fuzzer.run(executions=executions, batch_size=FUZZ_BATCH)
    return report, time.perf_counter() - start


def _scaled_executions(executions: int, elapsed: float) -> int:
    """Executions needed to push the serial baseline past the floor at
    the rate of a run of *executions* that took *elapsed* seconds,
    rounded up to whole batches (the fuzzer's scheduling granule, so
    parallel runs replay the identical batch sequence)."""
    per_exec = elapsed / executions
    need = (MIN_SERIAL_S * 1.15) / per_exec  # 15% headroom over floor
    batches = -(-int(need) // FUZZ_BATCH) + 1
    return min(batches * FUZZ_BATCH, MAX_EXECUTIONS)


def grown_serial_fuzz():
    """The serial baseline, grown until it clears the floor: a run
    below :data:`MIN_SERIAL_S` is followed by one rescaled from its own
    rate (a short probe misjudges the rate on a noisy host), up to
    :data:`MAX_EXECUTIONS`. Returns the final ``(executions, report,
    seconds)`` and every run's ``(executions, seconds)``."""
    executions = PROBE_EXECUTIONS
    report, elapsed = _serial_fuzz(executions)
    runs = [(executions, elapsed)]
    while elapsed < MIN_SERIAL_S and executions < MAX_EXECUTIONS:
        executions = _scaled_executions(executions, elapsed)
        report, elapsed = _serial_fuzz(executions)
        runs.append((executions, elapsed))
    return executions, report, elapsed, runs


def emit(experiment: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/out/."""
    print()
    print(text)
    OUT_DIR.mkdir(exist_ok=True)
    atomic_write_text(OUT_DIR / f"{experiment}.txt", text + "\n")


def emit_json(name: str, payload: dict) -> None:
    """Persist a BENCH_*.json machine artifact atomically — CI gates
    read these back, so a crashed run must never leave a torn file."""
    OUT_DIR.mkdir(exist_ok=True)
    atomic_write_json(OUT_DIR / name, payload, indent=2, sort_keys=True)


def fpga_with(spec, scan_mode="functional", **kw) -> FpgaTarget:
    target = FpgaTarget(scan_mode=scan_mode, **kw)
    target.add_peripheral(spec, PERIPH_BASE)
    target.reset()
    return target


def simulator_with(spec, **kw) -> SimulatorTarget:
    target = SimulatorTarget(**kw)
    target.add_peripheral(spec, PERIPH_BASE)
    target.reset()
    return target


@pytest.fixture(scope="session")
def corpus():
    return list(catalog.CORPUS)
