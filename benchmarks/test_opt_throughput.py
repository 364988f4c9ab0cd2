"""E11 — netlist optimizer throughput: optimized vs stock compiled backend.

With ``opt=True`` the netlist optimizer (``repro.opt``) fuses
single-use wires before the compiled simulator generates code, and the
fast code generator then hoists the whole net map into Python locals
across multi-cycle runs; the fast code generator earns nearly all of
the speedup (the TIMER fuses one wire). This experiment measures what
the fast tier buys over the plain tier on the E9 workload's hardware
(the scan-instrumented TIMER) and proves it changes *nothing
observable*:

* **raw RTL throughput** — cycles/second through ``step(n)`` on the
  instrumented TIMER, optimized vs unoptimized. CI requires >= 1.5x.
* **fuzzing verdict identity** — the E9 serial fuzz (packet-parser
  firmware + TIMER) with an optimized vs unoptimized target: same
  crashes, same edges, byte-identical verdict summary.
* **differential gate** — a snapshot-equality spot check mirroring
  ``tests/test_opt_differential.py``; its outcome is recorded in
  ``benchmarks/out/BENCH_opt.json`` and CI fails if it did not run.
"""

import random
import time

from benchmarks.conftest import emit, emit_json
from repro.analysis import format_table
from repro.core import SnapshotFuzzer
from repro.firmware import TIMER_BASE, fuzz_packet_parser
from repro.instrument import insert_scan_chain
from repro.isa import assemble
from repro.peripherals import catalog
from repro.sim.compiler import CompiledSimulation
from repro.sim.interpreter import Interpreter
from repro.targets import FpgaTarget

SEEDS = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]
EXECUTIONS = 300
MEASURE_CYCLES = 120_000
MIN_SPEEDUP = 1.5  # asserted on raw RTL throughput


def _instrumented_timer():
    return insert_scan_chain(catalog.TIMER.elaborate()).design


def _cycles_per_second(opt):
    sim = CompiledSimulation(_instrumented_timer(), opt=opt)
    sim.step(1_000)  # warm-up outside the timed region
    start = time.perf_counter()
    sim.step(MEASURE_CYCLES)
    elapsed = time.perf_counter() - start
    return MEASURE_CYCLES / elapsed, sim


def _fuzz(opt):
    target = FpgaTarget(scan_mode="functional", opt=opt)
    target.add_peripheral(catalog.TIMER, TIMER_BASE)
    fuzzer = SnapshotFuzzer(assemble(fuzz_packet_parser()), target,
                            seeds=SEEDS, seed=3)
    start = time.perf_counter()
    report = fuzzer.run(executions=EXECUTIONS)
    return report, time.perf_counter() - start


def _differential_spot_check():
    """Optimized compiled vs unoptimized interpreter on the benchmark's
    own hardware: randomized stimulus, then byte-identical snapshots.
    The full gate lives in tests/test_opt_differential.py; this records
    in the artifact that equivalence held for *this* measurement."""
    ref = Interpreter(_instrumented_timer())
    opt = CompiledSimulation(_instrumented_timer(), opt=True)
    rng = random.Random(11)
    for _ in range(150):
        stim = {n.name: rng.getrandbits(n.width)
                for n in ref.design.inputs if n.name != "clk"}
        ref.poke_many(stim)
        opt.poke_many(dict(stim))
        ref.step()
        opt.step()
    ref.step(100)
    opt.step(100)
    return ref.save_state() == opt.save_state()


def test_opt_throughput(benchmark):
    (base_cps, base_sim), (opt_cps, opt_sim) = benchmark.pedantic(
        lambda: (_cycles_per_second(opt=False),
                 _cycles_per_second(opt=True)),
        rounds=1, iterations=1)
    speedup = opt_cps / base_cps

    fuzz_base, fuzz_base_s = _fuzz(opt=False)
    fuzz_opt, fuzz_opt_s = _fuzz(opt=True)
    verdict_identical = (fuzz_opt.verdict_summary()
                         == fuzz_base.verdict_summary())

    gate_ok = _differential_spot_check()

    rows = [
        ["step(n), no-opt", f"{base_cps:,.0f} cyc/s", "1.00x", "reference"],
        ["step(n), opt", f"{opt_cps:,.0f} cyc/s", f"{speedup:.2f}x",
         opt_sim.opt_report.summary()],
        ["serial fuzz, no-opt", f"{fuzz_base_s:.3f} s", "1.00x",
         f"{len(fuzz_base.crashes)} crashes, "
         f"{fuzz_base.edges_covered} edges"],
        ["serial fuzz, opt", f"{fuzz_opt_s:.3f} s",
         f"{fuzz_base_s / fuzz_opt_s:.2f}x",
         "identical verdict" if verdict_identical else "DIVERGED"],
    ]
    emit("opt_throughput", format_table(
        ["configuration", "result", "speedup", "notes"], rows,
        title=f"E11: netlist optimizer on the instrumented TIMER "
              f"({MEASURE_CYCLES} measured cycles, "
              f"{EXECUTIONS} fuzz executions)"))

    emit_json("BENCH_opt.json", {
        "experiment": "opt_throughput",
        "workload": "scan-instrumented TIMER (E9 hardware)",
        "measure_cycles": MEASURE_CYCLES,
        "cycles_per_s": {"no_opt": base_cps, "opt": opt_cps},
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "opt_report": opt_sim.opt_report.summary(),
        "fuzz": {
            "executions": EXECUTIONS,
            "host_s": {"no_opt": fuzz_base_s, "opt": fuzz_opt_s},
            "crashes": len(fuzz_opt.crashes),
            "edges": fuzz_opt.edges_covered,
            "verdict_identical": verdict_identical,
        },
        "differential_gate": {"ran": True, "passed": gate_ok},
    })

    assert gate_ok, "differential spot check failed: snapshots diverged"
    assert verdict_identical, "fuzzing verdicts diverged under opt"
    assert base_sim.opt_report is None and opt_sim.opt_report is not None
    assert speedup >= MIN_SPEEDUP, (
        f"optimizer speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate")
