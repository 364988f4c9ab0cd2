"""E14 — cold set-up by phase.

Before any campaign runs, HardSnap parses and scan-instruments the
peripherals' HDL and assembles the firmware (paper §IV). E0 times that
set-up as one number per repetition (``setup_s``) and its tracer only
sees campaigns, so this experiment splits it. Each repetition is a
fresh process, as in E0, that imports :mod:`benchmarks.e2e.workloads`
and then builds one E0 workload's campaigns without running them:

* ``dse-serial`` — the ten :class:`HardSnapSession` objects of
  ``DSE_CAMPAIGNS``;
* ``fuzz-serial`` — the eight :class:`SnapshotFuzzer` objects of
  ``fuzz_campaigns(SEED)``, each on its own TIMER target.

Each phase's inclusive wall time is the sum over its outermost calls
(a phase nested in itself counts once): imports (interpreter start up
to the end of the workloads import, as E0 counts it), lex, parse
(tokens to AST, lexing excluded), elaborate (lex and parse included),
scan insertion, fingerprint (the IR walk and the hosted-design key
digest), ``run_opt``, codegen, ``compile()`` of the generated RTL
source, assemble and predecode. ``other`` is the rest of the build:
target boot, snapshots and executors.

Writes ``benchmarks/out/BENCH_setup.json`` and ``setup_phases.txt``
(medians over :data:`REPS` processes per workload, the workloads
alternating). Nothing is gated.
"""

import functools
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

# Only the standard library above: a repetition runs this module as its
# main program, and everything it imports counts as set-up.

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("dse-serial", "fuzz-serial")
REPS = 5
SEED = 3
#: Phases in table order; ``elaborate`` includes ``lex`` and ``parse``.
PHASES = ("imports", "lex", "parse", "elaborate", "scan insertion",
          "fingerprint", "run_opt", "codegen", "compile()", "assemble",
          "predecode")
#: The phases that never run inside one another; the build less these
#: is ``other``.
_DISJOINT = ("elaborate", "scan insertion", "fingerprint", "run_opt",
             "codegen", "compile()", "assemble", "predecode")


def _install_timers(totals):
    """Wrap every function a phase times; return nothing. Functions
    imported by name elsewhere are replaced in every loaded module that
    holds them."""
    import builtins

    from repro import opt
    from repro.hdl import elaborator, lexer, parser
    from repro.instrument import scan_chain
    from repro.isa import assembler, predecode
    from repro.sim import compiler

    active = dict.fromkeys(PHASES, False)

    def timed(phase, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[phase]:
                return fn(*args, **kwargs)
            active[phase] = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[phase] += time.perf_counter() - start
                active[phase] = False
        return wrapper

    functions = [("lex", lexer, "tokenize"),
                 ("elaborate", elaborator, "elaborate"),
                 ("scan insertion", scan_chain, "insert_scan_chain"),
                 ("fingerprint", compiler, "design_fingerprint"),
                 ("fingerprint", compiler, "_fingerprint"),
                 ("fingerprint", compiler, "_key_fingerprint"),
                 ("run_opt", opt, "run_opt"),
                 ("assemble", assembler, "assemble")]
    for phase, module, name in functions:
        original = getattr(module, name, None)
        if original is None:  # a hook another version does not have
            continue
        wrapper = timed(phase, original)
        for loaded in list(sys.modules.values()):
            if getattr(loaded, name, None) is original:
                setattr(loaded, name, wrapper)
    methods = [("parse", parser.Parser, "parse_source"),
               ("codegen", compiler._CodeGen, "generate"),
               ("codegen", compiler._CodeGen, "generate_axi"),
               ("predecode", predecode.DecodedImage, "__init__")]
    for phase, cls, name in methods:
        setattr(cls, name, timed(phase, getattr(cls, name)))
    # The compiled backend's own compile() calls, not the superblocks'.
    compiler.compile = timed("compile()", builtins.compile)


def _build(workload, workloads):
    """Construct *workload*'s campaigns the way E0's runners do."""
    from repro.core import HardSnapSession, SnapshotFuzzer
    from repro.targets import FpgaTarget
    if workload == "dse-serial":
        for campaign in workloads.DSE_CAMPAIGNS:
            HardSnapSession(campaign.firmware, campaign.peripherals,
                            scan_mode="functional", opt=True)
        return
    for campaign in workloads.fuzz_campaigns(SEED):
        target = FpgaTarget(scan_mode="functional", opt=True)
        for spec, base in workloads._TIMER:
            target.add_peripheral(spec, base)
        SnapshotFuzzer(workloads.assemble(workloads.FUZZ_FIRMWARE), target,
                       seeds=list(workloads.FUZZ_SEEDS), reset="snapshot",
                       seed=campaign.rng_seed)


def _repetition(workload, launched):
    """One fresh process's phase seconds (run as the main program)."""
    import benchmarks.e2e.workloads as workloads
    totals = dict.fromkeys(PHASES, 0.0)
    totals["imports"] = time.monotonic() - launched
    _install_timers(totals)
    start = time.perf_counter()
    _build(workload, workloads)
    totals["build"] = time.perf_counter() - start
    totals["other"] = totals["build"] - sum(totals[p] for p in _DISJOINT)
    totals["set-up"] = totals["imports"] + totals["build"]
    return totals


def _run_child(workload):
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    launched = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-m", "benchmarks.test_setup_phases", workload,
         repr(launched)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
        check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_setup_phases():
    from benchmarks.conftest import emit, emit_json
    from repro.analysis import format_table

    samples = {workload: [] for workload in WORKLOADS}
    for rep in range(REPS):
        order = WORKLOADS if rep % 2 == 0 else WORKLOADS[::-1]
        for workload in order:
            samples[workload].append(_run_child(workload))
    rows_order = PHASES + ("other", "build", "set-up")
    medians = {workload: {phase: statistics.median(
        run[phase] for run in runs) for phase in rows_order}
        for workload, runs in samples.items()}
    rows = [[phase] + [f"{medians[w][phase] * 1e3:.1f}" for w in WORKLOADS]
            for phase in rows_order]
    emit("setup_phases", format_table(
        ["phase (inclusive ms, median)"] + list(WORKLOADS), rows,
        title=(f"E14 — cold set-up by phase: median of {REPS} fresh "
               f"processes per workload ({platform.python_version()}, "
               f"{os.cpu_count()} CPUs)")))
    emit_json("BENCH_setup.json", {
        "experiment": "E14",
        "reps": REPS,
        "seed": SEED,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "median_s": medians,
        "samples_s": samples,
    })
    for workload in WORKLOADS:
        assert medians[workload]["build"] > 0


if __name__ == "__main__":
    print(json.dumps(_repetition(sys.argv[1], float(sys.argv[2]))))
