"""E0 — the end-to-end campaign benchmark.

::

    PYTHONPATH=src:. python -m benchmarks.e2e.run [--workload NAME]
        [--seed S] [--seconds N] [--trace [0|1]]
    python3 benchmarks/e2e/run.py ...      # same, sets its own paths

Runs the four campaign workloads of :mod:`benchmarks.e2e.workloads`.
Every repetition is a fresh child process (``PYTHONHASHSEED=0``),
started one at a time by this process; with several workloads the
repetitions go round-robin. Without ``--seconds`` it runs 5 rounds
(1 when tracing); with it, at least 3 rounds (1 when tracing) and
rounds while time remains.

It checks every verdict: the serial workloads' own checks (the fuzzer
finds the planted crash, each DSE campaign exhausts its expected paths
and bugs), every serial repetition against the first, and every
``*-par2`` campaign's ``verdict_summary()`` byte for byte against its
serial counterpart's (run once, untimed, when that workload is not
selected). A mismatch or a missed deadline is a failed operation.

It prints every end-to-end metric with its unit, quartiles and n over
the repetitions (see :func:`end_to_end`); ``--trace`` instead runs a
traced repetition after each untraced one and prints the per-layer
metrics and the tracing overhead. Results go to
``benchmarks/e2e/out/latest.json`` (traced: ``out/trace.json``) and
one summary line is appended to ``out/history.jsonl``. The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[2]
OUT = ROOT / "benchmarks" / "e2e" / "out"

WORKLOADS = ("fuzz-serial", "fuzz-par2", "dse-serial", "dse-par2")
#: Whose verdicts each parallel workload must reproduce.
REFERENCE = {"fuzz-par2": "fuzz-serial", "dse-par2": "dse-serial"}
#: End-to-end metric -> unit. Every workload reports every one.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "verdict_max_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
DEFAULT_ROUNDS = 5
MIN_ROUNDS = 3
#: A repetition that has not finished by then is killed (with its
#: process group) and counts as failed.
CHILD_TIMEOUT_S = 150


def run_child(workload: str, seed: int, traced: bool) -> Dict[str, Any]:
    """One repetition in a fresh process; returns its result dict."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    spec = {"workload": workload, "seed": seed, "traced": traced,
            "trace_dir": str(OUT / "trace"), "tmp_dir": str(OUT / "tmp"),
            "launched": time.monotonic()}
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.workloads", json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return _failed_child(workload, f"timed out after {CHILD_TIMEOUT_S} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return _failed_child(workload, f"exit code {proc.returncode}")
    return json.loads(lines[-1])


def _failed_child(workload: str, error: str) -> Dict[str, Any]:
    return {"workload": workload, "metrics": None, "trace": None,
            "campaigns": [{"name": "repetition", "verdict": None,
                           "error": error}]}


def check_verdicts(reps: List[Dict[str, Any]],
                   reference: Optional[Dict[str, Any]],
                   against: str) -> List[str]:
    """Errors of every campaign in *reps*: its own check, then its
    verdict against the same campaign in *reference*."""
    expected = {c["name"]: c["verdict"]
                for c in (reference or {}).get("campaigns", [])}
    errors = []
    for i, rep in enumerate(reps):
        for campaign in rep["campaigns"]:
            where = f"rep {i} {campaign['name']}"
            if campaign["error"]:
                errors.append(f"{where}: {campaign['error']}")
            elif reference is not None and \
                    campaign["verdict"] != expected.get(campaign["name"]):
                errors.append(f"{where}: verdict differs from {against}")
    return errors


def quartiles(values: List[float]) -> List[float]:
    if len(values) > 1:
        return statistics.quantiles(values, n=4)
    return [values[0]] * 3


def describe(values: List[float], unit: str) -> Dict[str, Any]:
    q1, median, q3 = quartiles(values)
    return {"value": median, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "unit": unit, "values": values}


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """The end-to-end metrics over repetitions of identical work.

    Noise on a shared host arrives in bursts that slow a stretch of a
    repetition, CPU time included; it only ever adds time. So the
    reported ``value`` takes each campaign's run and CPU seconds as
    the best of its repetitions (as ``timeit`` does) and computes the
    metrics from those; set-up and memory report the median
    repetition. The quartiles describe the repetitions' own metrics
    (``values``).
    """
    out = {name: describe([rep["metrics"][name] for rep in reps], unit)
           for name, unit in END_TO_END.items()}
    run_s = best_of(reps, "run_s")
    work = sum(statistics.median(c["work"] for c in column)
               for column in zip(*(rep["campaigns"] for rep in reps)))
    out["work_per_s"]["value"] = work / sum(run_s)
    out["verdict_max_s"]["value"] = max(run_s)
    out["cpu_s"]["value"] = sum(best_of(reps, "cpu_s"))
    return out


def best_of(reps: List[Dict[str, Any]], key: str) -> List[float]:
    """Each campaign's smallest *key* over the repetitions."""
    return [min(c[key] for c in column)
            for column in zip(*(rep["campaigns"] for rep in reps))]


def summarize_workload(workload: str, reps: List[Dict[str, Any]],
                       traced: List[Dict[str, Any]],
                       reference: Optional[Dict[str, Any]]
                       ) -> Dict[str, Any]:
    against = REFERENCE.get(workload, f"{workload} repetition 0")
    if reference is None and not workload.endswith("par2"):
        # Serial repetitions must agree with each other.
        reference = reps[0] if reps[0]["metrics"] is not None else None
    errors = check_verdicts(reps + traced, reference, against)
    measured = [r for r in reps if r["metrics"] is not None]
    out: Dict[str, Any] = {
        "attempted": sum(len(r["campaigns"]) for r in reps + traced),
        "failed": len(errors),
        "errors": errors,
        "metrics": end_to_end(measured) if measured else {},
        "modelled_s": [r["modelled_s"] for r in measured],
        "campaign_run_s": {},
    }
    for rep in measured:
        for c in rep["campaigns"]:
            out["campaign_run_s"].setdefault(c["name"], []).append(c["run_s"])
    traced = [r for r in traced if r["trace"] is not None]
    if traced and measured:
        # Campaign wall time, best of the repetitions on both sides.
        untraced_wall = sum(best_of(measured, "run_s"))
        traced_wall = sum(best_of(traced, "run_s"))
        out["trace"] = {
            "overhead_pct": 100 * (traced_wall / untraced_wall - 1),
            "untraced_wall_s": [r["wall_s"] for r in measured],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "per_layer": {
                name: describe([r["trace"]["metrics"][name]["value"]
                                for r in traced], spec["unit"])
                for name, spec in traced[0]["trace"]["metrics"].items()},
            "breakdown": traced[0]["trace"],
        }
    return out


def _git_state() -> Dict[str, Any]:
    """HEAD and a dirty flag, or nulls outside a git checkout (git is
    only asked when the checkout itself holds the repository)."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=30)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    if head.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def _write_json(path: pathlib.Path, payload: Any,
                indent: Optional[int] = 1) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=indent, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _print_table(results: Dict[str, Dict[str, Any]], trace: bool) -> None:
    for workload, res in results.items():
        print(f"== {workload}: {res['attempted']} campaigns, "
              f"{res['failed']} failed "
              f"(failed_frac {res['failed'] / max(1, res['attempted']):.3f})")
        for error in res["errors"][:10]:
            print(f"   FAILED {error}")
        rows = res["metrics"] if not trace else res.get(
            "trace", {}).get("per_layer", {})
        for name, d in rows.items():
            print(f"   {name:34s} {d['value']:<12.6g} {d['unit']:8s} "
                  f"(q1 {d['q1']:.6g}, median {d['median']:.6g}, "
                  f"q3 {d['q3']:.6g}, n {d['n']})")
        if res["modelled_s"]:
            print(f"   {'modelled_s (paper cost model)':34s} "
                  f"{statistics.median(res['modelled_s']):<12.6g} model_s")
        if trace and "trace" in res:
            print(f"   tracing overhead {res['trace']['overhead_pct']:+.1f}% "
                  f"of the untraced wall time")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=3,
                        help="seeds the fuzz mutation RNGs (DSE campaigns "
                             "are exhaustive and seed-independent)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: a fixed "
                             "number of rounds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run traced repetitions and report the "
                             "per-layer metrics")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    for sub in ("trace", "tmp"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    started = time.monotonic()
    references = {
        serial: run_child(serial, args.seed, traced=False)
        for serial in {REFERENCE[w] for w in workloads if w in REFERENCE}
        if serial not in workloads}

    reps: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    traced: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    min_rounds = 1 if trace else MIN_ROUNDS
    rounds = 0
    measure_start = time.monotonic()
    while True:
        for workload in workloads:
            reps[workload].append(run_child(workload, args.seed, False))
            if trace:
                traced[workload].append(run_child(workload, args.seed, True))
        rounds += 1
        elapsed = time.monotonic() - measure_start
        if args.seconds is None:
            if rounds >= (1 if trace else DEFAULT_ROUNDS):
                break
        elif rounds >= min_rounds and \
                elapsed + elapsed / rounds > args.seconds:
            break

    results = {}
    for workload in workloads:
        serial = REFERENCE.get(workload)
        reference = None
        if serial is not None:
            reference = (references[serial] if serial in references
                         else reps[serial][0])
        results[workload] = summarize_workload(
            workload, reps[workload], traced[workload], reference)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and all(
        r["metrics"] and (not trace or "trace" in r) for r in results.values())

    nproc = os.cpu_count()
    effective = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else nproc)
    run_info = {"seed": args.seed, "seconds": args.seconds, "trace": trace,
                "rounds": rounds, "nproc": nproc, "effective_cores": effective,
                "python": platform.python_version(),
                "duration_s": time.monotonic() - started, **_git_state()}

    def reported(res):
        rows = (res.get("trace", {}).get("per_layer", {}) if trace
                else res["metrics"])
        return {name: {"value": d["value"], "unit": d["unit"]}
                for name, d in rows.items()}

    _print_table(results, trace)
    if trace:
        # Compact: the span records run into the thousands.
        _write_json(OUT / "trace.json", {**run_info, "workloads": {
            w: res.get("trace") for w, res in results.items()}}, indent=None)
    else:
        _write_json(OUT / "latest.json", {**run_info, "workloads": results})
    with open(OUT / "history.jsonl", "a") as fh:
        fh.write(json.dumps({**run_info, "correct": correct, "workloads": {
            w: {name: d["value"] for name, d in reported(res).items()}
            for w, res in results.items()}}, sort_keys=True) + "\n")
    metrics = (reported(results[workloads[0]]) if len(workloads) == 1
               else {w: reported(res) for w, res in results.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
