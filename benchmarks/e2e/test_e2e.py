"""Checks of the end-to-end benchmark itself, at tiny campaign sizes.

Runs every workload in-process (the harness runs each repetition in a
fresh process; the repetition code is the same) and asserts that the
metrics declared in ``BENCHMARK.json`` are the ones emitted, that the
verdict checks pass, that a traced breakdown adds up to the wall time,
and that a campaign killed at its deadline fails cleanly.
"""

import glob
import json
import multiprocessing
import pathlib

import pytest

from benchmarks.e2e import compare, run, trace, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def tiny(workload):
    if workload.startswith("fuzz"):
        return workloads.fuzz_campaigns(SEED, count=2, executions=200)
    names = {"dispatcher-16", "fig1_two_paths"}
    return [c for c in workloads.DSE_CAMPAIGNS if c.name in names]


@pytest.fixture(scope="module")
def reps(tmp_path_factory):
    tmp = str(tmp_path_factory.mktemp("journals"))
    return {w: workloads.run_rep(w, SEED, campaigns=tiny(w), tmp_dir=tmp)
            for w in workloads.WORKLOADS}


def test_benchmark_json_declares_what_the_harness_emits(reps):
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == trace.METRICS
    for workload, rep in reps.items():
        summary = run.summarize_workload(workload, [rep], [], None)
        assert {name: d["unit"] for name, d in summary["metrics"].items()} \
            == declared
        assert all(d["value"] > 0 for d in summary["metrics"].values())


def test_verdicts_pass_and_parallel_matches_serial(reps):
    for workload, rep in reps.items():
        errors = run.check_verdicts([rep], None, "")
        assert errors == [], (workload, errors)
    for par2, serial in run.REFERENCE.items():
        errors = run.check_verdicts([reps[par2]], reps[serial], serial)
        assert errors == [], (par2, errors)
    crashes = [c["verdict"] for c in reps["fuzz-serial"]["campaigns"]]
    assert all("crashes=<>" not in v for v in crashes)


def test_verdict_mismatch_counts_as_failed(reps):
    wrong = json.loads(json.dumps(reps["fuzz-serial"]))
    wrong["campaigns"][0]["verdict"] += "x"
    errors = run.check_verdicts([reps["fuzz-par2"]], wrong, "fuzz-serial")
    assert len(errors) == 1 and "differs" in errors[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_self_times_sum_to_wall(workload, tmp_path):
    tracer = trace.Tracer(workload, str(tmp_path)).install()
    try:
        rep = workloads.run_rep(workload, SEED, campaigns=tiny(workload),
                                tracer=tracer, tmp_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    summary = rep["trace"]
    assert rep["wall_s"] > 0
    assert summary["coordinator_self_s"] == pytest.approx(rep["wall_s"],
                                                          rel=0.05)
    if workload.endswith("par2"):
        assert summary["parallel.workers.busy_s"] > 0
        assert summary["worker_self_s"] == pytest.approx(
            summary["parallel.workers.busy_s"], rel=0.05)
    shares = sum(d["value"] for name, d in summary["metrics"].items()
                 if name.endswith(".self_pct"))
    assert shares == pytest.approx(100, rel=0.05)
    units = {name: d["unit"] for name, d in summary["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert any(span[0] == "campaign" for span in summary["spans"])
    reported = run.summarize_workload(workload, [rep], [rep], None)["trace"]
    assert {name: d["unit"] for name, d in reported["per_layer"].items()} \
        == units
    assert reported["overhead_pct"] == pytest.approx(0)


def _live_segments():
    return set(glob.glob("/dev/shm/rpr-*"))


def test_campaign_past_deadline_fails_and_cleans_up(tmp_path):
    before = _live_segments()
    slow = [c for c in workloads.DSE_CAMPAIGNS if c.name == "dispatcher-64"]
    rep = workloads.run_rep("dse-par2", SEED, campaigns=slow,
                            tmp_dir=str(tmp_path), deadline_s=0.05)
    (campaign,) = rep["campaigns"]
    assert campaign["verdict"] is None and "no verdict" in campaign["error"]
    assert rep["metrics"]["work_per_s"] == 0
    assert len(run.check_verdicts([rep], None, "")) == 1
    assert not [p for p in multiprocessing.active_children()
                if p.name.startswith("repro-worker-")]
    assert _live_segments() <= before


def test_compare_applies_bounds():
    def d(*values):
        values = sorted(values)
        middle = values[len(values) // 2]
        return {"value": middle, "median": middle, "q1": values[0],
                "q3": values[-1], "values": list(values)}

    assert compare.judge(d(100, 101, 102), d(100, 101, 102), 0.1,
                         True) == "unchanged"
    assert compare.judge(d(100, 101, 102), d(80, 81, 82), 0.1,
                         True) == "worse"
    assert compare.judge(d(100, 101, 102), d(80, 81, 82), 0.1,
                         False) == "better"
    assert compare.judge(d(50, 100, 150), d(60, 95, 140), 0.1,
                         True) == "unresolved"
    assert compare.judge(d(50, 100, 150), d(200, 300, 400), 0.1,
                         True) == "better"
