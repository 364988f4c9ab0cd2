"""The end-to-end benchmark's four campaign workloads.

Each repetition of a workload runs in a fresh process
(``python -m benchmarks.e2e.workloads SPEC``, started by
:mod:`benchmarks.e2e.run`), so every repetition pays the cold set-up a
``repro`` user pays and reports its own CPU time and peak RSS. The
campaigns are built the way ``repro run`` / ``repro fuzz`` build them —
same classes, ``scan_mode="functional"``, netlist optimizer on,
``transport="auto"`` — but in-process, so their verdicts can be
compared.

* ``fuzz-serial`` — :class:`SnapshotFuzzer` on the packet-parser
  firmware + TIMER: the restore-heavy user of the snapshot layer.
* ``fuzz-par2`` — :class:`ParallelFuzzer` with 2 workers, journaled:
  the same per-input work plus IPC, merge and journal.
* ``dse-serial`` — :class:`HardSnapSession` run to exhaustion over ten
  catalog campaigns: solver-bound, the save-per-fork user of the
  snapshot layer, and the source of the reference verdicts.
* ``dse-par2`` — :class:`ParallelAnalysisEngine` with 2 workers over
  the same campaigns, each under a deadline.

A fuzz repetition is :data:`FUZZ_CAMPAIGNS` campaigns, each with its own
mutation seed drawn from ``--seed``: one campaign's corpus, and with it
the per-input cost, moves by about 25 % with its seed, so a single
campaign would measure the seed rather than the code.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.core import HardSnapSession, SnapshotFuzzer
from repro.firmware import (AES_BASE, TIMER_BASE, UART_BASE, WDT_BASE,
                            dispatcher, fig1_two_paths, fuzz_packet_parser,
                            init_heavy, vuln_buffer_overflow, vuln_irq_race,
                            vuln_peripheral_misuse, vuln_wdt_starvation)
from repro.isa import assemble
from repro.parallel import ParallelAnalysisEngine, ParallelFuzzer
from repro.peripherals import catalog
from repro.targets import FpgaTarget

from benchmarks.e2e.trace import summarize

WORKLOADS = ("fuzz-serial", "fuzz-par2", "dse-serial", "dse-par2")
#: Workers of the ``*-par2`` workloads.
WORKERS = 2

_TIMER = ((catalog.TIMER, TIMER_BASE),)

FUZZ_FIRMWARE = fuzz_packet_parser()
#: The E9 seeds: a copy command and a long timer wait, so each input
#: does real RTL work per execution.
FUZZ_SEEDS = (bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 0x1F]))
FUZZ_BATCH = 32
FUZZ_CAMPAIGNS = 8
FUZZ_EXECUTIONS = 2500

#: ``repro run``'s default instruction budget; every campaign below
#: exhausts its paths well inside it.
MAX_INSTRUCTIONS = 1_000_000
#: Per-campaign time-to-verdict limit on ``dse-par2``. A campaign past
#: it is killed and counts as a failed operation.
DSE_DEADLINE_S = 10.0


@dataclass(frozen=True)
class FuzzCampaign:
    name: str
    rng_seed: int
    executions: int


@dataclass(frozen=True)
class DseCampaign:
    name: str
    firmware: str
    peripherals: Tuple[Tuple[Any, int], ...]
    #: Completed paths the firmware has by construction (None: unchecked).
    paths: Optional[int]
    #: Whether the firmware plants a bug the analysis must report.
    finds_bug: bool


def fuzz_campaigns(seed: int, count: int = FUZZ_CAMPAIGNS,
                   executions: int = FUZZ_EXECUTIONS) -> List[FuzzCampaign]:
    """The fuzz campaigns of one repetition; the same seed gives the
    same campaigns."""
    return [FuzzCampaign(f"fuzz-{seed}-{j}", seed * 1000 + j, executions)
            for j in range(count)]


DSE_CAMPAIGNS = [
    DseCampaign("dispatcher-6", dispatcher(6, 8), _TIMER, 6, False),
    DseCampaign("dispatcher-16", dispatcher(16, 40), _TIMER, 16, False),
    DseCampaign("dispatcher-32", dispatcher(32, 40), _TIMER, 32, False),
    DseCampaign("dispatcher-64", dispatcher(64, 40), _TIMER, 64, False),
    DseCampaign("init_heavy", init_heavy(200, 16),
                ((catalog.UART, UART_BASE), (catalog.TIMER, TIMER_BASE)),
                16, False),
    DseCampaign("vuln_irq_race", vuln_irq_race(), _TIMER, None, True),
    DseCampaign("vuln_buffer_overflow", vuln_buffer_overflow(),
                ((catalog.UART, UART_BASE),), None, True),
    DseCampaign("vuln_peripheral_misuse", vuln_peripheral_misuse(),
                ((catalog.AES128, AES_BASE),), None, True),
    DseCampaign("vuln_wdt_starvation", vuln_wdt_starvation(),
                ((catalog.WDT, WDT_BASE),), None, True),
    DseCampaign("fig1_two_paths", fig1_two_paths(), _TIMER, 2, False),
]

#: ``dispatcher(6, 8)`` stalls in the solver with 2 workers (about
#: 120 s against 0.35 s serially, on every run) and would fail every
#: ``dse-par2`` repetition, so that workload leaves it out.
DSE_PAR2_CAMPAIGNS = [c for c in DSE_CAMPAIGNS if c.name != "dispatcher-6"]


def default_campaigns(workload: str, seed: int) -> list:
    if workload.startswith("fuzz"):
        return fuzz_campaigns(seed)
    return DSE_PAR2_CAMPAIGNS if workload == "dse-par2" else DSE_CAMPAIGNS


class CampaignDeadline(Exception):
    """A campaign ran past its time-to-verdict limit."""


@contextmanager
def deadline(seconds: float):
    """Raise :class:`CampaignDeadline` in the main thread after
    *seconds*; the campaign's ``with`` block then closes its pool."""
    def expire(signum, frame):
        raise CampaignDeadline(f"no verdict within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- verdict checks ------------------------------------------------------------

def check_fuzz(report, campaign: FuzzCampaign) -> Optional[str]:
    """The planted crash is a copy command (0x01) whose length byte is
    >= 0x80; every reported crash must be one, and one must be found."""
    if report.executions != campaign.executions:
        return (f"ran {report.executions} of {campaign.executions} "
                f"executions")
    if not report.crashes:
        return "planted crash not found"
    for crash in report.crashes:
        data = crash.input_bytes
        if len(data) < 2 or data[0] != 1 or data[1] < 0x80:
            return f"unexpected crash input {data.hex()}"
    return None


def check_dse(report, campaign: DseCampaign) -> Optional[str]:
    if report.stop_reason != "exhausted":
        return f"stopped early: {report.stop_reason}"
    if campaign.paths is not None and len(report.paths) != campaign.paths:
        return f"{len(report.paths)} paths, expected {campaign.paths}"
    if bool(report.bugs) != campaign.finds_bug:
        return f"{len(report.bugs)} bugs reported"
    return None


# -- one campaign per workload kind --------------------------------------------
#
# Each returns (set-up seconds, run seconds, report, journal bytes); the
# run phase executes inside *span* (the tracer's campaign span, or a
# no-op).

def _fuzz_serial(campaign: FuzzCampaign, span, tmp_dir: str):
    t0 = time.perf_counter()
    target = FpgaTarget(scan_mode="functional", opt=True)
    for spec, base in _TIMER:
        target.add_peripheral(spec, base)
    fuzzer = SnapshotFuzzer(assemble(FUZZ_FIRMWARE), target,
                            seeds=list(FUZZ_SEEDS), reset="snapshot",
                            seed=campaign.rng_seed)
    t1 = time.perf_counter()
    with span:
        report = fuzzer.run(executions=campaign.executions,
                            batch_size=FUZZ_BATCH)
    return t1 - t0, time.perf_counter() - t1, report, 0


def _fuzz_par2(campaign: FuzzCampaign, span, tmp_dir: str):
    t0 = time.perf_counter()
    journal_root = tempfile.mkdtemp(dir=tmp_dir)
    journal = os.path.join(journal_root, "journal")
    try:
        # warm() spawns the pool and builds every worker's target before
        # the timed run (the CLI pays that inside run()).
        with ParallelFuzzer(FUZZ_FIRMWARE, _TIMER,
                            seeds=list(FUZZ_SEEDS), workers=WORKERS,
                            transport="auto", batch_size=FUZZ_BATCH,
                            journal=journal, seed=campaign.rng_seed,
                            opt=True) as fuzzer:
            fuzzer.warm()
            t1 = time.perf_counter()
            with span:
                report = fuzzer.run(executions=campaign.executions)
            t2 = time.perf_counter()
        journal_bytes = sum(
            os.path.getsize(os.path.join(where, name))
            for where, _dirs, names in os.walk(journal) for name in names)
    finally:
        shutil.rmtree(journal_root, ignore_errors=True)
    return t1 - t0, t2 - t1, report, journal_bytes


def _dse_serial(campaign: DseCampaign, span, tmp_dir: str):
    t0 = time.perf_counter()
    session = HardSnapSession(campaign.firmware, campaign.peripherals,
                              scan_mode="functional", opt=True)
    t1 = time.perf_counter()
    with span:
        report = session.run(max_instructions=MAX_INSTRUCTIONS)
    return t1 - t0, time.perf_counter() - t1, report, 0


def _dse_par2(campaign: DseCampaign, span, tmp_dir: str,
              deadline_s: float = DSE_DEADLINE_S):
    t0 = time.perf_counter()
    with ParallelAnalysisEngine(campaign.firmware, campaign.peripherals,
                                workers=WORKERS, transport="auto",
                                scan_mode="functional", opt=True) as engine:
        engine.warm()
        t1 = time.perf_counter()
        try:
            with span, deadline(deadline_s):
                report = engine.run(max_instructions=MAX_INSTRUCTIONS)
        except CampaignDeadline:
            report = None
        t2 = time.perf_counter()
    return t1 - t0, t2 - t1, report, 0


RUNNERS = {"fuzz-serial": _fuzz_serial, "fuzz-par2": _fuzz_par2,
           "dse-serial": _dse_serial, "dse-par2": _dse_par2}


# -- one repetition ------------------------------------------------------------

def _usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS MiB) of this process and every child it
    has reaped. Read after a campaign's pool closed: workers are only
    reaped then, and their CPU would otherwise be dropped."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024


def run_rep(workload: str, seed: int, *, tmp_dir: str,
            campaigns: Optional[list] = None, tracer=None,
            import_s: float = 0.0,
            deadline_s: float = DSE_DEADLINE_S) -> Dict[str, Any]:
    """Run one repetition of *workload* and check each verdict.

    Returns the repetition's end-to-end metrics, one record per
    campaign (verdict string, error or None, work done, and its set-up,
    run and CPU seconds) and, when *tracer* is given, its per-layer
    summary. *tmp_dir* receives the ``fuzz-par2`` journals.
    """
    runner = RUNNERS[workload]
    if workload == "dse-par2":
        runner = partial(runner, deadline_s=deadline_s)
    if campaigns is None:
        campaigns = default_campaigns(workload, seed)
    fuzz = workload.startswith("fuzz")
    records = []
    modelled = journal_bytes = 0.0
    if tracer is not None:
        tracer.clear_worker_files()
    for campaign in campaigns:
        span = nullcontext()
        if tracer is not None:
            tracer.campaign = campaign.name
            span = tracer.campaign_span(campaign.name)
        cpu0, _ = _usage()
        setup_s, run_s, report, jbytes = runner(campaign, span, tmp_dir)
        cpu_s = _usage()[0] - cpu0
        journal_bytes += jbytes
        if report is None:
            error = f"no verdict within {deadline_s:g} s"
            verdict, work = None, 0
        else:
            check = check_fuzz if fuzz else check_dse
            error = check(report, campaign)
            verdict = report.verdict_summary()
            work = report.executions if fuzz else report.instructions
            modelled += report.modelled_time_s
        records.append({"name": campaign.name, "setup_s": setup_s,
                        "run_s": run_s, "cpu_s": cpu_s,
                        "work": 0 if error else work,
                        "verdict": verdict, "error": error})
    wall = sum(r["run_s"] for r in records)
    out = {
        "workload": workload,
        "seed": seed,
        "metrics": {
            "setup_s": import_s + sum(r["setup_s"] for r in records),
            "work_per_s": sum(r["work"] for r in records) / wall,
            "verdict_max_s": max(r["run_s"] for r in records),
            "cpu_s": sum(r["cpu_s"] for r in records),
            "peak_rss_mb": _usage()[1],
        },
        "modelled_s": modelled,
        "wall_s": wall,
        "campaigns": records,
        "trace": None,
    }
    if tracer is not None:
        dumps = [tracer.dump()] + tracer.worker_dumps()
        out["trace"] = summarize(
            dumps, wall, WORKERS if workload.endswith("par2") else 0,
            {"targets.modelled_s": modelled,
             "core.journal.bytes": journal_bytes})
    return out


def main(argv: List[str]) -> int:
    """Child-process entry point: ``SPEC`` is a JSON object with
    ``workload``, ``seed``, ``traced``, ``launched`` (the harness's
    ``time.monotonic()`` just before it started this process),
    ``trace_dir`` and ``tmp_dir``. Prints the repetition's result as
    one JSON line."""
    spec = json.loads(argv[0])
    # Interpreter start and imports are part of a cold set-up.
    import_s = time.monotonic() - spec["launched"]
    tracer = None
    if spec["traced"]:
        from benchmarks.e2e.trace import Tracer
        tracer = Tracer(spec["workload"], spec["trace_dir"]).install()
    result = run_rep(spec["workload"], spec["seed"], tracer=tracer,
                     tmp_dir=spec["tmp_dir"], import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
