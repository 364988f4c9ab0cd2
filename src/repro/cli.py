"""Command-line interface.

::

    python -m repro.cli instrument design.v --top periph [-o out.v]
    python -m repro.cli lint design.v --top periph [--format json]
    python -m repro.cli lint --catalog
    python -m repro.cli run firmware.s --peripheral timer@0x40000000 ...
    python -m repro.cli fuzz firmware.s --peripheral timer@0x40000000 -n 500
    python -m repro.cli resume campaign.journal/
    python -m repro.cli replay campaign.journal/
    python -m repro.cli disasm firmware.s
    python -m repro.cli corpus
    python -m repro.cli table1

``run``/``fuzz`` accept ``--journal DIR`` to event-source the campaign
(crash-safe: ``resume`` continues an interrupted journal to a verdict
byte-identical to an uninterrupted run; ``replay`` deterministically
re-executes a sealed one and checks the recorded verdict). All campaign
commands install graceful SIGINT/SIGTERM handling: the first signal
checkpoints and drains, the second forces pool teardown.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Tuple

from repro.analysis import format_table
from repro.core import (HardSnapSession, SessionConfig, SnapshotFuzzer,
                        make_target)
from repro.core.journal import Journal
from repro.core.persistence import atomic_write_json
from repro.core.shutdown import graceful_shutdown
from repro.errors import InstrumentationError
from repro.hdl import elaborate
from repro.instrument import (emit_verilog, insert_scan_chain, machine_report,
                              overhead_row)
from repro.isa import assemble
from repro.isa.disassembler import disassemble_program
from repro.peripherals import catalog


def _parse_peripherals(items: List[str]) -> List[Tuple]:
    out = []
    for item in items:
        name, _, base_text = item.partition("@")
        base = int(base_text, 0) if base_text else 0x4000_0000
        out.append((catalog.get(name), base))
    return out


def _resilience_overrides(args) -> dict:
    """SessionConfig overrides for --fault-plan / retry-policy flags."""
    from repro.resilience import FaultPlan, RetryPolicy
    out = {}
    if args.fault_plan:
        out["fault_plan"] = FaultPlan.parse(args.fault_plan)
    changes = {}
    if args.respawn_cap is not None:
        changes["respawn_cap"] = args.respawn_cap
    if args.link_retries is not None:
        changes["max_link_retries"] = args.link_retries
    if args.result_deadline is not None:
        changes["result_deadline_s"] = args.result_deadline
    if changes:
        out["retry_policy"] = RetryPolicy(**changes)
    return out


def _add_resilience_args(p) -> None:
    p.add_argument("--fault-plan", metavar="SPEC",
                   help="seeded fault-injection plan, e.g. "
                        "'seed=1,scan_corrupt=0.01,kill=1@0' "
                        "(see docs/RESILIENCE.md)")
    p.add_argument("--respawn-cap", type=int, default=None,
                   help="worker respawns before degrading to serial")
    p.add_argument("--link-retries", type=int, default=None,
                   help="scan/MMIO retransmits before giving up")
    p.add_argument("--result-deadline", type=float, default=None,
                   help="seconds to wait for a worker result before "
                        "re-issuing the job (fault plans only)")


def cmd_instrument(args) -> int:
    source = open(args.design).read()
    design = elaborate(source, args.top, source_file=args.design)
    try:
        result = insert_scan_chain(design, clock=args.clock,
                                   include=args.include or None,
                                   preflight=not args.no_lint)
    except InstrumentationError as exc:
        print(f"instrument: {exc}", file=sys.stderr)
        return 1
    text = emit_verilog(result.design)
    if args.output:
        open(args.output, "w").write(text)
        print(f"instrumented design written to {args.output}")
    else:
        print(text)
    row = overhead_row(design, clock=args.clock, result=result)
    print(f"// chain length: {row.chain_length} bits "
          f"({row.flip_flops} FFs + {row.memory_bits} memory bits), "
          f"{row.added_muxes} scan muxes added", file=sys.stderr)
    if args.report:
        payload = machine_report(design, result=result, clock=args.clock)
        atomic_write_json(args.report, payload, indent=2, sort_keys=True)
        print(f"machine-readable report written to {args.report}",
              file=sys.stderr)
    return 0


def _lint_config(args):
    from repro.lint import LintConfig

    overrides = {}
    for item in args.severity or []:
        rule_id, _, level = item.partition("=")
        if level not in ("error", "warning", "info"):
            raise SystemExit(f"bad --severity {item!r}: expected "
                             f"RULE=error|warning|info")
        overrides[rule_id] = level
    return LintConfig(
        disabled=frozenset(args.disable or []),
        severity_overrides=overrides,
        clock=args.clock,
        include=tuple(args.include) if args.include else None,
        memory_limit_bits=args.memory_limit_bits,
        readback=not args.no_readback)


def cmd_lint(args) -> int:
    from repro.lint import lint_catalog, lint_source, render_json

    config = _lint_config(args)
    if args.catalog:
        reports = lint_catalog(config=config)
    else:
        if not args.design or not args.top:
            raise SystemExit("lint: provide DESIGN and --top, or --catalog")
        source = open(args.design).read()
        reports = [lint_source(source, args.top, config,
                               source_file=args.design)]
    if args.format == "json":
        text = render_json(reports)
    else:
        text = "\n".join(r.render_text() for r in reports)
    if args.output:
        open(args.output, "w").write(text + "\n")
        print(f"lint report written to {args.output}")
    else:
        print(text)
    return 0 if all(r.ok for r in reports) else 1


def _print_opt_report(target) -> None:
    """One line per hosted peripheral the netlist optimizer touched."""
    lines = []
    for name, instance in getattr(target, "instances", {}).items():
        report = getattr(instance.sim, "opt_report", None)
        if report is not None and report.total:
            lines.append(f"  {name}: {report.summary()}")
    if lines:
        print("netlist optimization (disable with --no-opt):")
        for line in lines:
            print(line)


def _print_run_report(report, pool_stats=None, session=None) -> int:
    print(report.summary())
    for path in report.halted_paths:
        print(f"  path {path.state_id}: halt {path.halt_code} "
              f"steps {path.steps} test case {path.test_case}")
    for bug in report.bugs:
        print(f"  BUG {bug.summary()}")
    if pool_stats is not None:
        print(pool_stats.summary())
    elif session is not None:
        if report.snapshot_saves:
            print(session.engine.controller.stats_table())
        solver = session.solver
        print(solver.stats.summary(solver.sat_stats))
    if report.resilience.any:
        print(report.resilience.summary())
    if report.stop_reason == "interrupted":
        return 130  # the campaign wound down on a shutdown signal
    return 1 if report.bugs else 0


def _print_fuzz_report(report, pool_stats=None) -> int:
    print(report.summary())
    for crash in report.crashes[:10]:
        print(f"  crash @{crash.execution}: {crash.reason}")
        print(f"    input: {crash.input_bytes.hex()}")
    if pool_stats is not None:
        print(pool_stats.summary())
    if report.resilience.any:
        print(report.resilience.summary())
    if report.stop_reason == "interrupted":
        return 130  # the campaign wound down on a shutdown signal
    return 1 if report.crashes else 0


def cmd_run(args) -> int:
    firmware = open(args.firmware).read()
    resilience = _resilience_overrides(args)
    # A journaled campaign runs through the parallel coordinator even at
    # --workers 1 (the journal's checkpoint format is the coordinator's;
    # verdicts are worker-count-independent, so this changes nothing).
    if args.workers > 1 or args.journal:
        from repro.parallel import ParallelAnalysisEngine
        if args.strategy != "hardsnap":
            raise SystemExit("run: --workers/--journal require --strategy "
                             "hardsnap (snapshots make states portable)")
        with graceful_shutdown(), ParallelAnalysisEngine(
                firmware, _parse_peripherals(args.peripheral),
                workers=args.workers,
                delta_state=not args.no_delta_state,
                journal=args.journal,
                checkpoint_every=args.checkpoint_every,
                target=args.target, searcher=args.searcher,
                concretization=args.concretization, scan_mode="functional",
                opt=not args.no_opt,
                **resilience) as engine:
            report = engine.run(max_instructions=args.max_instructions,
                                stop_after_bugs=args.stop_after_bugs)
            pool_stats = engine.pool_stats
        return _print_run_report(report, pool_stats=pool_stats)
    with graceful_shutdown():
        session = HardSnapSession(
            firmware, _parse_peripherals(args.peripheral),
            target=args.target, strategy=args.strategy,
            searcher=args.searcher,
            concretization=args.concretization, scan_mode="functional",
            opt=not args.no_opt,
            **resilience)
        report = session.run(max_instructions=args.max_instructions,
                             stop_after_bugs=args.stop_after_bugs)
    _print_opt_report(session.target)
    return _print_run_report(report, session=session)


def cmd_fuzz(args) -> int:
    seeds = [bytes.fromhex(s) for s in args.seed] or None
    resilience = _resilience_overrides(args)
    if args.workers > 1 or args.journal:
        from repro.parallel import ParallelFuzzer
        if args.reset != "snapshot":
            raise SystemExit("fuzz: --workers/--journal require "
                             "--reset snapshot")
        firmware = open(args.firmware).read()
        with graceful_shutdown(), ParallelFuzzer(
                firmware, _parse_peripherals(args.peripheral),
                seeds=seeds, workers=args.workers,
                batch_size=args.batch_size,
                journal=args.journal,
                checkpoint_every=args.checkpoint_every,
                seed=args.rng_seed, opt=not args.no_opt,
                **resilience) as fuzzer:
            report = fuzzer.run(executions=args.executions)
            pool_stats = fuzzer.pool_stats
        return _print_fuzz_report(report, pool_stats=pool_stats)
    with graceful_shutdown():
        program = assemble(open(args.firmware).read())
        target = make_target(SessionConfig(opt=not args.no_opt))
        for spec, base in _parse_peripherals(args.peripheral):
            target.add_peripheral(spec, base)
        _print_opt_report(target)
        if resilience.get("fault_plan") is not None:
            target.attach_resilience(resilience["fault_plan"],
                                     resilience.get("retry_policy"))
        fuzzer = SnapshotFuzzer(program, target, seeds=seeds,
                                reset=args.reset, seed=args.rng_seed)
        report = fuzzer.run(executions=args.executions,
                            batch_size=args.batch_size)
    return _print_fuzz_report(report)


def cmd_resume(args) -> int:
    """Continue an interrupted journaled campaign to its verdict."""
    mode = Journal.campaign_mode(args.journal)
    with graceful_shutdown():
        if mode == "dse":
            from repro.parallel import ParallelAnalysisEngine
            with ParallelAnalysisEngine.resume(
                    args.journal, workers=args.workers) as engine:
                report = engine.resume_run()
                pool_stats = engine.pool_stats
            return _print_run_report(report, pool_stats=pool_stats)
        from repro.parallel import ParallelFuzzer
        with ParallelFuzzer.resume(args.journal,
                                   workers=args.workers) as fuzzer:
            report = fuzzer.resume_run()
            pool_stats = fuzzer.pool_stats
        return _print_fuzz_report(report, pool_stats=pool_stats)


def cmd_replay(args) -> int:
    """Deterministically re-execute a journaled campaign from its
    recorded recipe (journaling off) and check the verdict against the
    sealed one; fuzz crashes are additionally re-executed concretely on
    a fresh target (the :func:`repro.core.persistence.replay_crash`
    discipline applied to journal history)."""
    journal = Journal.open(args.journal, readonly=True)
    opened = journal.first("campaign-opened")
    if opened is None:
        raise SystemExit(f"replay: {args.journal} records no campaign")
    setup = journal.get_blob(opened["blob"])
    sealed = journal.last("campaign-sealed")
    with graceful_shutdown():
        if opened["mode"] == "dse":
            from repro.parallel import ParallelAnalysisEngine
            with ParallelAnalysisEngine(
                    recipe=setup["recipe"],
                    workers=args.workers or setup["workers"]) as engine:
                report = engine.run(**setup["run_kwargs"])
                pool_stats = engine.pool_stats
            status = _print_run_report(report, pool_stats=pool_stats)
        else:
            from repro.core.fuzzer import execute_input
            from repro.parallel import ParallelFuzzer
            with ParallelFuzzer(
                    recipe=setup["recipe"], seeds=setup["seeds"],
                    seed=setup["seed"], batch_size=setup["batch_size"],
                    workers=args.workers or setup["workers"]) as fuzzer:
                report = fuzzer.run(executions=setup["executions"])
                pool_stats = fuzzer.pool_stats
            status = _print_fuzz_report(report, pool_stats=pool_stats)
            recipe = setup["recipe"]
            for crash in report.crashes:
                target = recipe.target.build(recipe.config)
                _exit, _edges, reason, pc = execute_input(
                    recipe.program, target, crash.input_bytes,
                    max_steps=recipe.max_steps_per_exec)
                ok = reason is not None
                print(f"  replayed crash @{crash.execution}: "
                      f"{'reproduced' if ok else 'NOT reproduced'} "
                      f"({reason or 'no crash'} @0x{pc:x})")
                if not ok:
                    status = 1
    verdict = report.verdict_summary()
    if sealed is None:
        print("replay: journal is unsealed (campaign never completed); "
              "no recorded verdict to compare")
        return status
    if verdict == sealed["verdict"]:
        print("replay: verdict matches the sealed campaign verdict")
        return status
    print("replay: VERDICT MISMATCH against the sealed campaign:\n"
          f"  sealed:   {sealed['verdict']}\n"
          f"  replayed: {verdict}")
    return 1


def cmd_disasm(args) -> int:
    program = assemble(open(args.firmware).read())
    for line in disassemble_program(program.words):
        print(line)
    return 0


def cmd_corpus(args) -> int:
    rows = []
    for spec in catalog.EXTENDED_CORPUS:
        design = spec.elaborate()
        stats = design.stats()
        rows.append([spec.name, spec.bus, f"{spec.window_size:#x}",
                     stats["flip_flops"], stats["memory_bits"],
                     stats["state_bits"], "yes" if spec.has_irq else "no"])
    print(format_table(
        ["peripheral", "bus", "window", "flip-flops", "mem bits",
         "state bits", "irq"],
        rows, title="peripheral corpus"))
    return 0


def cmd_table1(args) -> int:
    from repro.analysis.table1 import render
    print(render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="HardSnap reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("instrument",
                       help="insert a scan chain into a Verilog design")
    p.add_argument("design", help="Verilog source file")
    p.add_argument("--top", required=True, help="top module name")
    p.add_argument("--clock", default="clk")
    p.add_argument("--include", action="append",
                   help="restrict to sub-component prefix (repeatable)")
    p.add_argument("-o", "--output")
    p.add_argument("--no-lint", action="store_true",
                   help="skip the pre-flight static analysis")
    p.add_argument("--report",
                   help="write a machine-readable JSON report here")
    p.set_defaults(func=cmd_instrument)

    p = sub.add_parser(
        "lint", help="statically analyze a design (RTL defects + "
                     "snapshot-consistency)")
    p.add_argument("design", nargs="?", help="Verilog source file")
    p.add_argument("--top", help="top module name")
    p.add_argument("--catalog", action="store_true",
                   help="lint every peripheral of the corpus instead")
    p.add_argument("--clock", default="clk")
    p.add_argument("--include", action="append",
                   help="scan-coverage sub-component prefix (repeatable)")
    p.add_argument("--memory-limit-bits", type=int, default=16384)
    p.add_argument("--no-readback", action="store_true",
                   help="target has no configuration readback: memories "
                        "over the limit become errors")
    p.add_argument("--disable", action="append", metavar="RULE",
                   help="disable a rule id (repeatable)")
    p.add_argument("--severity", action="append", metavar="RULE=LEVEL",
                   help="override a rule's severity (repeatable)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("-o", "--output", help="write the report to a file")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("run", help="symbolically co-test firmware")
    p.add_argument("firmware", help="HS32 assembly file")
    p.add_argument("--peripheral", action="append", default=[],
                   help="name@base, e.g. timer@0x40000000 (repeatable)")
    p.add_argument("--target", choices=["fpga", "simulator"],
                   default="fpga")
    p.add_argument("--strategy", default="hardsnap",
                   choices=["hardsnap", "naive-consistent",
                            "naive-inconsistent"])
    p.add_argument("--searcher", default="affinity")
    p.add_argument("--concretization", default="performance",
                   choices=["performance", "completeness"])
    p.add_argument("--max-instructions", type=int, default=1_000_000)
    p.add_argument("--stop-after-bugs", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="shard exploration across N worker processes "
                        "(hardsnap strategy only)")
    p.add_argument("--no-delta-state", action="store_true",
                   help="ship full state pickles instead of dirty-page "
                        "+ constraint-suffix deltas (measurement "
                        "baseline)")
    p.add_argument("--no-opt", action="store_true",
                   help="skip the netlist optimizer (repro.opt) for "
                        "hosted designs")
    p.add_argument("--journal", metavar="DIR",
                   help="event-source the campaign into DIR (crash-safe; "
                        "continue later with 'repro resume DIR')")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="journaled runs: envelopes merged between "
                        "periodic checkpoints")
    _add_resilience_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("fuzz", help="snapshot-based coverage-guided fuzzing")
    p.add_argument("firmware")
    p.add_argument("--peripheral", action="append", default=[])
    p.add_argument("-n", "--executions", type=int, default=500)
    p.add_argument("--reset", choices=["snapshot", "reboot"],
                   default="snapshot")
    p.add_argument("--seed", action="append", default=[],
                   help="hex seed input (repeatable)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="shard executions across N worker processes "
                        "(snapshot reset only)")
    p.add_argument("--no-opt", action="store_true",
                   help="skip the netlist optimizer (repro.opt) for "
                        "hosted designs")
    p.add_argument("--batch-size", type=int, default=32,
                   help="mutation scheduling granularity; a parallel run "
                        "reproduces a serial run with the same batch size")
    p.add_argument("--journal", metavar="DIR",
                   help="event-source the campaign into DIR (crash-safe; "
                        "continue later with 'repro resume DIR')")
    p.add_argument("--checkpoint-every", type=int, default=8,
                   help="journaled runs: batches merged between "
                        "periodic checkpoints")
    _add_resilience_args(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "resume", help="continue an interrupted journaled campaign")
    p.add_argument("journal", help="journal directory from --journal")
    p.add_argument("--workers", type=int, default=None,
                   help="override the recorded worker count (verdicts "
                        "are worker-count-independent)")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "replay", help="re-execute a journaled campaign deterministically "
                       "and check the sealed verdict")
    p.add_argument("journal", help="journal directory from --journal")
    p.add_argument("--workers", type=int, default=None,
                   help="override the recorded worker count")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("disasm", help="assemble + disassemble firmware")
    p.add_argument("firmware")
    p.set_defaults(func=cmd_disasm)

    p = sub.add_parser("corpus", help="list the peripheral corpus")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("table1", help="print the related-work comparison")
    p.set_defaults(func=cmd_table1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # Second shutdown signal: pools are already reaped by the
        # handler; exit with the conventional SIGINT status.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
