"""E5 — multi-target orchestration: FPGA speed, simulator visibility.

Paper §III-B: "the target orchestration enables to start the analysis on
the FPGA target and once a particular point is reached the FPGA state is
transferred to the Verilator target" — fast-forward through a long
warm-up at FPGA speed, then move the live hardware state onto the
simulator to capture a full VCD trace of the window of interest.

Compared against running the whole workload on the simulator target.
Expected shapes:
* the hybrid run is far cheaper in modelled time than simulator-only,
* the traced window is identical in both runs (same register values),
* the FPGA leg alone produces no trace (no visibility) — the transfer
  is what buys the waveform.
"""

from benchmarks.conftest import PERIPH_BASE, emit
from repro.analysis import format_si_time, format_table
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget, SimulatorTarget, TargetOrchestrator

WARMUP_CYCLES = 200_000
WINDOW_CYCLES = 64


def _build_pair():
    fpga = FpgaTarget(scan_mode="functional")
    sim = SimulatorTarget()
    for t in (fpga, sim):
        t.add_peripheral(catalog.TIMER, PERIPH_BASE)
        t.reset()
    orch = TargetOrchestrator()
    orch.register(fpga, active=True)
    orch.register(sim)
    return orch, fpga, sim


def _warmup(target):
    target.write(PERIPH_BASE + timer.REGISTERS["PRESCALE"], 0xFF)
    target.write(PERIPH_BASE + timer.REGISTERS["LOAD"], 700)
    target.write(PERIPH_BASE + timer.REGISTERS["CTRL"],
                 timer.CTRL_EN | timer.CTRL_AUTO_RELOAD)
    target.step(WARMUP_CYCLES)


def test_multitarget_fast_forward(benchmark):
    def run():
        # Hybrid: warm up on the FPGA, transfer, trace on the simulator.
        orch, fpga, sim = _build_pair()
        _warmup(fpga)
        orch.transfer("fpga", "simulator")
        writer = sim.attach_vcd("timer")
        sim.step(WINDOW_CYCLES)
        hybrid_cost = orch.modelled_time_s()
        hybrid_value = sim.peek("timer", "value")
        changes = writer.changes

        # Simulator-only reference.
        ref = SimulatorTarget()
        ref.add_peripheral(catalog.TIMER, PERIPH_BASE)
        ref.reset()
        _warmup(ref)
        ref_writer = ref.attach_vcd("timer")
        ref.step(WINDOW_CYCLES)
        return {
            "hybrid_cost": hybrid_cost,
            "sim_cost": ref.timer.total_s,
            "hybrid_value": hybrid_value,
            "ref_value": ref.peek("timer", "value"),
            "trace_changes": changes,
            "transfer": orch.transfers[-1],
        }

    r = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        ["hybrid (fpga warm-up + transfer + sim trace)",
         format_si_time(r["hybrid_cost"]), r["trace_changes"]],
        ["simulator only", format_si_time(r["sim_cost"]), "same window"],
        ["transfer cost", format_si_time(r["transfer"].modelled_cost_s),
         f"{r['transfer'].bits} bits"],
    ]
    emit("multitarget", format_table(
        ["configuration", "modelled time", "trace"],
        rows, title="E5: multi-target fast-forward + traced window"))

    # The transferred state is exactly the state the slow run reaches.
    assert r["hybrid_value"] == r["ref_value"]
    # Fast-forwarding through the FPGA wins clearly. (The hybrid's cost
    # floor is the CRIU restore on the simulator side, ~20 ms, so the
    # ratio grows with warm-up length; at 200k cycles it is ~8x.)
    assert r["sim_cost"] / r["hybrid_cost"] > 5
    # The transfer itself is negligible next to the saved simulation.
    assert r["transfer"].modelled_cost_s < r["sim_cost"] / 100
    # The window produced a real trace.
    assert r["trace_changes"] > 10


def test_fpga_alone_has_no_trace(benchmark):
    def run():
        fpga = FpgaTarget(scan_mode="functional")
        fpga.add_peripheral(catalog.TIMER, PERIPH_BASE)
        fpga.reset()
        try:
            fpga.attach_vcd("timer")  # type: ignore[attr-defined]
            return "traced"
        except AttributeError:
            return "no-visibility"

    assert benchmark.pedantic(run, rounds=1, iterations=1) == "no-visibility"
