"""The serial engine and the lazy hardware clock against the stepwise
oracle of ``tests/engine_oracle.py``.

The engine runs a burst per scheduling pass under the affinity
searcher, reads the IRQ lines only when a state could take an
interrupt, and its targets simulate charged cycles only when something
observes the hardware. None of that may move a verdict, a counter, a
modelled second or a register: every campaign here runs on the shipped
code and on the oracle (one instruction per pass, an IRQ poll before
every instruction, a target that simulates each cycle as it is
charged), and everything observable must match exactly. The target
half drives seeded random operation sequences through a lazy and an
eager target side by side.
"""

from __future__ import annotations

import random

import pytest

from repro.core import HardSnapSession
from repro.firmware import (DMA_BASE, TIMER_BASE, UART_BASE, dispatcher,
                            vuln_irq_race)
from repro.peripherals import catalog, dma, timer, uart
from repro.targets import FpgaTarget, SimulatorTarget
from tests.engine_oracle import (EagerFpgaTarget, EagerSimulatorTarget,
                                 oracle_session)
from tests.test_persistence import _TIMER, E0_DSE

SEARCHERS = ("affinity", "dfs", "bfs", "round-robin", "random", "coverage")
STRATEGIES = ("hardsnap", "naive-consistent", "naive-inconsistent")
MATRIX_FIRMWARE = {"dispatcher-16": dispatcher(16, 40),
                   "vuln_irq_race": vuln_irq_race()}
#: Both programs exhaust in under 1 000 instructions on consistent
#: hardware; on shared hardware some paths spin until the budget stops
#: them, which also puts a budget stop inside a burst.
MATRIX_BUDGET = 20_000


def _observed(session, report) -> dict:
    """Everything a campaign shows, host time aside."""
    target = session.target
    target.settle()
    return {
        "verdict": report.verdict_summary(),
        "paths": [(p.lineage, p.status, p.halt_code, p.steps, p.depth,
                   p.test_case, p.trace_marks, p.error)
                  for p in report.paths],
        "bugs": [(b.kind, b.pc, b.steps, b.test_case, b.backtrace)
                 for b in report.bugs],
        "modelled_time_s": report.modelled_time_s,
        "counters": (report.max_live_states, report.snapshot_saves,
                     report.snapshot_restores, report.snapshot_logical_bits,
                     report.snapshot_stored_bits,
                     report.snapshot_dedup_hit_rate, report.mmio_accesses,
                     report.reboots, report.replayed_accesses),
        "cycles": target.cycles,
        "timer": target.timer.snapshot(),
        "hardware": {name: instance.sim.save_state()
                     for name, instance in target.instances.items()},
    }


def _both(firmware, peripherals, budget=1_000_000, **config):
    shipped = HardSnapSession(firmware, peripherals, **config)
    oracle = oracle_session(firmware, peripherals, **config)
    return [_observed(session, session.run(max_instructions=budget))
            for session in (shipped, oracle)]


@pytest.mark.parametrize("name", [name for name, *_ in E0_DSE])
def test_e0_dse_campaign_matches_oracle(name):
    _name, firmware, peripherals = next(c for c in E0_DSE if c[0] == name)
    shipped, oracle = _both(firmware, peripherals, scan_mode="functional",
                            opt=True)
    assert "stop=exhausted" in shipped["verdict"]
    assert shipped == oracle


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("searcher", SEARCHERS)
@pytest.mark.parametrize("program", sorted(MATRIX_FIRMWARE))
def test_searcher_strategy_matrix_matches_oracle(program, searcher,
                                                 strategy):
    shipped, oracle = _both(MATRIX_FIRMWARE[program], _TIMER,
                            MATRIX_BUDGET, scan_mode="functional", opt=True,
                            searcher=searcher, strategy=strategy)
    assert shipped == oracle


# ---------------------------------------------------------------------------
# The lazy clock against the eager one, operation by operation
# ---------------------------------------------------------------------------

#: The DMA copies one word of its scratchpad per cycle, so its memory
#: moves with the clock.
PERIPHERALS = ((catalog.TIMER, TIMER_BASE), (catalog.UART, UART_BASE),
               (catalog.DMA, DMA_BASE))
DMA_WORDS = {f"RAM{k}": dma.RAM_BASE + 4 * k for k in range(16)}
#: (base, register offsets, values worth writing there)
REGISTERS = [
    (TIMER_BASE, timer.REGISTERS,
     {"CTRL": [0, timer.CTRL_EN | timer.CTRL_IRQ_EN,
               timer.CTRL_EN | timer.CTRL_IRQ_EN | timer.CTRL_AUTO_RELOAD],
      "LOAD": [1, 3, 9, 40], "STATUS": [1], "PRESCALE": [0, 1, 2]}),
    (UART_BASE, uart.REGISTERS,
     {"TXDATA": [0x41, 0x5A], "CTRL": [0, 1, 3, 7], "BAUDDIV": [1, 2, 5]}),
    (DMA_BASE, {**dma.REGISTERS, **DMA_WORDS},
     {"SRC": [0, 2, 5], "DST": [8, 11], "LEN": [1, 4, 8],
      "CTRL": [dma.CTRL_START, dma.CTRL_START | dma.CTRL_IRQ_EN],
      "STATUS": [dma.STATUS_DONE],
      **{name: [0xA5A5_0000 + k, k] for k, name in
         enumerate(DMA_WORDS)}}),
]


def _random_ops(rng: random.Random, count: int, peek_nets) -> list:
    ops = []
    for _ in range(count):
        roll = rng.random()
        base, offsets, values = rng.choice(REGISTERS)
        if roll < 0.3:
            ops.append(("step", rng.choice([1, 1, 1, 2, 3, 7, 19])))
        elif roll < 0.45:
            ops.append(("read", base + rng.choice(list(offsets.values()))))
        elif roll < 0.65:
            register = rng.choice(sorted(values))
            ops.append(("write", base + offsets[register],
                        rng.choice(values[register])))
        elif roll < 0.75:
            ops.append(("irq_lines",))
        elif roll < 0.79:
            ops.append(("peek",) + rng.choice(peek_nets))
        elif roll < 0.82:
            ops.append(("memory", rng.randrange(16)))
        elif roll < 0.9:
            ops.append(("save",))
        elif roll < 0.97:
            ops.append(("restore", rng.randrange(1 << 16)))
        else:
            ops.append(("reset",))
    return ops


def _apply(target, op, saved: list):
    kind = op[0]
    if kind == "step":
        return target.step(op[1])
    if kind == "read":
        return target.read(op[1])
    if kind == "write":
        return target.write(op[1], op[2])
    if kind == "irq_lines":
        return target.irq_lines()
    if kind == "peek":
        return target.peek(op[1], op[2])
    if kind == "memory":
        # What each target offers to read memory words outside MMIO.
        if isinstance(target, SimulatorTarget):
            return target.peek_memory("dma", "ram", op[1])
        return target.readback_snapshot().states
    if kind == "save":
        snapshot = target.save_snapshot()
        saved.append(snapshot)
        return snapshot.states
    if kind == "restore":
        if saved:
            target.restore_snapshot(saved[op[1] % len(saved)])
        return None
    return target.reset()


#: target kind -> (lazy class, eager class)
TARGETS = {"fpga": (FpgaTarget, EagerFpgaTarget),
           "simulator": (SimulatorTarget, EagerSimulatorTarget)}


def _build(cls, **kwargs):
    target = cls(**kwargs)
    for spec, base in PERIPHERALS:
        target.add_peripheral(spec, base)
    target.reset()
    return target


def _hardware(target) -> dict:
    return {name: instance.sim.save_state()
            for name, instance in target.instances.items()}


def _run_pair(lazy, eager, ops, traces=None):
    saved_lazy: list = []
    saved_eager: list = []
    for i, op in enumerate(ops):
        got = _apply(lazy, op, saved_lazy)
        want = _apply(eager, op, saved_eager)
        assert got == want, (i, op)
        assert lazy.cycles == eager.cycles, (i, op)
        assert lazy.timer.snapshot() == eager.timer.snapshot(), (i, op)
        if traces is not None:
            assert traces[0].stream.getvalue() == \
                traces[1].stream.getvalue(), (i, op)
    lazy.settle()
    assert _hardware(lazy) == _hardware(eager)
    return saved_lazy


FPGA_PINS = [("timer", "irq"), ("uart", "irq"), ("dma", "irq"),
             ("timer", "rst"), ("uart", "s_axi_arready")]


@pytest.mark.parametrize("scan_mode", ["functional", "shift"])
@pytest.mark.parametrize("seed", range(3))
def test_fpga_lazy_clock_matches_eager(scan_mode, seed):
    rng = random.Random(f"lazy-clock-fpga-{scan_mode}-{seed}")
    lazy = _build(FpgaTarget, scan_mode=scan_mode)
    eager = _build(EagerFpgaTarget, scan_mode=scan_mode)
    saved = _run_pair(lazy, eager, _random_ops(rng, 400, FPGA_PINS))
    assert saved, "the sequence never saved a snapshot"


SIM_NETS = FPGA_PINS + [("timer", "value"), ("timer", "ctrl"),
                        ("uart", "bauddiv")]


@pytest.mark.parametrize("seed", range(3))
def test_simulator_lazy_clock_matches_eager(seed):
    rng = random.Random(f"lazy-clock-sim-{seed}")
    lazy = _build(SimulatorTarget)
    eager = _build(EagerSimulatorTarget)
    _run_pair(lazy, eager, _random_ops(rng, 300, SIM_NETS))


@pytest.mark.parametrize("seed", range(2))
def test_simulator_vcd_trace_matches_eager_byte_for_byte(seed):
    """A VCD trace samples every cycle, so a traced target's waveform
    must equal the eager one after every operation, not only once
    something observes the hardware."""
    rng = random.Random(f"lazy-clock-vcd-{seed}")
    lazy = _build(SimulatorTarget)
    eager = _build(EagerSimulatorTarget)
    lazy.step(5)
    eager.step(5)
    traces = [target.attach_vcd("timer") for target in (lazy, eager)]
    _run_pair(lazy, eager, _random_ops(rng, 200, SIM_NETS), traces)


def test_lazy_target_defers_the_simulation():
    """The cycles are charged at once but simulated on observation."""
    target = _build(FpgaTarget, scan_mode="functional")
    target.write(TIMER_BASE + timer.REGISTERS["LOAD"], 5)
    target.write(TIMER_BASE + timer.REGISTERS["CTRL"],
                 timer.CTRL_EN | timer.CTRL_IRQ_EN)
    sim = target.instances["timer"].sim
    cycle, cycles = sim.cycle, target.cycles
    target.step(8)
    assert target.cycles == cycles + 8
    assert sim.cycle == cycle
    assert target.irq_lines()["timer"] is True
    assert sim.cycle == cycle + 8


@pytest.mark.parametrize("kind", ["fpga", "simulator"])
def test_peripheral_added_after_steps_owes_none_of_them(kind):
    targets = []
    for cls in TARGETS[kind]:
        target = cls()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        target.step(10)
        target.add_peripheral(catalog.UART, UART_BASE)
        target.step(3)
        targets.append(target)
    targets[0].settle()
    assert _hardware(targets[0]) == _hardware(targets[1])


#: Every way to observe a target, each applied right after a step that
#: nothing has observed yet: (FPGA form, simulator form).
OBSERVATIONS = {
    "read": (lambda t: t.read(TIMER_BASE + timer.REGISTERS["VALUE"]),) * 2,
    "irq_lines": (lambda t: t.irq_lines(),) * 2,
    "peek": (lambda t: t.peek("timer", "irq"),
             lambda t: t.peek("timer", "value")),
    "memory": (lambda t: t.readback_snapshot().states["dma"],
               lambda t: t.peek_memory("dma", "ram", 9)),
    "capture_states": (lambda t: t.capture_states()[0],) * 2,
    "save_snapshot": (lambda t: t.save_snapshot().states,) * 2,
}


@pytest.mark.parametrize("observation", sorted(OBSERVATIONS))
@pytest.mark.parametrize("kind", ["fpga", "simulator"])
def test_every_observation_sees_the_stepped_hardware(kind, observation):
    observe = OBSERVATIONS[observation][kind == "simulator"]
    seen = []
    for cls in TARGETS[kind]:
        target = _build(cls)
        for k in range(4):
            target.write(DMA_BASE + dma.RAM_BASE + 4 * k, 0x1000 + k)
        for register, value in (("SRC", 0), ("DST", 8), ("LEN", 4)):
            target.write(DMA_BASE + dma.REGISTERS[register], value)
        # The timer expires and the DMA copies inside the step below.
        target.write(TIMER_BASE + timer.REGISTERS["LOAD"], 7)
        target.write(TIMER_BASE + timer.REGISTERS["CTRL"],
                     timer.CTRL_EN | timer.CTRL_IRQ_EN)
        target.write(DMA_BASE + dma.REGISTERS["CTRL"], dma.CTRL_START)
        before = observe(target)
        target.step(8)
        seen.append(observe(target))
    assert seen[0] == seen[1]
    assert seen[1] != before, "the step changed nothing this observes"
