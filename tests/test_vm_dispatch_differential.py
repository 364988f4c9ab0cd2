"""Differential equivalence gate for the VM's predecoded dispatch.

The predecoded/handler-table executor is only allowed into the engine
because this suite proves it semantics-preserving against the original
stepper, :class:`tests.vm_oracle.LegacyExecutor` (mirroring
``tests/test_opt_differential.py`` for the netlist optimizer):

* full DSE sessions over the firmware corpus must produce byte-identical
  verdict summaries, coverage sets, bug lists, and final hardware state
  on the executor and on the oracle;
* the concrete ``Cpu`` predecoded fetch must agree with the byte-accurate
  slow fetch on randomized programs (registers, RAM, halt code);
* a self-modifying store must demote the fast path, not desync it.
"""

import pytest

from repro import HardSnapSession
from repro.firmware import (AES_BASE, TIMER_BASE, UART_BASE, dispatcher,
                            fig1_two_paths, vuln_buffer_overflow,
                            vuln_irq_race, vuln_peripheral_misuse)
from repro.isa import Cpu, assemble
from repro.peripherals import catalog
from repro.vm import SymbolicExecutor
from tests.test_executor_differential import EXECUTORS, _random_program
from tests.vm_oracle import LegacyExecutor

TIMER = [(catalog.TIMER, TIMER_BASE)]
UART = [(catalog.UART, UART_BASE)]
AES = [(catalog.AES128, AES_BASE)]

CORPUS = [
    ("fig1", fig1_two_paths(), TIMER),
    ("dispatcher", dispatcher(4), TIMER),
    ("buffer-overflow", vuln_buffer_overflow(), UART),
    ("peripheral-misuse", vuln_peripheral_misuse(), AES),
    ("irq-race", vuln_irq_race(), TIMER),
]


def _run_session(source, peripherals, legacy=False):
    session = HardSnapSession(source, peripherals, scan_mode="functional")
    if legacy:
        # LegacyExecutor adds no state of its own, so retyping the
        # session's executor keeps every reference to it.
        session.executor.__class__ = LegacyExecutor
    report = session.run(max_instructions=500_000)
    return session, report


def _hardware_states(session):
    return session.target.save_snapshot().states


@pytest.mark.parametrize("name,source,peripherals", CORPUS,
                         ids=[c[0] for c in CORPUS])
def test_fast_vs_legacy_full_session(name, source, peripherals):
    fast_s, fast_r = _run_session(source, peripherals)
    legacy_s, legacy_r = _run_session(source, peripherals, legacy=True)
    assert fast_r.stop_reason == "exhausted"
    assert fast_r.verdict_summary() == legacy_r.verdict_summary()
    assert fast_s.executor.coverage == legacy_s.executor.coverage
    assert ([(b.kind, b.pc) for b in fast_r.bugs]
            == [(b.kind, b.pc) for b in legacy_r.bugs])
    # Identical schedule + identical semantics ⇒ the hardware must end
    # in the same architectural state, byte for byte.
    assert _hardware_states(fast_s) == _hardware_states(legacy_s)


@pytest.mark.parametrize("seed", range(12))
def test_cpu_predecoded_vs_slow_fetch(seed):
    """The concrete core's predecoded fetch vs forced byte-accurate
    fetch: identical architectural outcome on randomized programs."""
    program = assemble(_random_program(seed))
    fast = Cpu(program)
    slow = Cpu(program)
    slow._code_clean = False  # demote every fetch to the slow tier

    fast_exit = slow_exit = None
    while fast_exit is None and fast.steps < 50_000:
        fast_exit = fast.step()
    while slow_exit is None and slow.steps < 50_000:
        slow_exit = slow.step()

    assert fast_exit is not None and slow_exit is not None
    assert fast_exit.code == slow_exit.code
    assert fast.regs == slow.regs
    assert fast.pc == slow.pc
    assert fast.ram == slow.ram


@pytest.mark.parametrize("seed", range(8))
def test_executor_fast_vs_legacy_concrete(seed):
    """Executor and oracle head-to-head, over concrete randomized
    programs (no hardware attached)."""
    source = _random_program(seed + 100)
    runs = {}
    for mode, executor_class in EXECUTORS.items():
        ex = executor_class(assemble(source), bridge=None)
        state = ex.make_initial_state()
        while state.is_active and state.steps < 50_000:
            ex.step(state)
        runs[mode] = (state, ex)
    fast, legacy = runs["fast"][0], runs["legacy"][0]
    assert fast.status == legacy.status
    assert fast.halt_code == legacy.halt_code
    assert fast.regs == legacy.regs
    assert fast.steps == legacy.steps
    assert runs["fast"][1].coverage == runs["legacy"][1].coverage


def test_self_modifying_store_demotes_fast_path():
    """Writing into the code region must flip the clean flag so the
    stale predecode table is never consulted again."""
    source = """
start:
    movi r1, 0
    sw r0, 16(r1)      ; clobber the dead instruction below
    halt r0
    add r1, r1, r1     ; dead code at 0x10, inside the image extent
"""
    ex = SymbolicExecutor(assemble(source), bridge=None)
    state = ex.make_initial_state()
    assert state.memory.code_clean
    while state.is_active and state.steps < 100:
        ex.step(state)
    assert not state.memory.code_clean
    assert state.halt_code == 0
