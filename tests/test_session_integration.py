"""End-to-end integration tests: the full HardSnap stack on the firmware
corpus (the paper's experiment set in miniature)."""

import pytest

from repro import HardSnapSession
from repro.core.testbench import HwTestbench, generate_test_vectors
from repro.errors import TargetError
from repro.firmware import (AES_BASE, TIMER_BASE, UART_BASE, dispatcher,
                            init_heavy, uart_echo, vuln_buffer_overflow,
                            vuln_irq_race, vuln_peripheral_misuse)
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget, SimulatorTarget

TIMER = [(catalog.TIMER, TIMER_BASE)]


class TestVulnerabilitySuite:
    """Experiment E3: every planted bug is found with full HW/SW context."""

    def test_buffer_overflow_found_with_witness(self):
        session = HardSnapSession(vuln_buffer_overflow(),
                                  [(catalog.UART, UART_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000)
        bugs = [b for b in report.bugs if b.kind == "assertion-failure"]
        assert bugs
        # Every witness length overflows the 16-byte buffer.
        for bug in bugs:
            length = list(bug.test_case.values())[0] & 0x3F
            assert length > 16
        # Lengths <= 16 pass.
        ok_lengths = {list(p.test_case.values())[0] & 0x3F
                      for p in report.halted_paths if p.test_case}
        assert ok_lengths and all(l <= 16 for l in ok_lengths)

    def test_peripheral_misuse_found(self):
        session = HardSnapSession(vuln_peripheral_misuse(),
                                  [(catalog.AES128, AES_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000)
        bugs = [b for b in report.bugs if b.kind == "assertion-failure"]
        assert bugs
        # The bug fires only for too-short waits; long waits pass.
        assert report.halted_paths

    def test_irq_race_window_isolated(self):
        session = HardSnapSession(vuln_irq_race(), TIMER,
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000)
        assert any(b.kind == "assertion-failure" for b in report.bugs)
        assert report.halted_paths  # non-racy interleavings pass

    def test_bug_carries_hardware_snapshot(self):
        """The paper's root-cause story: a bug report includes the
        complete peripheral state at detection."""
        session = HardSnapSession(vuln_peripheral_misuse(),
                                  [(catalog.AES128, AES_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000, stop_after_bugs=1)
        bug = report.bugs[0]
        assert bug.hw_snapshot is not None
        hw = bug.hw_snapshot.states["aes128"]["nets"]
        assert "busy" in hw  # peripheral internals visible in the report
        assert bug.backtrace


class TestWorkloads:
    @pytest.mark.parametrize("n", [2, 8, 16])
    def test_dispatcher_scales(self, n):
        session = HardSnapSession(dispatcher(n, work_cycles=6), TIMER,
                                  scan_mode="functional")
        report = session.run(max_instructions=400_000)
        assert len(report.halt_codes()) == n

    def test_init_heavy_assembles_and_runs(self):
        session = HardSnapSession(init_heavy(init_writes=30, n_paths=3),
                                  [(catalog.UART, UART_BASE),
                                   (catalog.TIMER, TIMER_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=400_000)
        assert sorted(report.halt_codes()) == [0x200, 0x201, 0x202]

    def test_uart_echo_loopback_via_vm(self):
        """Firmware drives a real serial loopback through the VM: the
        UART instance's tx pin is wired to its rx input by the target's
        environment (poked each engine poll via a tiny adapter)."""
        target = FpgaTarget(scan_mode="functional")
        instance = target.add_peripheral(catalog.UART, UART_BASE)
        target.reset()
        # Loop tx back into rx at simulation level so every advance —
        # including cycles consumed inside bus transactions — sees it.
        sim = instance.sim
        original_step = sim.step
        def looped_step(cycles=1):
            for _ in range(cycles):
                sim.poke("rx", sim.peek("tx"))
                original_step(1)
        sim.step = looped_step
        session = HardSnapSession(uart_echo(count=2),
                                  [], target=target)
        report = session.run(max_instructions=400_000)
        assert not report.bugs
        assert [p.halt_code for p in report.halted_paths] == [2]


class TestMultiPeripheral:
    def test_two_peripherals_one_firmware(self):
        src = f"""
        .equ TIMER, 0x{TIMER_BASE:x}
        .equ UART, 0x{UART_BASE:x}
        start:
            movi r1, TIMER
            movi r2, UART
            movi r3, 4
            sw r3, 16(r2)       ; uart bauddiv
            movi r3, 10
            sw r3, 4(r1)        ; timer load
            movi r3, 1
            sw r3, 0(r1)        ; timer en
        poll:
            lw r4, 12(r1)
            beq r4, r0, poll
            movi r5, 0x55
            sw r5, 0(r2)        ; uart tx
            lw r6, 8(r2)        ; uart status
            andi r6, r6, 1      ; tx busy
            assert r6
            halt r0
        """
        session = HardSnapSession(
            src, [(catalog.TIMER, TIMER_BASE), (catalog.UART, UART_BASE)],
            scan_mode="functional")
        report = session.run(max_instructions=100_000)
        assert not report.bugs
        assert len(report.halted_paths) == 1


class TestTestbench:
    def test_concrete_bench_drives_peripheral(self):
        target = SimulatorTarget()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        bench = HwTestbench(target, "timer")
        bench.write("LOAD", 20)
        bench.write("CTRL", timer.CTRL_EN | timer.CTRL_IRQ_EN)
        assert bench.wait_for_irq(timeout_cycles=100)
        assert bench.read("VALUE") == 0
        bench.write("STATUS", 1)
        assert not target.instances["timer"].irq()

    def test_bench_property_checking(self):
        target = SimulatorTarget()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        bench = HwTestbench(target, "timer")
        bench.add_property(
            "value never exceeds load",
            lambda tb: tb.target.peek("timer", "value")
            <= tb.target.peek("timer", "load"))
        bench.write("LOAD", 50)
        bench.write("CTRL", timer.CTRL_EN)
        bench.step(60)
        assert bench.ok, bench.failures

    def test_bench_property_failure_recorded(self):
        target = SimulatorTarget()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        bench = HwTestbench(target, "timer")
        bench.add_property("always false", lambda tb: False)
        bench.step(1)
        assert not bench.ok
        assert bench.failures[0].name == "always false"

    def test_unknown_register_rejected(self):
        target = SimulatorTarget()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        bench = HwTestbench(target, "timer")
        with pytest.raises(TargetError):
            bench.read("BOGUS")

    def test_wait_until_polls_register(self):
        target = SimulatorTarget()
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        bench = HwTestbench(target, "timer")
        bench.write("LOAD", 5)
        bench.write("CTRL", timer.CTRL_EN)
        assert bench.wait_until("STATUS", 1)

    def test_symbolic_test_vector_generation(self):
        """§III: software-generated test vectors for hardware: each
        completed path yields a concrete stimulus."""
        vectors, report = generate_test_vectors(
            dispatcher(4, work_cycles=6), TIMER,
            scan_mode="functional")
        assert len(vectors) == 4
        commands = sorted(list(v.assignments.values())[0] % 4
                          for v in vectors)
        assert commands == [0, 1, 2, 3]


class TestAnalysisHelpers:
    def test_coverage_report(self):
        from repro.analysis import coverage_report
        session = HardSnapSession(dispatcher(2, work_cycles=6), TIMER,
                                  scan_mode="functional")
        session.run(max_instructions=100_000)
        report = coverage_report(session.program, session.executor.coverage)
        assert report.covered_count > 10
        assert 0 < report.percent <= 100

    def test_table_rendering(self):
        from repro.analysis import format_table
        text = format_table(["name", "value"], [["a", 1], ["bb", 2.5]],
                            title="T")
        assert "name" in text and "bb" in text

    def test_table1_regeneration(self):
        from repro.analysis.table1 import render, APPROACHES
        text = render()
        assert "HardSnap" in text and "Inception" in text
        hardsnap = [a for a in APPROACHES if a.name == "HardSnap"][0]
        assert hardsnap.symbolic == "yes"
        assert hardsnap.consistency == "yes"

    def test_table1_claims_importable(self):
        """Every capability the HardSnap column claims maps to a real,
        importable artefact in this library."""
        import importlib
        from repro.analysis.table1 import hardsnap_capability_predicates
        for claim, path in hardsnap_capability_predicates().items():
            parts = path.split(".")
            for split in range(len(parts), 0, -1):
                try:
                    mod = importlib.import_module(".".join(parts[:split]))
                except ImportError:
                    continue
                obj = mod
                for attr in parts[split:]:
                    obj = getattr(obj, attr)
                break
            else:
                pytest.fail(f"claim {claim!r}: cannot resolve {path!r}")
