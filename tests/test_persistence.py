"""Snapshot persistence and crash-pack export/replay."""

import json
import re

import pytest

from repro import HardSnapSession
from repro.core import make_target
from repro.core.persistence import (export_crash_pack, load_snapshot,
                                    replay_crash, save_snapshot,
                                    snapshot_from_dict, snapshot_to_dict)
from repro.core.snapshot import SnapshotController
from repro.errors import FirmwarePanic, SnapshotError, SnapshotIntegrityError
from repro.firmware import (AES_BASE, TIMER_BASE, UART_BASE, WDT_BASE,
                            dispatcher, fig1_two_paths, init_heavy,
                            vuln_buffer_overflow, vuln_irq_race,
                            vuln_peripheral_misuse, vuln_wdt_starvation)
from repro.peripherals import catalog, timer
from repro.targets import FpgaTarget

_TIMER = ((catalog.TIMER, TIMER_BASE),)

#: E0's ten ``dse-serial`` campaigns: (name, firmware, peripherals).
E0_DSE = [
    ("dispatcher-6", dispatcher(6, 8), _TIMER),
    ("dispatcher-16", dispatcher(16, 40), _TIMER),
    ("dispatcher-32", dispatcher(32, 40), _TIMER),
    ("dispatcher-64", dispatcher(64, 40), _TIMER),
    ("init_heavy", init_heavy(200, 16),
     ((catalog.UART, UART_BASE), (catalog.TIMER, TIMER_BASE))),
    ("vuln_irq_race", vuln_irq_race(), _TIMER),
    ("vuln_buffer_overflow", vuln_buffer_overflow(),
     ((catalog.UART, UART_BASE),)),
    ("vuln_peripheral_misuse", vuln_peripheral_misuse(),
     ((catalog.AES128, AES_BASE),)),
    ("vuln_wdt_starvation", vuln_wdt_starvation(),
     ((catalog.WDT, WDT_BASE),)),
    ("fig1_two_paths", fig1_two_paths(), _TIMER),
]


class TestSnapshotFiles:
    def test_json_roundtrip_restores_hardware(self, tmp_path):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        target.write(TIMER_BASE + timer.REGISTERS["LOAD"], 123)
        snap = target.save_snapshot()
        path = tmp_path / "state.json"
        save_snapshot(snap, path)
        # Fresh process simulation: a new target loads the file.
        other = FpgaTarget(scan_mode="functional")
        other.add_peripheral(catalog.TIMER, TIMER_BASE)
        other.reset()
        loaded = load_snapshot(path)
        other.restore_snapshot(loaded)
        assert other.read(TIMER_BASE + timer.REGISTERS["LOAD"]) == 123

    def test_file_is_human_readable_json(self, tmp_path):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        target.reset()
        path = tmp_path / "state.json"
        save_snapshot(target.save_snapshot(), path)
        data = json.loads(path.read_text())
        assert "timer" in data["states"]
        assert "load" in data["states"]["timer"]["nets"]

    def test_bad_format_rejected(self):
        with pytest.raises(SnapshotError):
            snapshot_from_dict({"format": 99, "states": {}})

    @staticmethod
    def _controller_snapshot():
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.TIMER, TIMER_BASE)
        controller = SnapshotController(target)
        controller.reset()
        controller.save()
        target.write(TIMER_BASE + timer.REGISTERS["LOAD"], 123)
        return controller.save()

    def test_file_with_parent_id_still_loads(self, tmp_path):
        """Older snapshot files (crash packs' ``hardware.json``) carry a
        ``parent_id`` key, which nothing reads: such a file loads,
        passes its digest check and restores."""
        data = snapshot_to_dict(self._controller_snapshot())
        data["parent_id"] = 1
        path = tmp_path / "hardware.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True))
        loaded = load_snapshot(path)
        assert loaded.digest == data["digest"] == loaded.compute_digest()
        tampered = dict(data, states=json.loads(json.dumps(data["states"])))
        tampered["states"]["timer"]["nets"]["load"] ^= 1
        with pytest.raises(SnapshotIntegrityError):
            snapshot_from_dict(tampered)
        other = FpgaTarget(scan_mode="functional")
        other.add_peripheral(catalog.TIMER, TIMER_BASE)
        other.reset()
        other.restore_snapshot(loaded)
        assert other.read(TIMER_BASE + timer.REGISTERS["LOAD"]) == 123

    def test_saved_file_has_no_parent_id(self, tmp_path):
        path = tmp_path / "hardware.json"
        save_snapshot(self._controller_snapshot(), path)
        data = json.loads(path.read_text())
        assert "parent_id" not in data
        assert "snapshot_id" in data


class TestCrashPacks:
    @pytest.fixture(scope="class")
    def hunted(self):
        session = HardSnapSession(vuln_buffer_overflow(),
                                  [(catalog.UART, UART_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=300_000, stop_after_bugs=2)
        return session, report

    def test_export_layout(self, hunted, tmp_path):
        session, report = hunted
        dirs = export_crash_pack(report, tmp_path / "pack",
                                 program=session.program)
        assert len(dirs) == len(report.bugs)
        manifest = json.loads((tmp_path / "pack" / "manifest.json").read_text())
        assert manifest["findings"] == len(report.bugs)
        finding = json.loads((dirs[0] / "report.json").read_text())
        assert finding["kind"] == "assertion-failure"
        assert finding["test_case"]
        # Disassembly included in the backtrace.
        assert any("asm" in entry for entry in finding["backtrace"])
        assert (dirs[0] / "hardware.json").exists()

    def test_replay_reproduces_the_crash(self, hunted, tmp_path):
        session, report = hunted
        dirs = export_crash_pack(report, tmp_path / "pack2",
                                 program=session.program)
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.UART, UART_BASE)
        with pytest.raises(FirmwarePanic):
            replay_crash(dirs[0], session.program, target)

    def test_safe_input_does_not_crash(self, hunted, tmp_path):
        """Control: replaying a PASSING path's test case exits cleanly."""
        session, report = hunted
        good = next(p for p in report.halted_paths if p.test_case)
        from repro.isa.cpu import Cpu
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(catalog.UART, UART_BASE)
        target.reset()
        values = [v for _, v in sorted(good.test_case.items())]
        cpu = Cpu(session.program, mmio_read=target.read,
                  mmio_write=target.write, sym_values=values)
        exit_ = cpu.run(max_steps=200_000)
        assert exit_.reason == "halt"


class TestE0FindingsReplay:
    def test_every_e0_dse_finding_replays(self, tmp_path):
        """Every finding of E0's ten DSE campaigns, exported as a crash
        pack and replayed on a fresh target, panics at the finding's pc.
        The watchdog and interrupt findings depend on the hardware being
        clocked per instruction, as the engine clocks it."""
        found = {}
        missed = []
        for name, firmware, peripherals in E0_DSE:
            session = HardSnapSession(firmware, peripherals,
                                      scan_mode="functional", opt=True)
            report = session.run(max_instructions=1_000_000)
            assert report.stop_reason == "exhausted", name
            dirs = export_crash_pack(report, tmp_path / name,
                                     program=session.program)
            for bug, finding in zip(report.bugs, dirs):
                found[name] = found.get(name, 0) + 1
                target = make_target(session.config)
                for spec, base in peripherals:
                    target.add_peripheral(spec, base)
                try:
                    exit_ = replay_crash(finding, session.program, target)
                except FirmwarePanic as panic:
                    if re.search(rf"(pc=|at )0x{bug.pc:08x}\)?$",
                                 str(panic)):
                        continue
                    outcome = str(panic)
                else:
                    outcome = f"{exit_.reason} at 0x{exit_.pc:08x}"
                missed.append(f"{name}/{finding.name} "
                              f"(0x{bug.pc:08x}): {outcome}")
        assert found == {"vuln_irq_race": 1, "vuln_buffer_overflow": 47,
                         "vuln_peripheral_misuse": 2,
                         "vuln_wdt_starvation": 21}
        assert not missed, (f"{len(missed)} of {sum(found.values())} "
                            f"findings did not replay: {missed[:5]}")
