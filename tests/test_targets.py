"""Hardware target tests: hosting, visibility, snapshot methods, the
snapshot IP, and cross-target orchestration."""

import pytest

from repro.bus.transport import USB3
from repro.core.snapshot import SnapshotController
from repro.errors import SnapshotError, TargetError
from repro.peripherals import catalog, timer
from repro.targets import (FpgaTarget, SimulatorTarget, SnapshotIp,
                           TargetOrchestrator)

TIMER_BASE = 0x4000_0000
UART_BASE = 0x4001_0000


def _target(cls, **kw):
    t = cls(**kw)
    t.add_peripheral(catalog.TIMER, TIMER_BASE)
    t.reset()
    return t


def _arm_timer(t, load=30):
    t.write(TIMER_BASE + timer.REGISTERS["LOAD"], load)
    t.write(TIMER_BASE + timer.REGISTERS["CTRL"],
            timer.CTRL_EN | timer.CTRL_IRQ_EN)


class TestHosting:
    @pytest.mark.parametrize("cls", [SimulatorTarget, FpgaTarget])
    def test_mmio_and_irq(self, cls):
        t = _target(cls)
        _arm_timer(t, 20)
        assert t.irq_lines()["timer"] is False
        t.step(25)
        assert t.irq_lines()["timer"] is True

    def test_unmapped_address_rejected(self):
        t = _target(SimulatorTarget)
        with pytest.raises(TargetError):
            t.read(0x5000_0000)

    def test_duplicate_instance_rejected(self):
        t = SimulatorTarget()
        t.add_peripheral(catalog.TIMER, TIMER_BASE)
        with pytest.raises(TargetError):
            t.add_peripheral(catalog.TIMER, UART_BASE)

    def test_lockstep_between_peripherals(self):
        t = SimulatorTarget()
        t.add_peripheral(catalog.TIMER, TIMER_BASE)
        t.add_peripheral(catalog.UART, UART_BASE, instance_name="uart0")
        t.reset()
        c1 = t.instances["timer"].sim.cycle
        c2 = t.instances["uart0"].sim.cycle
        # A bus access to one peripheral advances the other identically.
        t.write(TIMER_BASE + 4, 10)
        assert (t.instances["timer"].sim.cycle - c1
                == t.instances["uart0"].sim.cycle - c2)

    def test_modelled_time_accumulates(self):
        t = _target(SimulatorTarget)
        before = t.timer.total_s
        t.write(TIMER_BASE + 4, 1)
        t.step(100)
        assert t.timer.total_s > before
        assert t.timer.transport_s > 0


class TestVisibility:
    def test_simulator_full_visibility(self):
        t = _target(SimulatorTarget)
        assert t.peek("timer", "value") == 0
        writer = t.attach_vcd("timer")
        t.step(5)
        assert writer.changes > 0

    def test_fpga_pins_only(self):
        t = _target(FpgaTarget)
        t.peek("timer", "irq")  # pin: fine
        t.peek("timer", "s_axi_awready")  # pin: fine
        with pytest.raises(TargetError):
            t.peek("timer", "value")  # internal register
        with pytest.raises(TargetError):
            t.peek("timer", "expired")


class TestSimulatorSnapshots:
    def test_criu_roundtrip(self):
        t = _target(SimulatorTarget)
        _arm_timer(t, 10)
        t.step(15)
        assert t.irq_lines()["timer"] is True
        snap = t.save_snapshot()
        assert snap.method == "criu"
        t.write(TIMER_BASE + timer.REGISTERS["STATUS"], 1)
        assert t.irq_lines()["timer"] is False
        t.restore_snapshot(snap)
        assert t.irq_lines()["timer"] is True

    def test_criu_cost_model_dominated_by_base(self):
        t = _target(SimulatorTarget)
        snap = t.save_snapshot()
        assert snap.modelled_cost_s > t.criu.checkpoint_base_s
        # Small designs: image dominated by process pages, nearly flat.
        assert snap.modelled_cost_s < 2 * t.criu.checkpoint_base_s

    def test_restore_unknown_instance_rejected(self):
        t = _target(SimulatorTarget)
        snap = t.save_snapshot()
        snap.states["ghost"] = snap.states["timer"]
        with pytest.raises(SnapshotError):
            t.restore_snapshot(snap)


class TestFpgaSnapshots:
    @pytest.mark.parametrize("mode", ["shift", "functional"])
    def test_scan_roundtrip(self, mode):
        t = _target(FpgaTarget, scan_mode=mode)
        _arm_timer(t, 12)
        t.step(16)
        assert t.irq_lines()["timer"] is True
        snap = t.save_snapshot()
        assert snap.method == "scan"
        # Circular scan preserved the live state.
        assert t.irq_lines()["timer"] is True
        t.write(TIMER_BASE + timer.REGISTERS["STATUS"], 1)
        t.restore_snapshot(snap)
        assert t.irq_lines()["timer"] is True

    def test_shift_and_functional_agree(self):
        results = {}
        for mode in ("shift", "functional"):
            t = _target(FpgaTarget, scan_mode=mode)
            _arm_timer(t, 7)
            t.step(9)
            snap = t.save_snapshot()
            nets = {k: v for k, v in snap.states["timer"]["nets"].items()
                    if not k.startswith("scan")}
            results[mode] = (nets, snap.states["timer"]["memories"],
                             snap.modelled_cost_s, snap.bits)
        assert results["shift"][0] == results["functional"][0]
        assert results["shift"][1] == results["functional"][1]
        assert results["shift"][2] == pytest.approx(results["functional"][2])
        assert results["shift"][3] == results["functional"][3]

    def test_scan_cost_scales_with_chain(self):
        small = _target(FpgaTarget, scan_mode="functional")
        big = FpgaTarget(scan_mode="functional")
        big.add_peripheral(catalog.SHA256, TIMER_BASE)
        big.reset()
        s_small = small.save_snapshot()
        s_big = big.save_snapshot()
        assert s_big.bits > s_small.bits
        assert s_big.modelled_cost_s > s_small.modelled_cost_s

    def test_readback_capture_only(self):
        t = _target(FpgaTarget)
        _arm_timer(t, 5)
        t.step(8)
        snap = t.readback_snapshot()
        assert snap.method == "readback"
        assert snap.modelled_cost_s > 0
        nodev = _target(FpgaTarget, has_readback=False)
        with pytest.raises(TargetError):
            nodev.readback_snapshot()

    def test_invalid_scan_mode_rejected(self):
        with pytest.raises(TargetError):
            FpgaTarget(scan_mode="warp")


class TestIncrementalRestore:
    """A functional-mode restore skips ``sim.load_state`` when the
    instance is untouched since it last held exactly the snapshot's
    state; everything a restore charges and counts is unchanged."""

    @staticmethod
    def _spy_loads(monkeypatch, t):
        sim = t.instances["timer"].sim
        loads = []
        load_state = sim.load_state

        def spy(state):
            loads.append(state)
            load_state(state)
        monkeypatch.setattr(sim, "load_state", spy)
        return loads

    def test_untouched_restore_skips_the_load(self, monkeypatch):
        t = _target(FpgaTarget, scan_mode="functional")
        _arm_timer(t, 12)
        snap = t.save_snapshot()
        loads = self._spy_loads(monkeypatch, t)
        start, restored = t.timer.total_s, t.snapshots_restored
        t.restore_snapshot(snap)
        skipped_cost = t.timer.total_s - start
        assert loads == []
        assert t.snapshots_restored == restored + 1
        assert skipped_cost > 0
        # A restore that does reload the same snapshot costs the same.
        t.write(TIMER_BASE + timer.REGISTERS["STATUS"], 1)
        start = t.timer.total_s
        t.restore_snapshot(snap)
        assert len(loads) == 1
        assert t.timer.total_s - start == pytest.approx(skipped_cost)
        t.restore_snapshot(snap)
        assert len(loads) == 1

    @pytest.mark.parametrize("touch", ["mmio", "step", "other_snapshot"])
    def test_touched_instance_reloads(self, monkeypatch, touch):
        t = _target(FpgaTarget, scan_mode="functional")
        _arm_timer(t, 12)
        snap = t.save_snapshot()
        if touch == "mmio":
            t.write(TIMER_BASE + timer.REGISTERS["LOAD"], 99)
        elif touch == "step":
            t.step(5)
        else:  # untouched since restoring a different state
            t.step(5)
            t.restore_snapshot(t.save_snapshot())
        loads = self._spy_loads(monkeypatch, t)
        t.restore_snapshot(snap)
        assert len(loads) == 1
        live = t.instances["timer"].sim.save_state()
        state = snap.states["timer"]
        assert live["cycle"] == state["cycle"]
        assert {k: live["nets"][k] for k in state["nets"]} == state["nets"]
        assert {k: live["memories"][k] for k in state["memories"]} \
            == state["memories"]

    def test_poke_between_restores_of_one_snapshot_reloads(self,
                                                           monkeypatch):
        """Through the controller every restore hands the target the
        store's one image of the snapshot. A restore into an untouched
        target loads nothing; a TIMER poke in between moves the state
        version, so the next restore loads the snapshot again."""
        t = _target(FpgaTarget, scan_mode="functional")
        _arm_timer(t, 12)
        ctl = SnapshotController(t)
        snap = ctl.save()
        ctl.restore(snap)
        image = snap.states
        loads = self._spy_loads(monkeypatch, t)
        ctl.restore(snap)
        assert loads == [] and snap.states is image
        sim = t.instances["timer"].sim
        sim.poke("load", 99)
        ctl.restore(snap)
        assert loads == [image["timer"]] and snap.states is image
        live = sim.save_state()
        state = image["timer"]
        assert live["cycle"] == state["cycle"]
        assert {k: live["nets"][k] for k in state["nets"]} == state["nets"]

    def test_fault_plan_restores_shift_through_the_link(self, monkeypatch):
        """With a fault plan attached every restore runs the verified
        shift, untouched target or not: the link can fault on any."""
        from repro.resilience import FaultPlan

        t = _target(FpgaTarget, scan_mode="functional")
        t.attach_resilience(FaultPlan(seed=0, mmio_drop_rate=1e-9))
        ctl = SnapshotController(t)
        snap = ctl.save()
        shifts = []
        shift = t._shift_verified

        def spy(instance, operation, *args, **kwargs):
            shifts.append(operation)
            return shift(instance, operation, *args, **kwargs)
        monkeypatch.setattr(t, "_shift_verified", spy)
        for _ in range(3):
            ctl.restore(snap)
        assert shifts == ["load"] * 3

    @pytest.mark.parametrize("mode", ["shift", "shift-perbit"])
    def test_shift_modes_still_shift(self, mode):
        t = _target(FpgaTarget, scan_mode=mode)
        snap = t.save_snapshot()
        sim = t.instances["timer"].sim
        version = sim.state_version
        t.restore_snapshot(snap)
        assert sim.state_version > version

    def test_fault_plan_draws_unchanged(self):
        """Skipped loads make no link-fault draws of their own: a serial
        fuzz run under a fault plan keeps the verdict and recovery
        counters recorded with the always-reloading restore."""
        from repro.core import SnapshotFuzzer
        from repro.firmware import fuzz_packet_parser
        from repro.isa import assemble
        from repro.resilience import FaultPlan

        t = _target(FpgaTarget, scan_mode="functional")
        t.attach_resilience(FaultPlan.parse(
            "seed=9,scan_corrupt=0.2,scan_drop=0.05,link_down=0.05"))
        seeds = [bytes([1, 4, 0x41, 0x42, 0x43, 0x44]), bytes([2, 7])]
        report = SnapshotFuzzer(assemble(fuzz_packet_parser(TIMER_BASE)),
                                t, seeds=seeds, seed=3).run(executions=200)
        crashes = ";".join(
            f"{index}:assertion failed at 0x000000bc@0xbc:{data}"
            for index, data in [
                (18, "018941429e1045"), (36, "01b30441420044"),
                (91, "01b9"), (107, "01a541424380"), (123, "01e74f"),
                (135, "01f4c1424364"), (148, "01804142004344"),
                (162, "01e1c14243c4"), (199, "01c7044200434443")])
        assert report.verdict_summary() == (
            "[fuzz] execs=200 corpus=7 edges=70:f514e7b4bd2d20e4 "
            f"crashes=<{crashes}>")
        assert report.resilience.as_dict() == {
            "link_retries": 64, "mmio_retries": 0, "transfer_retries": 0,
            "stalls": 0, "health_checks": 200, "reconnects": 5,
            "integrity_checks": 199, "backoff_s": 7.999999999999993e-05,
            "worker_respawns": 0, "lease_reissues": 0,
            "duplicate_results": 0, "degraded": False}
        assert t.snapshots_restored == 199


class TestSnapshotIp:
    def test_sram_hit_cheaper_than_host(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=10_000)
        slot, save_cost = ip.save(1000)
        hit_cost = ip.restore(slot, 1000)
        miss_cost = ip.restore(None, 1000)
        assert hit_cost < miss_cost
        assert ip.stats.sram_hits == 1
        assert ip.stats.host_round_trips == 1

    def test_eviction_fifo(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=2500)
        s1, _ = ip.save(1000)
        s2, _ = ip.save(1000)
        s3, _ = ip.save(1000)  # evicts s1
        assert ip.stats.evictions == 1
        assert ip.resident_count == 2
        # s1 restore now pays the host round trip.
        cost_evicted = ip.restore(s1, 1000)
        cost_resident = ip.restore(s3, 1000)
        assert cost_evicted > cost_resident

    def test_oversized_snapshot_goes_to_host(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=100)
        slot, cost = ip.save(1000)
        assert ip.resident_count == 0
        assert cost > ip.shift_cost_s(1000)

    def test_forget_frees_slot(self):
        ip = SnapshotIp(100e6, USB3, sram_bits=2500)
        s1, _ = ip.save(1000)
        ip.forget(s1)
        assert ip.resident_count == 0


class TestOrchestration:
    def _pair(self):
        targets = []
        for cls, name in ((FpgaTarget, "fpga"), (SimulatorTarget, "sim")):
            t = cls(name=name)
            t.add_peripheral(catalog.TIMER, TIMER_BASE)
            t.reset()
            targets.append(t)
        return targets

    def test_transfer_fpga_to_simulator(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        _arm_timer(fpga, 9)
        fpga.step(12)
        orch.transfer("fpga", "sim")
        assert orch.active.name == "sim"
        assert sim.peek("timer", "expired") == 1
        assert sim.read(TIMER_BASE + timer.REGISTERS["LOAD"]) == 9

    def test_transfer_back_round_trip(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        _arm_timer(fpga, 40)
        fpga.step(10)
        orch.transfer("fpga", "sim")
        sim.step(5)
        orch.transfer("sim", "fpga")
        v = fpga.read(TIMER_BASE + timer.REGISTERS["VALUE"])
        assert 0 < v < 40

    def test_mismatched_instances_rejected(self):
        orch = TargetOrchestrator()
        t1 = FpgaTarget(name="a")
        t1.add_peripheral(catalog.TIMER, TIMER_BASE)
        orch.register(t1)
        t2 = SimulatorTarget(name="b")
        t2.add_peripheral(catalog.UART, UART_BASE)
        with pytest.raises(TargetError):
            orch.register(t2)

    def test_self_transfer_rejected(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga)
        with pytest.raises(TargetError):
            orch.transfer("fpga", "fpga")

    def test_active_view_follows_switch(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        view = orch.active_view()
        assert view.name == "fpga"
        _arm_timer(view, 6)
        view.step(9)
        orch.transfer("fpga", "sim")
        assert view.name == "sim"
        assert view.irq_lines()["timer"] is True

    def test_transfer_records_cost(self):
        fpga, sim = self._pair()
        orch = TargetOrchestrator()
        orch.register(fpga)
        orch.register(sim)
        orch.transfer("fpga", "sim")
        record = orch.transfers[-1]
        assert record.bits > 0 and record.modelled_cost_s > 0
