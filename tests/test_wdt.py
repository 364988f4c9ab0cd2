"""Watchdog timer peripheral tests + the starvation vulnerability."""

from repro import HardSnapSession
from repro.bus import Axi4LiteMaster
from repro.firmware import WDT_BASE, vuln_wdt_starvation
from repro.peripherals import catalog, wdt
from repro.sim import CompiledSimulation


def _boot():
    sim = CompiledSimulation(catalog.WDT.elaborate())
    sim.poke("rst", 1); sim.step(2); sim.poke("rst", 0); sim.step()
    return sim, Axi4LiteMaster(sim)


class TestWatchdogRtl:
    def test_counts_down_and_barks(self):
        sim, bus = _boot()
        bus.write(wdt.REGISTERS["LOAD"], 10)
        bus.write(wdt.REGISTERS["CTRL"], wdt.CTRL_EN)
        assert sim.peek("wdt_reset") == 0
        sim.step(12)
        assert sim.peek("wdt_reset") == 1
        st, _ = bus.read(wdt.REGISTERS["STATUS"])
        assert st & wdt.STATUS_BARKED

    def test_feed_reloads(self):
        sim, bus = _boot()
        bus.write(wdt.REGISTERS["LOAD"], 30)
        bus.write(wdt.REGISTERS["CTRL"], wdt.CTRL_EN)
        for _ in range(5):
            sim.step(15)
            bus.write(wdt.REGISTERS["FEED"], wdt.FEED_MAGIC)
        assert sim.peek("wdt_reset") == 0  # kept alive across 75+ cycles

    def test_bad_feed_counted_and_ignored(self):
        sim, bus = _boot()
        bus.write(wdt.REGISTERS["LOAD"], 100)
        bus.write(wdt.REGISTERS["CTRL"], wdt.CTRL_EN)
        v1, _ = bus.read(wdt.REGISTERS["VALUE"])
        bus.write(wdt.REGISTERS["FEED"], 0x12)   # wrong magic
        v2, _ = bus.read(wdt.REGISTERS["VALUE"])
        assert v2 < v1  # no reload happened
        st, _ = bus.read(wdt.REGISTERS["STATUS"])
        assert (st >> 8) & 0xFF == 1

    def test_lock_is_write_once(self):
        sim, bus = _boot()
        bus.write(wdt.REGISTERS["LOAD"], 50)
        bus.write(wdt.REGISTERS["CTRL"], wdt.CTRL_EN | wdt.CTRL_LOCK)
        # Attempts to disable or retune after LOCK are ignored.
        bus.write(wdt.REGISTERS["CTRL"], 0)
        bus.write(wdt.REGISTERS["LOAD"], 0xFFFF)
        ctrl, _ = bus.read(wdt.REGISTERS["CTRL"])
        load, _ = bus.read(wdt.REGISTERS["LOAD"])
        assert ctrl & wdt.CTRL_EN
        assert load == 50

    def test_bark_clears_write_one(self):
        sim, bus = _boot()
        bus.write(wdt.REGISTERS["LOAD"], 3)
        bus.write(wdt.REGISTERS["CTRL"], wdt.CTRL_EN)
        sim.step(6)
        assert sim.peek("wdt_reset") == 1
        bus.write(wdt.REGISTERS["STATUS"], 1)
        assert sim.peek("wdt_reset") == 0


class TestWdtStarvation:
    def test_engine_finds_the_threshold(self):
        session = HardSnapSession(vuln_wdt_starvation(),
                                  [(catalog.WDT, WDT_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=500_000)
        assert report.bugs and report.halted_paths
        bad = {list(b.test_case.values())[0] & 0x1F for b in report.bugs}
        good = {list(p.test_case.values())[0] & 0x1F
                for p in report.halted_paths}
        # A clean threshold: every starving length exceeds every safe one.
        assert min(bad) > max(good)
        # The witness carries the hardware's view: the dog barked.
        hw = report.bugs[0].hw_snapshot.states["wdt"]["nets"]
        assert hw["barked"] == 1
        assert hw["locked"] == 1  # and it could not have been disabled
