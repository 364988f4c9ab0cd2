"""The bulk scan path's differential oracle: a chain shifted bit by bit.

:class:`PerBitScanTarget` is :class:`repro.targets.FpgaTarget` in its
``"shift"`` mode with the reference scan mechanism in place of the bulk
rotation: a capture clocks the chain out through ``scan_out`` one bit
per cycle, feeding each bit back on ``scan_in`` (a circular shift that
preserves the state), and a load clocks the packed stream in, all
through the instrumented RTL with ``scan_enable`` high. Chain packing,
link faults, the snapshot IP and every modelled cost are the target's
own, so a divergence lies in the bulk capture or load.

``tests/test_scan_bulk.py`` and ``tests/test_targets.py`` run the
shipped target against it.
"""

from __future__ import annotations

from repro.targets.base import PeripheralInstance
from repro.targets.fpga import FpgaTarget


class PerBitScanTarget(FpgaTarget):
    """An FPGA target whose scan shifts really run the chain per bit."""

    def __init__(self, **kwargs) -> None:
        super().__init__(scan_mode="shift", **kwargs)

    def _capture_instance_raw(self, instance: PeripheralInstance) -> dict:
        scan = self._chain(instance)
        sim = instance.sim
        stream = 0
        sim.poke("scan_enable", 1)
        for k in range(scan.chain_length):
            bit = sim.peek("scan_out")
            stream |= bit << k
            sim.poke("scan_in", bit)  # circular: preserve the state
            sim.step()
        sim.poke("scan_enable", 0)
        nets, mems = scan.unpack(stream)
        return self._canonical_from_chain(instance, nets, mems)

    def _load_instance_raw(self, instance: PeripheralInstance,
                           state: dict) -> None:
        scan = self._chain(instance)
        sim = instance.sim
        nets = {e.name: state["nets"][e.name]
                for e in scan.elements if e.kind == "net"}
        mems = {name: state["memories"][name] for name in
                {e.name for e in scan.elements if e.kind == "mem"}}
        stream = scan.pack(nets, mems)
        sim.poke("scan_enable", 1)
        for k in range(scan.chain_length):
            sim.poke("scan_in", (stream >> k) & 1)
            sim.step()
        sim.poke("scan_enable", 0)
        # Input pins are environment, not chain state: re-drive them.
        for net in instance.design.inputs:
            if net.name in state["nets"] and net.name not in (
                    "scan_enable", "scan_in"):
                sim.poke(net.name, state["nets"][net.name])
        sim.cycle = int(state.get("cycle", sim.cycle))
