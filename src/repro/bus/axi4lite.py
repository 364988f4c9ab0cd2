"""AXI4-Lite master bus functional model.

Drives the five AXI4-Lite channels of a simulated peripheral cycle by
cycle through the simulation's poke/peek API — the Python analogue of the
"memory bus abstraction layer" HardSnap links into the Verilator-generated
simulator (paper §IV-A, path A).

The BFM is handshake-accurate: a write issues AWVALID/WVALID and waits for
the peripheral's READY/BVALID responses, so the cycle cost of each access
is whatever the peripheral's AXI state machine takes, not a constant.

``read``/``write`` run the whole transaction in one call to the
simulation's generated ``axi_entry`` when it has one (the compiled
backend at the opt tier, no negedge logic) and no VCD writer is
attached; that entry runs this handshake step for step over hoisted net
locals. ``handshake_read``/``handshake_write`` drive it from Python one
poke and one clock step at a time: the path of the interpreter backend,
negedge designs and VCD tracing, and the entry's differential
reference.

Signal naming convention (32-bit data bus)::

    s_axi_awvalid  s_axi_awready  s_axi_awaddr
    s_axi_wvalid   s_axi_wready   s_axi_wdata
    s_axi_bvalid   s_axi_bready
    s_axi_arvalid  s_axi_arready  s_axi_araddr
    s_axi_rvalid   s_axi_rready   s_axi_rdata
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import BusError
from repro.sim.base import BaseSimulation

DEFAULT_TIMEOUT_CYCLES = 64

#: BusError text per failing transaction status (the generated entry's
#: status codes 1-4), formatted with the address.
BUS_ERRORS = {
    1: "write to 0x{:x}: address/data phase timeout",
    2: "write to 0x{:x}: no write response",
    3: "read of 0x{:x}: address phase timeout",
    4: "read of 0x{:x}: no read data",
}


@dataclass
class BusStats:
    reads: int = 0
    writes: int = 0
    read_cycles: int = 0
    write_cycles: int = 0

    @property
    def total_cycles(self) -> int:
        return self.read_cycles + self.write_cycles


class Axi4LiteMaster:
    """Cycle-accurate AXI4-Lite master driving one simulated slave."""

    def __init__(self, sim: BaseSimulation, prefix: str = "s_axi_",
                 timeout: int = DEFAULT_TIMEOUT_CYCLES):
        self.sim = sim
        self.prefix = prefix
        self.timeout = timeout
        self.stats = BusStats()
        self._entry = sim.axi_entry if prefix == "s_axi_" else None
        self._idle()

    def _sig(self, name: str) -> str:
        return self.prefix + name

    def _idle(self) -> None:
        """Deassert all master-driven signals."""
        self.sim.poke_many({
            self._sig("awvalid"): 0,
            self._sig("wvalid"): 0,
            self._sig("bready"): 0,
            self._sig("arvalid"): 0,
            self._sig("rready"): 0,
        })

    # -- transactions -----------------------------------------------------------

    def write(self, addr: int, data: int) -> int:
        """Write *data* to *addr*; returns the number of cycles consumed."""
        if self._entry is None or self.sim._vcd is not None:
            return self.handshake_write(addr, data)
        _, cycles = self._transact(1, addr, data)
        self.stats.writes += 1
        self.stats.write_cycles += cycles
        return cycles

    def read(self, addr: int) -> Tuple[int, int]:
        """Read *addr*; returns ``(data, cycles_consumed)``."""
        if self._entry is None or self.sim._vcd is not None:
            return self.handshake_read(addr)
        data, cycles = self._transact(0, addr, 0)
        self.stats.reads += 1
        self.stats.read_cycles += cycles
        return data, cycles

    def _transact(self, write: int, addr: int, data: int) -> Tuple[int, int]:
        """One transaction through the generated entry; returns
        ``(read data, cycles)``."""
        sim = self.sim
        out, cycles, status = self._entry(sim.values, sim.memories, write,
                                          addr, data, self.timeout)
        sim.cycle += cycles
        sim.state_version += 1
        if status:
            raise BusError(BUS_ERRORS[status].format(addr))
        return out, cycles

    def handshake_write(self, addr: int, data: int) -> int:
        """:meth:`write` driven cycle by cycle from Python."""
        sim = self.sim
        start = sim.cycle
        sim.poke_many({
            self._sig("awvalid"): 1,
            self._sig("awaddr"): addr,
            self._sig("wvalid"): 1,
            self._sig("wdata"): data,
            self._sig("bready"): 1,
        })
        aw_done = False
        w_done = False
        for _ in range(self.timeout):
            aw_ready = sim.peek(self._sig("awready"))
            w_ready = sim.peek(self._sig("wready"))
            sim.step()
            if aw_ready and not aw_done:
                aw_done = True
                sim.poke(self._sig("awvalid"), 0)
            if w_ready and not w_done:
                w_done = True
                sim.poke(self._sig("wvalid"), 0)
            if aw_done and w_done:
                break
        else:
            self._idle()
            raise BusError(BUS_ERRORS[1].format(addr))
        for _ in range(self.timeout):
            if sim.peek(self._sig("bvalid")):
                sim.step()  # consume the response beat
                break
            sim.step()
        else:
            self._idle()
            raise BusError(BUS_ERRORS[2].format(addr))
        self._idle()
        cycles = sim.cycle - start
        self.stats.writes += 1
        self.stats.write_cycles += cycles
        return cycles

    def handshake_read(self, addr: int) -> Tuple[int, int]:
        """:meth:`read` driven cycle by cycle from Python."""
        sim = self.sim
        start = sim.cycle
        sim.poke_many({
            self._sig("arvalid"): 1,
            self._sig("araddr"): addr,
            self._sig("rready"): 1,
        })
        for _ in range(self.timeout):
            ar_ready = sim.peek(self._sig("arready"))
            sim.step()
            if ar_ready:
                sim.poke(self._sig("arvalid"), 0)
                break
        else:
            self._idle()
            raise BusError(BUS_ERRORS[3].format(addr))
        for _ in range(self.timeout):
            if sim.peek(self._sig("rvalid")):
                data = sim.peek(self._sig("rdata"))
                sim.step()  # consume the data beat
                self._idle()
                cycles = sim.cycle - start
                self.stats.reads += 1
                self.stats.read_cycles += cycles
                return data, cycles
            sim.step()
        self._idle()
        raise BusError(BUS_ERRORS[4].format(addr))
