"""E1c — I/O forwarding latency and execution speed, per target.

The paper completes its performance evaluation "by measuring the I/O
forwarding latency and execution speed between the FPGA and the
simulator target". Three axes here:

* modelled per-access MMIO latency: shared memory (simulator) vs USB3
  (FPGA) vs JTAG (the Avatar/Inception hardware-in-the-loop baseline),
* modelled execution speed (target clock rates),
* host execution speed of the two simulation backends — the real
  compiled-vs-interpreted gap that stands in for FPGA-vs-Verilator.

Expected shapes: shm < usb3 << jtag for latency; the FPGA target
executes orders of magnitude more cycles per second than the simulator;
the compiled backend is much faster than the interpreter in wall time.
"""

import time

from benchmarks.conftest import PERIPH_BASE, emit, fpga_with, simulator_with
from repro.analysis import format_si_time, format_table
from repro.bus.transport import JTAG
from repro.peripherals import catalog
from repro.sim import CompiledSimulation, Interpreter

ACCESSES = 64


def _per_access_modelled(target):
    before_transport = target.timer.transport_s
    before_total = target.timer.total_s
    for i in range(ACCESSES):
        target.write(PERIPH_BASE + 0x04, i)
        target.read(PERIPH_BASE + 0x04)
    transport = (target.timer.transport_s - before_transport) / (2 * ACCESSES)
    total = (target.timer.total_s - before_total) / (2 * ACCESSES)
    return transport, total


def test_io_forwarding_latency(benchmark):
    def run():
        sim_t = simulator_with(catalog.TIMER)
        fpga_t = fpga_with(catalog.TIMER)
        jtag_t = fpga_with(catalog.TIMER)
        jtag_t.transport = JTAG  # Avatar-style hardware-in-the-loop
        return {name: _per_access_modelled(t)
                for name, t in (("simulator/shm", sim_t),
                                ("fpga/usb3", fpga_t),
                                ("fpga/jtag", jtag_t))}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[name, format_si_time(tr), format_si_time(total)]
            for name, (tr, total) in results.items()]
    emit("io_forwarding_latency", format_table(
        ["target/transport", "transport per access", "total per access"],
        rows, title="E1c.1: MMIO forwarding latency (modelled, per access)"))

    shm = results["simulator/shm"][0]
    usb = results["fpga/usb3"][0]
    jtag = results["fpga/jtag"][0]
    assert shm < usb < jtag
    assert jtag / usb > 10          # JTAG is the order-of-magnitude loser
    assert usb / shm > 5            # USB3 round trips cost more than shm


def test_execution_speed(benchmark):
    """Cycles/second: modelled target clocks and measured host speed of
    both backends on the largest corpus peripheral."""
    design = catalog.SHA256.elaborate()
    interp = Interpreter(design)
    compiled = CompiledSimulation(design)
    for s in (interp, compiled):
        s.poke("rst", 1); s.step(2); s.poke("rst", 0)

    cycles = 2000

    def run_compiled():
        compiled.step(cycles)

    benchmark.pedantic(run_compiled, rounds=3, iterations=1)

    start = time.perf_counter()
    interp.step(cycles)
    interp_hz = cycles / (time.perf_counter() - start)
    start = time.perf_counter()
    compiled.step(cycles)
    compiled_hz = cycles / (time.perf_counter() - start)

    sim_t = simulator_with(catalog.SHA256)
    fpga_t = fpga_with(catalog.SHA256)
    rows = [
        ["simulator (modelled clock)", f"{sim_t.clock_hz:.3e}"],
        ["fpga (modelled clock)", f"{fpga_t.clock_hz:.3e}"],
        ["interpreter backend (host)", f"{interp_hz:.3e}"],
        ["compiled backend (host)", f"{compiled_hz:.3e}"],
    ]
    emit("io_forwarding_speed", format_table(
        ["execution engine", "cycles/second"], rows,
        title="E1c.2: execution speed, simulator vs FPGA substrate"))

    assert fpga_t.clock_hz / sim_t.clock_hz >= 100
    assert compiled_hz > 3 * interp_hz
