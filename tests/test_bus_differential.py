"""The compiled backend's generated AXI4-Lite transaction entry against
the Python handshake it replaces.

Every AXI peripheral of the catalog is hosted twice on functional-mode
FPGA targets (the compiled backend at the opt tier). One twin's master
runs each access through the generated ``axi`` entry; the other twin's
master is pointed at ``handshake_read``/``handshake_write``, the
cycle-by-cycle reference. Seeded random reads, writes and clock steps
must leave both twins identical after every operation: return data or
``BusError`` text, ``BusStats``, every net and memory, ``save_state()``,
the target's cycle count and its modelled timer.

The catalog slaves accept address and data in the same cycle and answer
one cycle later. A hand-written slave with always-ready address
channels, data accepted and read data returned after address-dependent
wait states, a delayed write response, and a counter of address
handshakes (decoded by wires, so a poke left unsettled shows) covers
the rest of the handshake: staggered write phases, multi-cycle data
phases, and a master that must drop VALID once its address is taken.
"""

import random

import pytest

from repro.bus.axi4lite import BUS_ERRORS, Axi4LiteMaster
from repro.errors import BusError
from repro.hdl import elaborate
from repro.peripherals import catalog
from repro.sim import CompiledSimulation
from repro.targets import FpgaTarget

BASE = 0x4000_0000

AXI_SPECS = [spec for spec in catalog.EXTENDED_CORPUS if spec.bus == "axi"]


def _twins(spec, reset=True):
    """(entry target, handshake target) hosting *spec* at :data:`BASE`."""
    twins = []
    for _ in range(2):
        target = FpgaTarget(scan_mode="functional")
        target.add_peripheral(spec, BASE)
        if reset:
            target.reset()
        twins.append(target)
    entry_bus = twins[0].instances[spec.name].bus
    assert entry_bus._entry is not None, "no generated entry to test"
    reference_bus = twins[1].instances[spec.name].bus
    reference_bus.read = reference_bus.handshake_read
    reference_bus.write = reference_bus.handshake_write
    return twins


def _observe(target, name):
    instance = target.instances[name]
    sim = instance.sim
    return (instance.bus.stats, dict(sim.values),
            {k: list(v) for k, v in sim.memories.items()}, sim.cycle,
            sim.save_state(), target.cycles, target.timer.snapshot())


def _apply(target, op):
    kind, offset, value = op
    try:
        if kind == "read":
            return target.read(BASE + offset)
        if kind == "write":
            return target.write(BASE + offset, value)
        target.step(value)
        return None
    except BusError as exc:
        return f"BusError: {exc}"


def _run_both(twins, name, ops, timeouts=None):
    """Apply *ops* to both twins, comparing after each; returns the
    BusError texts seen."""
    errors = set()
    for i, op in enumerate(ops):
        if timeouts is not None:
            for target in twins:
                target.instances[name].bus.timeout = timeouts[i]
        results = [_apply(target, op) for target in twins]
        assert results[0] == results[1], (i, op)
        assert _observe(twins[0], name) == _observe(twins[1], name), (i, op)
        if isinstance(results[0], str):
            errors.add(results[0])
    return errors


def _random_ops(spec, rng, count):
    offsets = sorted(set(spec.registers.values()))
    ops = []
    for _ in range(count):
        roll = rng.random()
        offset = (rng.choice(offsets) if rng.random() < 0.85
                  else rng.randrange(spec.window_size) & ~3)
        if roll < 0.45:
            ops.append(("read", offset, 0))
        elif roll < 0.9:
            value = rng.choice([rng.getrandbits(32), rng.getrandbits(4),
                                0, 1, 0xFFFFFFFF])
            ops.append(("write", offset, value))
        else:
            ops.append(("step", 0, rng.randint(1, 4)))
    return ops


@pytest.mark.parametrize("spec", AXI_SPECS, ids=lambda s: s.name)
def test_random_traffic_matches_handshake(spec):
    """Random register traffic; one access in ten runs under a timeout
    of 0-2 cycles, which a live slave can miss."""
    rng = random.Random(f"bus-differential-{spec.name}")
    ops = _random_ops(spec, rng, 300)
    timeouts = [rng.randint(0, 2) if rng.random() < 0.1 else 64
                for _ in ops]
    twins = _twins(spec)
    _run_both(twins, spec.name, ops, timeouts)
    stats = twins[0].instances[spec.name].bus.stats
    assert stats.reads > 50 and stats.writes > 50


def test_every_bus_error_matches_handshake():
    """A never-reset slave never raises READY (address phase timeouts);
    a slave held in reset accepts addresses but never responds (no
    write response, no read data). All four BusError texts must come
    out of both paths identically."""
    spec = catalog.TIMER
    ops = [("read", 0, 0), ("write", 4, 7), ("step", 0, 2)] * 3
    errors = _run_both(_twins(spec, reset=False), spec.name, ops,
                       timeouts=[3] * len(ops))
    held = _twins(spec, reset=False)
    for target in held:
        target.instances[spec.name].sim.poke("rst", 1)
    errors |= _run_both(held, spec.name, ops, timeouts=[3] * len(ops))
    assert errors == {f"BusError: {text.format(offset)}"
                      for text, offset in ((BUS_ERRORS[1], 4),
                                           (BUS_ERRORS[2], 4),
                                           (BUS_ERRORS[3], 0),
                                           (BUS_ERRORS[4], 0))}


STAGGERED = r"""
module staggered (
    input wire clk, input wire rst,
    input wire s_axi_awvalid, output reg s_axi_awready,
    input wire [7:0] s_axi_awaddr,
    input wire s_axi_wvalid, output reg s_axi_wready,
    input wire [31:0] s_axi_wdata,
    output reg s_axi_bvalid, input wire s_axi_bready,
    input wire s_axi_arvalid, output reg s_axi_arready,
    input wire [7:0] s_axi_araddr,
    output reg s_axi_rvalid, input wire s_axi_rready,
    output reg [31:0] s_axi_rdata
);
    reg [31:0] regs [0:3];
    reg [7:0] awaddr_q;
    reg [7:0] araddr_q;
    reg [2:0] w_wait;
    reg [2:0] r_wait;
    reg [7:0] accepts;
    reg b_pend;
    wire aw_hs;
    wire ar_hs;
    assign aw_hs = s_axi_awvalid && s_axi_awready;
    assign ar_hs = s_axi_arvalid && s_axi_arready;
    always @(*) s_axi_wready = (w_wait == 1);
    always @(posedge clk) begin
        if (rst) begin
            s_axi_awready <= 1; s_axi_arready <= 1;
            s_axi_bvalid <= 0; s_axi_rvalid <= 0; b_pend <= 0;
            w_wait <= 0; r_wait <= 0; accepts <= 0;
        end else begin
            if (aw_hs) begin
                awaddr_q <= s_axi_awaddr;
                w_wait <= s_axi_awaddr[3:2] + 1;
                accepts <= accepts + 1;
            end else if (w_wait != 0) begin
                w_wait <= w_wait - 1;
            end
            b_pend <= s_axi_wvalid && s_axi_wready;
            if (s_axi_wvalid && s_axi_wready)
                regs[awaddr_q[3:2]] <= s_axi_wdata;
            if (b_pend) s_axi_bvalid <= 1;
            if (s_axi_bvalid && s_axi_bready) s_axi_bvalid <= 0;
            if (ar_hs) begin
                araddr_q <= s_axi_araddr;
                r_wait <= s_axi_araddr[3:2] + 1;
                accepts <= accepts + 1;
            end else if (r_wait != 0) begin
                r_wait <= r_wait - 1;
                if (r_wait == 1) begin
                    s_axi_rvalid <= 1;
                    s_axi_rdata <= regs[araddr_q[3:2]] ^ accepts;
                end
            end
            if (s_axi_rvalid && s_axi_rready) s_axi_rvalid <= 0;
        end
    end
endmodule
"""


def test_staggered_slave_matches_handshake():
    design = elaborate(STAGGERED, "staggered")
    masters = []
    for _ in range(2):
        sim = CompiledSimulation(design, opt=True)
        sim.poke("rst", 1)
        sim.step(2)
        sim.poke("rst", 0)
        masters.append(Axi4LiteMaster(sim))
    entry, reference = masters
    assert entry._entry is not None
    reference.read = reference.handshake_read
    reference.write = reference.handshake_write
    rng = random.Random("bus-differential-staggered")
    errors = set()
    for i in range(600):
        timeout = rng.choice([1, 2, 3, 64, 64, 64])
        addr = 4 * rng.randrange(4)
        value = rng.getrandbits(32)
        write = rng.random() < 0.5
        results = []
        for master in masters:
            master.timeout = timeout
            try:
                results.append(master.write(addr, value) if write
                               else master.read(addr))
            except BusError as exc:
                results.append(f"BusError: {exc}")
        assert results[0] == results[1], i
        if isinstance(results[0], str):
            errors.add(results[0].split(": ", 2)[2])
        states = [(m.stats, dict(m.sim.values), m.sim.memories,
                   m.sim.save_state()) for m in masters]
        assert states[0] == states[1], i
    assert entry.sim.peek("accepts") > 0
    assert errors == {"address/data phase timeout", "no write response",
                      "no read data"}
