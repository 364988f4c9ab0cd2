"""SoC composition: an AXI4-Lite interconnect in RTL.

The paper evaluates "a synthetic design composed of open-source hardware
peripherals" and stresses that HardSnap "can be either used for testing
the whole design or only a subsystem" (§I). This module builds that
whole design *in RTL*: a generated top module with

* one AXI4-Lite slave port (driven by the VM's memory forwarding),
* an address decoder giving each peripheral a 64 KiB window
  (``slave i`` at offset ``i * 0x10000``; address bits [19:16] select),
* per-channel response routing with latched write/read selects (the
  master may be waiting on slave A's response while addressing B next),
* an aggregated ``irq`` output (OR of all peripheral lines) plus the
  per-peripheral ``irqs`` vector.

Because the result is a single elaborated design, a single scan chain
threads *every* peripheral — and the instrumentation's ``include``
filter carves out subsystems (see ``tests/test_soc.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ElaborationError
from repro.hdl import elaborate
from repro.hdl.ir import Design
from repro.peripherals.catalog import PeripheralSpec

WINDOW_BITS = 16
WINDOW_SIZE = 1 << WINDOW_BITS
MAX_SLAVES = 8

#: Ports a hosted peripheral may expose beyond clk/rst/AXI; mapped to the
#: SoC top level with an instance prefix.
_EXTERNAL_PORTS: Dict[str, Sequence[Tuple[str, str, int]]] = {
    # name -> (direction, port, width)
    "gpio": (("input", "gpio_in", 32), ("output", "gpio_out", 32)),
    "uart": (("input", "rx", 1), ("output", "tx", 1)),
    "intc": (("input", "lines", 8),),
}


@dataclass
class SocInfo:
    """Metadata for a generated SoC."""

    name: str
    slaves: List[Tuple[str, PeripheralSpec, int]] = field(default_factory=list)
    #: instance name -> base offset within the SoC window
    bases: Dict[str, int] = field(default_factory=dict)

    @property
    def window_size(self) -> int:
        return WINDOW_SIZE * max(1, len(self.slaves))


def build_soc(specs: Sequence[PeripheralSpec],
              name: str = "soc") -> Tuple[str, SocInfo]:
    """Generate the Verilog for a SoC hosting *specs* behind one AXI port.

    Returns ``(verilog_text, info)``. Instance ``i`` is named ``p<i>``
    and decodes addresses ``[i * 0x10000, (i+1) * 0x10000)``.
    """
    if not specs:
        raise ElaborationError("soc needs at least one peripheral")
    if len(specs) > MAX_SLAVES:
        raise ElaborationError(f"soc supports at most {MAX_SLAVES} slaves")
    for spec in specs:
        if spec.bus != "axi":
            raise ElaborationError(
                f"soc interconnect is AXI4-Lite; {spec.name!r} is "
                f"{spec.bus}")

    info = SocInfo(name=name)
    sources: List[str] = []
    seen_modules = set()
    for i, spec in enumerate(specs):
        inst = f"p{i}"
        info.slaves.append((inst, spec, i * WINDOW_SIZE))
        info.bases[inst] = i * WINDOW_SIZE
        if spec.name not in seen_modules:
            seen_modules.add(spec.name)
            sources.append(spec.verilog())

    n = len(specs)
    sel_bits = 3  # addr[18:16] (MAX_SLAVES = 8)

    ports = [
        "input wire clk",
        "input wire rst",
        "input wire s_axi_awvalid",
        "output wire s_axi_awready",
        "input wire [19:0] s_axi_awaddr",
        "input wire s_axi_wvalid",
        "output wire s_axi_wready",
        "input wire [31:0] s_axi_wdata",
        "output wire s_axi_bvalid",
        "input wire s_axi_bready",
        "input wire s_axi_arvalid",
        "output wire s_axi_arready",
        "input wire [19:0] s_axi_araddr",
        "output wire s_axi_rvalid",
        "input wire s_axi_rready",
        "output wire [31:0] s_axi_rdata",
        "output wire irq",
        f"output wire [{max(n - 1, 0)}:0] irqs",
    ]
    body: List[str] = []
    # An on-SoC interrupt controller gets the other peripherals' irq
    # lines wired to its `lines` input in RTL (line i = slave i, the
    # intc's own position reads 0); no external pin is emitted for it.
    intc_index = next((i for i, s in enumerate(specs) if s.name == "intc"),
                      None)
    for i, spec in enumerate(specs):
        for direction, port, width in _EXTERNAL_PORTS.get(spec.name, ()):
            if spec.name == "intc" and port == "lines":
                continue  # wired internally below
            rng = f"[{width - 1}:0] " if width > 1 else ""
            ports.append(f"{direction} wire {rng}p{i}_{port}")

    body.append(f"    wire [{sel_bits - 1}:0] wsel_now;")
    body.append(f"    assign wsel_now = s_axi_awaddr[18:16];")
    body.append(f"    wire [{sel_bits - 1}:0] rsel_now;")
    body.append(f"    assign rsel_now = s_axi_araddr[18:16];")
    # Latched selects for the response phases.
    body.append(f"    reg [{sel_bits - 1}:0] wsel;")
    body.append(f"    reg [{sel_bits - 1}:0] rsel;")
    body.append("    always @(posedge clk) begin")
    body.append("        if (rst) begin")
    body.append("            wsel <= 0;")
    body.append("            rsel <= 0;")
    body.append("        end else begin")
    body.append("            if (s_axi_awvalid && s_axi_awready)")
    body.append("                wsel <= wsel_now;")
    body.append("            if (s_axi_arvalid && s_axi_arready)")
    body.append("                rsel <= rsel_now;")
    body.append("        end")
    body.append("    end")

    # Per-slave wires + instances.
    for i, spec in enumerate(specs):
        a = spec.addr_bits
        body.append(f"    wire aw{i};")
        body.append(f"    assign aw{i} = s_axi_awvalid && "
                    f"(wsel_now == {sel_bits}'d{i});")
        body.append(f"    wire ar{i};")
        body.append(f"    assign ar{i} = s_axi_arvalid && "
                    f"(rsel_now == {sel_bits}'d{i});")
        body.append(f"    wire w{i};")
        body.append(f"    assign w{i} = s_axi_wvalid && "
                    f"(wsel_now == {sel_bits}'d{i});")
        for sig in ("awready", "wready", "bvalid", "arready", "rvalid"):
            body.append(f"    wire {sig}{i};")
        body.append(f"    wire [31:0] rdata{i};")
        conns = [
            ".clk(clk)", ".rst(rst)",
            f".s_axi_awvalid(aw{i})", f".s_axi_awready(awready{i})",
            f".s_axi_awaddr(s_axi_awaddr[{a - 1}:0])",
            f".s_axi_wvalid(w{i})", f".s_axi_wready(wready{i})",
            ".s_axi_wdata(s_axi_wdata)",
            f".s_axi_bvalid(bvalid{i})",
            f".s_axi_bready(s_axi_bready && (wsel == {sel_bits}'d{i}))",
            f".s_axi_arvalid(ar{i})", f".s_axi_arready(arready{i})",
            f".s_axi_araddr(s_axi_araddr[{a - 1}:0])",
            f".s_axi_rvalid(rvalid{i})",
            f".s_axi_rready(s_axi_rready && (rsel == {sel_bits}'d{i}))",
            f".s_axi_rdata(rdata{i})",
        ]
        if spec.has_irq:
            body.append(f"    wire irq{i};")
            conns.append(f".irq(irq{i})")
        for direction, port, width in _EXTERNAL_PORTS.get(spec.name, ()):
            if spec.name == "intc" and port == "lines":
                conns.append(".lines(intc_lines)")
            else:
                conns.append(f".{port}(p{i}_{port})")
        body.append(f"    {spec.name} p{i} (")
        body.append("        " + ",\n        ".join(conns))
        body.append("    );")

    # Default slave: addresses in windows without a peripheral get an
    # immediate OKAY-with-zero response instead of hanging the bus.
    body.append("    reg dflt_bvalid;")
    body.append("    reg dflt_rvalid;")
    body.append("    always @(posedge clk) begin")
    body.append("        if (rst) begin")
    body.append("            dflt_bvalid <= 1'b0;")
    body.append("            dflt_rvalid <= 1'b0;")
    body.append("        end else begin")
    body.append(f"            if (s_axi_awvalid && s_axi_wvalid && "
                f"(wsel_now >= {sel_bits}'d{n}) && !dflt_bvalid)")
    body.append("                dflt_bvalid <= 1'b1;")
    body.append("            if (dflt_bvalid && s_axi_bready)")
    body.append("                dflt_bvalid <= 1'b0;")
    body.append(f"            if (s_axi_arvalid && "
                f"(rsel_now >= {sel_bits}'d{n}) && !dflt_rvalid)")
    body.append("                dflt_rvalid <= 1'b1;")
    body.append("            if (dflt_rvalid && s_axi_rready)")
    body.append("                dflt_rvalid <= 1'b0;")
    body.append("        end")
    body.append("    end")

    def _mux(sel: str, fmt: str, default: str) -> str:
        expr = default
        for i in range(n - 1, -1, -1):
            expr = (f"(({sel} == {sel_bits}'d{i}) ? {fmt.format(i=i)} "
                    f": {expr})")
        return expr

    body.append("    assign s_axi_awready = "
                + _mux("wsel_now", "awready{i}", "1'b1") + ";")
    body.append("    assign s_axi_wready = "
                + _mux("wsel_now", "wready{i}", "1'b1") + ";")
    body.append("    assign s_axi_bvalid = "
                + _mux("wsel", "bvalid{i}", "dflt_bvalid") + ";")
    body.append("    assign s_axi_arready = "
                + _mux("rsel_now", "arready{i}", "1'b1") + ";")
    body.append("    assign s_axi_rvalid = "
                + _mux("rsel", "rvalid{i}", "dflt_rvalid") + ";")
    body.append("    assign s_axi_rdata = "
                + _mux("rsel", "rdata{i}", "32'h0") + ";")

    irq_terms = [f"irq{i}" if spec.has_irq else "1'b0"
                 for i, spec in enumerate(specs)]
    body.append("    assign irqs = {" + ", ".join(reversed(irq_terms))
                + "};")
    if intc_index is not None:
        # Route the other slaves' irq lines into the controller; its own
        # slot reads 0. The aggregated CPU interrupt is then the intc's.
        lines = list(irq_terms)
        lines[intc_index] = "1'b0"
        pad = ["1'b0"] * (8 - n)
        body.append("    wire [7:0] intc_lines;")
        body.append("    assign intc_lines = {"
                    + ", ".join(pad + list(reversed(lines))) + "};")
        body.append(f"    assign irq = irq{intc_index};")
    else:
        body.append("    assign irq = |irqs;")

    ports_text = ",\n    ".join(ports)
    top = (f"module {name} (\n    {ports_text}\n);\n"
           + "\n".join(body) + "\nendmodule\n")
    return "\n".join(sources) + "\n" + top, info


class SocSpec:
    """Duck-typed :class:`PeripheralSpec` for a generated SoC, so targets
    host the whole design as one instance (one scan chain)."""

    bus = "axi"
    has_irq = True

    def __init__(self, specs: Sequence[PeripheralSpec], name: str = "soc"):
        self._source, self.info = build_soc(specs, name)
        self.name = name
        self.addr_bits = 20
        self.registers: Dict[str, int] = {
            f"p{i}_{reg}": info_base + offset
            for i, (inst, spec, info_base) in enumerate(self.info.slaves)
            for reg, offset in spec.registers.items()
        }

    @property
    def window_size(self) -> int:
        return 1 << self.addr_bits

    def verilog(self) -> str:
        return self._source

    def elaborate(self) -> Design:
        return elaborate(self._source, self.name)
