"""Coverage for the remaining public API surface."""

import pytest

from repro.analysis import (coverage_report, format_si_time,
                            source_line_coverage, uncovered_listing)
from repro.cli import main
from repro.isa import assemble
from repro.peripherals import gpio


class TestCoverageHelpers:
    @pytest.fixture
    def partial_run(self):
        program = assemble("""
        start:
            movi r1, 1
            beq r1, r0, never
            halt r1
        never:
            movi r2, 99
            halt r2
        """)
        # Execute concretely, collecting pcs.
        from repro.isa import Cpu
        cpu = Cpu(program)
        covered = set()
        while True:
            covered.add(cpu.pc)
            if cpu.step() is not None:
                break
        return program, covered

    def test_uncovered_listing_shows_dead_branch(self, partial_run):
        program, covered = partial_run
        listing = uncovered_listing(program, covered)
        assert listing
        assert any("99" in line or "halt" in line for line in listing)

    def test_source_line_coverage(self, partial_run):
        program, covered = partial_run
        lines = source_line_coverage(program, covered)
        assert any(lines.values())        # something ran
        assert not all(lines.values())    # the dead branch did not

    def test_coverage_percent_partial(self, partial_run):
        program, covered = partial_run
        report = coverage_report(program, covered)
        assert 0 < report.percent < 100

    def test_format_si_time_scales(self):
        assert format_si_time(0) == "0"
        assert "ns" in format_si_time(5e-9)
        assert "us" in format_si_time(5e-6)
        assert "ms" in format_si_time(5e-3)
        assert format_si_time(2.5).endswith(" s")


class TestCliScoped:
    def test_instrument_include_scopes_chain(self, tmp_path, capsys):
        design_path = tmp_path / "two.v"
        # Two GPIO instances under a top; scope the chain to one.
        design_path.write_text(gpio.verilog() + """
module duo (
    input wire clk, input wire rst,
    input wire s_axi_awvalid, output wire s_axi_awready, input wire [7:0] s_axi_awaddr,
    input wire s_axi_wvalid, output wire s_axi_wready, input wire [31:0] s_axi_wdata,
    output wire s_axi_bvalid, input wire s_axi_bready,
    input wire s_axi_arvalid, output wire s_axi_arready, input wire [7:0] s_axi_araddr,
    output wire s_axi_rvalid, input wire s_axi_rready, output wire [31:0] s_axi_rdata,
    input wire [31:0] pins_in, output wire [31:0] pins_a, output wire [31:0] pins_b,
    output wire irq_a, output wire irq_b
);
    gpio a (.clk(clk), .rst(rst),
            .s_axi_awvalid(s_axi_awvalid), .s_axi_awready(s_axi_awready), .s_axi_awaddr(s_axi_awaddr),
            .s_axi_wvalid(s_axi_wvalid), .s_axi_wready(s_axi_wready), .s_axi_wdata(s_axi_wdata),
            .s_axi_bvalid(s_axi_bvalid), .s_axi_bready(s_axi_bready),
            .s_axi_arvalid(s_axi_arvalid), .s_axi_arready(s_axi_arready), .s_axi_araddr(s_axi_araddr),
            .s_axi_rvalid(s_axi_rvalid), .s_axi_rready(s_axi_rready), .s_axi_rdata(s_axi_rdata),
            .gpio_in(pins_in), .gpio_out(pins_a), .irq(irq_a));
    gpio b (.clk(clk), .rst(rst),
            .s_axi_awvalid(1'b0), .s_axi_awready(), .s_axi_awaddr(8'h0),
            .s_axi_wvalid(1'b0), .s_axi_wready(), .s_axi_wdata(32'h0),
            .s_axi_bvalid(), .s_axi_bready(1'b0),
            .s_axi_arvalid(1'b0), .s_axi_arready(), .s_axi_araddr(8'h0),
            .s_axi_rvalid(), .s_axi_rready(1'b0), .s_axi_rdata(),
            .gpio_in(pins_in), .gpio_out(pins_b), .irq(irq_b));
endmodule
""")
        out_path = tmp_path / "scoped.v"
        code = main(["instrument", str(design_path), "--top", "duo",
                     "--include", "a", "-o", str(out_path)])
        assert code == 0
        err = capsys.readouterr().err
        # Chain covers only instance `a`: half of the duo's state.
        import re
        bits = int(re.search(r"chain length: (\d+) bits", err).group(1))
        from repro.hdl import elaborate
        single = elaborate(gpio.verilog(), "gpio").state_bit_count
        assert bits == single
