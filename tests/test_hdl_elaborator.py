"""Tests for elaboration: parameters, widths, flattening, state inference."""

import pytest

from repro.errors import ElaborationError
from repro.hdl import elaborate
from repro.sim import Interpreter


def _sim(src: str, top: str, **params) -> Interpreter:
    return Interpreter(elaborate(src, top, params or None))


class TestParameters:
    def test_default_and_override(self):
        src = """
        module m #(parameter W = 4) (input wire clk, output wire [W-1:0] o);
            assign o = {W{1'b1}};
        endmodule
        """
        d1 = elaborate(src, "m")
        assert d1.nets["o"].width == 4
        d2 = elaborate(src, "m", {"W": 9})
        assert d2.nets["o"].width == 9

    def test_localparam_not_overridable(self):
        src = """
        module m (input wire clk, output wire [7:0] o);
            localparam V = 42;
            assign o = V;
        endmodule
        """
        d = elaborate(src, "m", {"V": 1})
        sim = Interpreter(d)
        assert sim.peek("o") == 42

    def test_body_parameter_override(self):
        src = """
        module m (input wire clk, output wire [7:0] o);
            parameter V = 7;
            assign o = V;
        endmodule
        """
        sim = Interpreter(elaborate(src, "m", {"V": 99}))
        assert sim.peek("o") == 99

    def test_param_expression(self):
        src = """
        module m #(parameter A = 3, parameter B = A * 2 + 1)
                  (input wire clk, output wire [7:0] o);
            assign o = B;
        endmodule
        """
        sim = Interpreter(elaborate(src, "m"))
        assert sim.peek("o") == 7

    def test_instance_param_propagation(self):
        src = """
        module leaf #(parameter N = 1) (input wire clk, output wire [7:0] o);
            assign o = N;
        endmodule
        module top (input wire clk, output wire [7:0] a, output wire [7:0] b);
            leaf #(.N(10)) l1 (.clk(clk), .o(a));
            leaf #(20) l2 (.clk(clk), .o(b));
        endmodule
        """
        sim = Interpreter(elaborate(src, "top"))
        assert sim.peek("a") == 10
        assert sim.peek("b") == 20


class TestWidths:
    def test_carry_out_idiom(self):
        src = """
        module m (input wire clk, input wire [7:0] a, input wire [7:0] b,
                  output wire [7:0] s, output wire c);
            assign {c, s} = a + b;
        endmodule
        """
        sim = _sim(src, "m")
        sim.poke_many({"a": 0xFF, "b": 0x02})
        assert sim.peek("s") == 0x01
        assert sim.peek("c") == 1

    def test_invert_extends_to_context(self):
        src = """
        module m (input wire clk, input wire [3:0] a, output wire [7:0] o);
            assign o = ~a;
        endmodule
        """
        sim = _sim(src, "m")
        sim.poke("a", 0b0101)
        # Verilog: a is widened to 8 bits THEN inverted -> high bits set.
        assert sim.peek("o") == 0b11111010

    def test_comparison_is_self_determined(self):
        src = """
        module m (input wire clk, input wire [3:0] a, output wire [7:0] o);
            assign o = (a == 4'd3);
        endmodule
        """
        sim = _sim(src, "m")
        sim.poke("a", 3)
        assert sim.peek("o") == 1

    def test_range_must_end_at_zero(self):
        with pytest.raises(ElaborationError):
            elaborate("module m (input wire clk); wire [7:4] x; endmodule",
                      "m")

    def test_out_of_range_select_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate("""
            module m (input wire clk, input wire [3:0] a, output wire o);
                assign o = a[4];
            endmodule
            """, "m")


class TestHierarchy:
    def test_flattened_names(self):
        src = """
        module leaf (input wire clk, output reg q);
            always @(posedge clk) q <= ~q;
        endmodule
        module top (input wire clk);
            wire w;
            leaf inner (.clk(clk), .q(w));
        endmodule
        """
        d = elaborate(src, "top")
        assert "inner.q" in d.nets

    def test_positional_connections(self):
        src = """
        module leaf (input wire clk, input wire [3:0] d, output wire [3:0] q);
            assign q = d + 1;
        endmodule
        module top (input wire clk, input wire [3:0] x, output wire [3:0] y);
            leaf u (clk, x, y);
        endmodule
        """
        sim = _sim(src, "top")
        sim.poke("x", 5)
        assert sim.peek("y") == 6

    def test_output_to_part_select(self):
        src = """
        module leaf (input wire clk, output wire [3:0] q);
            assign q = 4'hA;
        endmodule
        module top (input wire clk, output wire [7:0] o);
            leaf u (.clk(clk), .q(o[7:4]));
            assign o[3:0] = 4'h5;
        endmodule
        """
        sim = _sim(src, "top")
        assert sim.peek("o") == 0xA5

    def test_unknown_module_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate("module top (input wire clk); ghost u (.clk(clk)); "
                      "endmodule", "top")

    def test_unknown_port_rejected(self):
        src = """
        module leaf (input wire clk); endmodule
        module top (input wire clk); leaf u (.nope(clk)); endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(src, "top")

    def test_two_level_nesting(self):
        src = """
        module l0 (input wire clk, output wire o);
            assign o = 1'b1;
        endmodule
        module l1 (input wire clk, output wire o);
            l0 inner (.clk(clk), .o(o));
        endmodule
        module top (input wire clk, output wire o);
            l1 mid (.clk(clk), .o(o));
        endmodule
        """
        d = elaborate(src, "top")
        assert "mid.inner.o" in d.nets
        assert Interpreter(d).peek("o") == 1


class TestLoops:
    def test_for_unrolled(self):
        src = """
        module m (input wire clk, input wire [7:0] a, output wire [7:0] o);
            integer i;
            reg [7:0] acc;
            always @(*) begin
                acc = 0;
                for (i = 0; i < 8; i = i + 1)
                    acc = acc + a[i];
            end
            assign o = acc;
        endmodule
        """
        sim = _sim(src, "m")
        sim.poke("a", 0b1011_0110)
        assert sim.peek("o") == 5  # popcount

    def test_for_bound_must_be_constant(self):
        src = """
        module m (input wire clk, input wire [3:0] n);
            integer i;
            reg [7:0] acc;
            always @(*) begin
                acc = 0;
                for (i = 0; i < n; i = i + 1) acc = acc + 1;
            end
        endmodule
        """
        with pytest.raises(ElaborationError):
            elaborate(src, "m")


class TestStateInference:
    def test_seq_written_nets_are_state(self, rich_design):
        names = {n.name for n in rich_design.state_nets}
        assert {"acc", "wide", "wptr", "flags", "c0.q"} <= names
        # comb-only signals are not state
        assert "folded" not in names
        assert "y" not in names

    def test_memories_written_seq_are_state(self, rich_design):
        assert [m.name for m in rich_design.state_memories] == ["mem"]

    def test_state_bit_count(self):
        src = """
        module m (input wire clk);
            reg [6:0] a;
            reg b;
            reg [3:0] ram [0:9];
            always @(posedge clk) begin
                a <= a + 1; b <= ~b; ram[a[3:0]] <= a[3:0];
            end
        endmodule
        """
        d = elaborate(src, "m")
        assert d.state_bit_count == 7 + 1 + 40

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate("module m (input wire clk); wire x; wire x; endmodule",
                      "m")

    def test_undeclared_identifier_rejected(self):
        with pytest.raises(ElaborationError):
            elaborate("module m (input wire clk, output wire o); "
                      "assign o = ghost; endmodule", "m")


class TestCasez:
    def test_casez_wildcard_matching(self):
        src = """
        module m (input wire clk, input wire [3:0] s, output reg [7:0] o);
            always @(*) begin
                casez (s)
                    4'b1???: o = 8'd1;
                    4'b01??: o = 8'd2;
                    default: o = 8'd0;
                endcase
            end
        endmodule
        """
        sim = _sim(src, "m")
        for value, expected in [(0b1000, 1), (0b1111, 1), (0b0100, 2),
                                (0b0111, 2), (0b0011, 0)]:
            sim.poke("s", value)
            assert sim.peek("o") == expected, value
