"""Tests for the Verilog lexer and parser."""

import pytest

from repro.errors import LexError, ParseError
from repro.hdl import ast_nodes as A
from repro.hdl.lexer import tokenize
from repro.hdl.parser import parse


class TestLexer:
    def test_identifiers_and_keywords(self):
        toks = tokenize("module foo_1 endmodule")
        assert [t.kind for t in toks[:-1]] == ["keyword", "id", "keyword"]

    def test_sized_literals(self):
        tok = tokenize("8'hFF")[0]
        assert tok.kind == "number" and tok.value == 0xFF and tok.width == 8

    def test_binary_with_underscores(self):
        tok = tokenize("8'b1010_1010")[0]
        assert tok.value == 0xAA

    def test_unsized_decimal(self):
        tok = tokenize("1234")[0]
        assert tok.value == 1234 and tok.width is None

    def test_xz_digits_value_and_mask(self):
        tok = tokenize("4'b1?0z")[0]
        assert tok.value == 0b1000
        assert tok.xmask == 0b0101

    def test_hex_x_covers_four_bits(self):
        tok = tokenize("8'hx5")[0]
        assert tok.value == 0x05 and tok.xmask == 0xF0

    def test_comments_skipped(self):
        toks = tokenize("a // line\n /* block\nstill */ b")
        assert [t.text for t in toks if t.kind == "id"] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never ends")

    def test_directives_skipped(self):
        toks = tokenize("`timescale 1ns/1ps\nwire")
        assert toks[0].text == "wire"

    def test_operators_longest_match(self):
        toks = tokenize("a <<< b <= c == d")
        ops = [t.text for t in toks if t.kind == "op"]
        assert ops == ["<<<", "<=", "=="]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        lines = [t.line for t in toks if t.kind == "id"]
        assert lines == [1, 2, 4]

    def test_line_numbers_after_multi_line_tokens(self):
        """A newline inside a string or inside a based literal's
        whitespace moves every later token down a line."""
        toks = tokenize("\"a\nb\" x\n8'\nhFF y")
        assert [(t.kind, t.line) for t in toks] == [
            ("string", 1), ("id", 2), ("number", 3), ("id", 4), ("eof", 4)]
        with pytest.raises(LexError, match="line 2"):
            tokenize("\"a\nb\" $")

    def test_bad_character(self):
        with pytest.raises(LexError):
            tokenize("wire \\escaped")


class TestParser:
    def test_module_header_with_params(self):
        src = """
        module m #(parameter W = 8, parameter D = W * 2) (
            input wire [W-1:0] a, output reg [D-1:0] b
        );
        endmodule
        """
        mod = parse(src).module("m")
        assert [p.name for p in mod.params] == ["W", "D"]
        assert [p.name for p in mod.ports] == ["a", "b"]
        assert mod.ports[1].kind == "reg"

    def test_non_ansi_ports(self):
        src = """
        module m (a, b);
            input wire [3:0] a;
            output reg b;
        endmodule
        """
        mod = parse(src).module("m")
        assert mod.ports[0].direction == "input"
        assert mod.ports[1].direction == "output"
        assert mod.ports[1].kind == "reg"

    def test_net_declarations(self):
        src = """
        module m ();
            wire [7:0] w1, w2;
            reg r = 1'b1;
            reg [3:0] mem [0:15];
            integer i;
        endmodule
        """
        mod = parse(src).module("m")
        decls = [i for i in mod.items if isinstance(i, A.NetDecl)]
        assert len(decls) == 5
        assert decls[2].init is not None
        assert decls[3].array is not None
        assert decls[4].kind == "integer"

    def test_continuous_assign_list(self):
        src = "module m (); wire a, b; assign a = 1'b0, b = 1'b1; endmodule"
        mod = parse(src).module("m")
        assigns = [i for i in mod.items if isinstance(i, A.ContinuousAssign)]
        assert len(assigns) == 2

    def test_always_comb_star_forms(self):
        for form in ("@(*)", "@*"):
            src = f"module m (); reg a; always {form} a = 1'b0; endmodule"
            mod = parse(src).module("m")
            block = [i for i in mod.items if isinstance(i, A.AlwaysBlock)][0]
            assert block.is_combinational

    def test_always_edge_sensitivity(self):
        src = """
        module m (input wire clk, input wire rst_n);
            reg q;
            always @(posedge clk or negedge rst_n) q <= 1'b0;
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        assert block.sensitivity[0].edge == "posedge"
        assert block.sensitivity[1].edge == "negedge"
        assert block.sensitivity[1].signal == "rst_n"

    def test_if_else_chain(self):
        src = """
        module m (input wire [1:0] s);
            reg [3:0] r;
            always @(*) begin
                if (s == 2'd0) r = 4'd1;
                else if (s == 2'd1) r = 4'd2;
                else r = 4'd3;
            end
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        stmt = block.body[0]
        assert isinstance(stmt, A.If)
        assert isinstance(stmt.other[0], A.If)

    def test_case_with_multiple_labels_and_default(self):
        src = """
        module m (input wire [1:0] s);
            reg r;
            always @(*) begin
                case (s)
                    2'd0, 2'd1: r = 1'b0;
                    default: r = 1'b1;
                endcase
            end
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        case = block.body[0]
        assert isinstance(case, A.Case)
        assert len(case.items[0].labels) == 2
        assert case.items[1].labels == []

    def test_for_loop(self):
        src = """
        module m ();
            integer i;
            reg [7:0] acc;
            always @(*) begin
                acc = 0;
                for (i = 0; i < 4; i = i + 1)
                    acc = acc + i;
            end
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        assert isinstance(block.body[1], A.For)

    def test_instance_named_connections(self):
        src = """
        module m (input wire clk);
            sub #(.W(4)) u0 (.clk(clk), .q(), .d(1'b0));
        endmodule
        """
        inst = [i for i in parse(src).module("m").items
                if isinstance(i, A.Instance)][0]
        assert inst.module == "sub" and inst.name == "u0"
        assert inst.params[0][0] == "W"
        names = [c[0] for c in inst.connections]
        assert names == ["clk", "q", "d"]
        assert inst.connections[1][1] is None  # explicitly unconnected

    def test_expression_precedence(self):
        src = "module m (); wire [7:0] x; assign x = 1 + 2 * 3; endmodule"
        assign = [i for i in parse(src).module("m").items
                  if isinstance(i, A.ContinuousAssign)][0]
        assert isinstance(assign.value, A.Binary)
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_ternary_right_associative(self):
        src = ("module m (input wire a, input wire b); wire [1:0] x; "
               "assign x = a ? 1 : b ? 2 : 3; endmodule")
        assign = [i for i in parse(src).module("m").items
                  if isinstance(i, A.ContinuousAssign)][0]
        assert isinstance(assign.value.other, A.Ternary)

    def test_concat_and_replication(self):
        src = ("module m (input wire [3:0] a); wire [11:0] x; "
               "assign x = {a, {2{a}}}; endmodule")
        assign = [i for i in parse(src).module("m").items
                  if isinstance(i, A.ContinuousAssign)][0]
        assert isinstance(assign.value, A.Concat)
        assert isinstance(assign.value.parts[1], A.Repeat)

    def test_selects_chain(self):
        src = ("module m (input wire [7:0] a); wire x; "
               "assign x = a[3]; endmodule")
        assign = [i for i in parse(src).module("m").items
                  if isinstance(i, A.ContinuousAssign)][0]
        assert isinstance(assign.value, A.BitSelect)

    def test_nonblocking_vs_blocking(self):
        src = """
        module m (input wire clk);
            reg a, b;
            always @(posedge clk) begin
                a <= 1'b1;
                b = 1'b0;
            end
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        assert block.body[0].blocking is False
        assert block.body[1].blocking is True

    def test_system_tasks_ignored(self):
        src = """
        module m (input wire clk);
            reg a;
            always @(posedge clk) begin
                $display("hello %d", a);
                a <= 1'b1;
            end
        endmodule
        """
        block = [i for i in parse(src).module("m").items
                 if isinstance(i, A.AlwaysBlock)][0]
        assert len(block.body) == 1  # $display dropped

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse("module m ();\n  wire;\nendmodule")
        assert "line 2" in str(err.value)

    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("module m () wire a; endmodule")

    def test_multiple_modules(self):
        src = "module a (); endmodule module b (); endmodule"
        sf = parse(src)
        assert {m.name for m in sf.modules} == {"a", "b"}
        with pytest.raises(KeyError):
            sf.module("c")
