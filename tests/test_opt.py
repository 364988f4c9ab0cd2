"""Unit tests for the bit-level dataflow framework (repro.opt).

The differential gate (``tests/test_opt_differential.py``) proves the
optimizer preserves semantics end to end; these tests pin down the
individual analyses — the lattice algebra, forward constant
propagation, backward liveness, wire fusion, and the exact
case-coverage check the latch rule depends on.
"""

import random

import pytest

from repro.hdl import elaborate, ir
from repro.lint.analysis import _labels_cover
from repro.opt import (BitsVal, constant_map, eval_expr,
                       inline_single_use_wires, join, live_masks, of_const,
                       optimize, run_opt, top)
from repro.sim.compiler import design_fingerprint


def _lookup(env):
    return lambda name: env[name]


class TestLattice:
    def test_const_roundtrip(self):
        v = of_const(0xAB, 8)
        assert v.is_const and v.value == 0xAB and v.known == 0xFF

    def test_top_knows_nothing(self):
        t = top(8)
        assert t.known == 0 and not t.is_const

    def test_join_keeps_agreeing_bits(self):
        a = of_const(0b1100, 4)
        b = of_const(0b1010, 4)
        j = join(a, b)
        # Bits 3 (both 1) and 0 (both 0) survive; 2 and 1 disagree.
        assert j.known == 0b1001
        assert j.value == 0b1000

    def test_join_with_top_is_top(self):
        assert join(of_const(5, 4), top(4)).known == 0

    def test_and_known_zeros_propagate(self):
        # x & 0xF0: low nibble is known 0 whatever x is.
        x = ir.Ref(ir.Net("x", 8), width=8)
        expr = ir.Binary("&", x, ir.const(0xF0, 8), width=8)
        bits = eval_expr(expr, _lookup({"x": top(8)}))
        assert bits.known & 0x0F == 0x0F
        assert bits.value & 0x0F == 0

    def test_or_known_ones_propagate(self):
        x = ir.Ref(ir.Net("x", 8), width=8)
        expr = ir.Binary("|", x, ir.const(0x81, 8), width=8)
        bits = eval_expr(expr, _lookup({"x": top(8)}))
        assert bits.known & 0x81 == 0x81
        assert bits.value & 0x81 == 0x81

    def test_add_trailing_known_run(self):
        # x + 4 with x's low two bits known 0: the low two result bits
        # are known (no carry can reach below the first unknown bit).
        x = BitsVal(8, known=0x03, value=0x00)
        xn = ir.Ref(ir.Net("x", 8), width=8)
        expr = ir.Binary("+", xn, ir.const(4, 8), width=8)
        bits = eval_expr(expr, _lookup({"x": x}))
        assert bits.known & 0x03 == 0x03
        assert bits.value & 0x03 == 0

    def test_eq_provably_unequal(self):
        # Known bits disagree -> comparison folds to 0.
        a = BitsVal(4, known=0b0001, value=0b0001)
        an = ir.Ref(ir.Net("a", 4), width=4)
        expr = ir.Binary("==", an, ir.const(0b0000, 4), width=1)
        bits = eval_expr(expr, _lookup({"a": a}))
        assert bits.is_const and bits.value == 0

    def test_division_by_known_zero(self):
        # Interpreter: x / 0 == all-ones mask.  The lattice folds a
        # division only when both operands are fully known.
        expr = ir.Binary("/", ir.const(5, 8), ir.const(0, 8), width=8)
        bits = eval_expr(expr, _lookup({}))
        assert bits.is_const and bits.value == 0xFF
        # An unknown dividend must stay unknown, never a wrong fold.
        xn = ir.Ref(ir.Net("x", 8), width=8)
        unk = eval_expr(ir.Binary("/", xn, ir.const(0, 8), width=8),
                        _lookup({"x": top(8)}))
        assert unk.known == 0

    def test_shift_by_large_constant(self):
        xn = ir.Ref(ir.Net("x", 8), width=8)
        expr = ir.Binary("<<", xn, ir.const(70, 8), width=8)
        bits = eval_expr(expr, _lookup({"x": top(8)}))
        assert bits.is_const and bits.value == 0

    def test_zext_makes_high_bits_known_zero(self):
        v = top(4).zext(8)
        assert v.known == 0xF0 and v.value == 0

    @pytest.mark.parametrize("op", ["+", "-", "*", "&", "|", "^", "<<",
                                    ">>", "==", "!=", "<", "<=", ">", ">="])
    def test_soundness_against_concrete(self, op):
        """Whatever the lattice claims as known must match the concrete
        evaluation for every concretization of the unknown bits."""
        rng = random.Random(hash(op) & 0xFFFF)
        width = 4
        out_width = 1 if op in ("==", "!=", "<", "<=", ">", ">=") else width
        an = ir.Ref(ir.Net("a", width), width=width)
        expr = ir.Binary(op, an, ir.const(rng.randrange(16), width),
                         width=out_width)
        for _ in range(20):
            known = rng.randrange(16)
            value = rng.randrange(16) & known
            bits = eval_expr(expr, _lookup({"a": BitsVal(width, known,
                                                         value)}))
            b = expr.right.value
            for a in range(16):
                if (a & known) != value:
                    continue  # not a concretization of the lattice value
                mask = (1 << out_width) - 1
                if op == "+":
                    concrete = (a + b) & mask
                elif op == "-":
                    concrete = (a - b) & mask
                elif op == "*":
                    concrete = (a * b) & mask
                elif op == "&":
                    concrete = a & b
                elif op == "|":
                    concrete = a | b
                elif op == "^":
                    concrete = a ^ b
                elif op == "<<":
                    concrete = (a << b) & mask if b < 64 else 0
                elif op == ">>":
                    concrete = a >> b if b < 64 else 0
                else:
                    concrete = int(eval(f"{a} {op} {b}"))  # noqa: S307
                assert concrete & bits.known == bits.value, (
                    f"{op}: a={a} b={b} lattice={bits}")


SIMPLE = """
module m (input wire clk, input wire a, output wire [7:0] y);
    reg [7:0] q;
    wire [7:0] k;
    assign k = 8'h0F & 8'hF0;
    always @(posedge clk) q <= q + {7'b0, a};
    assign y = q | k;
endmodule
"""


class TestConstantMap:
    def test_folds_constant_wire(self):
        env = constant_map(elaborate(SIMPLE, "m"))
        assert env["k"].is_const and env["k"].value == 0

    def test_inputs_are_unknown(self):
        env = constant_map(elaborate(SIMPLE, "m"))
        assert env["a"].known == 0

    def test_state_feedback_reaches_fixpoint(self):
        # q increments freely: must settle to unknown, not oscillate.
        env = constant_map(elaborate(SIMPLE, "m"))
        assert env["q"].known != 0xFF


DEAD = """
module m (input wire clk, input wire a, output wire y);
    reg q;
    reg [7:0] hidden;
    always @(posedge clk) begin
        q <= a;
        hidden <= hidden + 1;
    end
    assign y = q;
endmodule
"""


class TestLiveness:
    def test_unobservable_state_is_dead(self):
        live = live_masks(elaborate(DEAD, "m"), include_state_sinks=False)
        assert live.net_masks.get("hidden", 0) == 0
        assert live.net_masks["q"] == 1

    def test_state_sinks_keep_state_live(self):
        live = live_masks(elaborate(DEAD, "m"), include_state_sinks=True)
        assert live.net_masks["hidden"] == 0xFF

    def test_extra_live_seeds_survive(self):
        live = live_masks(elaborate(DEAD, "m"),
                          include_state_sinks=False,
                          extra_live=("hidden",))
        assert live.net_masks["hidden"] == 0xFF


CONE = """
module m (input wire clk, input wire [3:0] a, input wire [3:0] b,
          output wire [3:0] y, output wire z);
    reg [3:0] q;
    wire [3:0] s;
    wire [3:0] t;
    assign s = a ^ b;
    assign t = s & q;
    assign z = a[0];
    always @(posedge clk) q <= t;
    assign y = t;
endmodule
"""


class TestCones:
    def test_single_use_wire_fusion(self):
        design = elaborate(CONE, "m")
        protected = {n.name for n in design.inputs}
        protected |= {n.name for n in design.outputs}
        protected |= {n.name for n in design.state_nets}
        fused = inline_single_use_wires(design, protected)
        assert "s" in fused
        assert "s" not in design.nets


class TestTransform:
    def test_optimize_reports_and_preserves_state(self):
        design = elaborate(SIMPLE, "m")
        result = run_opt(design)
        assert result.report.total > 0
        assert [n.name for n in result.design.state_nets] == \
            [n.name for n in design.state_nets]

    def test_optimize_does_not_mutate_input(self):
        design = elaborate(SIMPLE, "m")
        nets_before = set(design.nets)
        fingerprint = design_fingerprint(design)
        optimize(design)
        assert set(design.nets) == nets_before
        assert design_fingerprint(design) == fingerprint

    def test_report_summary_mentions_folds(self):
        report = run_opt(elaborate(SIMPLE, "m")).report
        assert report.summary()


class TestLabelsCover:
    def test_brute_force_equivalence(self):
        """The set-cover check agrees with explicit enumeration for every
        random label set over a 4-bit space."""
        rng = random.Random(99)
        width, space = 4, 16
        for _ in range(300):
            labels = []
            for _ in range(rng.randint(1, 5)):
                care = rng.randrange(space)
                labels.append((rng.randrange(space) & care, care))
            covered = all(
                any((v & care) == match for match, care in labels)
                for v in range(space))
            assert _labels_cover(labels) == covered, labels

    def test_full_binary_cover(self):
        labels = [(v, 0b11) for v in range(4)]
        assert _labels_cover(labels)

    def test_wildcard_covers(self):
        assert _labels_cover([(0, 0)])

    def test_wide_case_is_cheap(self):
        """The pre-fix exponential enumeration would hang here: 2^64
        values, covered by two complementary casez cubes."""
        labels = [(0, 1), (1, 1)]  # bit0==0 or bit0==1 over 64 bits
        assert _labels_cover(labels)
        assert not _labels_cover([(0, 1)])

    def test_interned_consts_share_nodes(self):
        assert ir.const(5, 8) is ir.const(5, 8)
        assert ir.const(5, 8) is not ir.const(5, 9)
        assert ir.const(0x1FF, 8).value == 0xFF  # masked to width


class TestCaseFullWideSubject(object):
    def test_wide_full_case_detected(self):
        # 16-bit subject fully covered by casez cubes — enumeration
        # (65536 values) used to be the cost; the cover check is linear.
        src = """
module m (input wire clk, input wire [15:0] s, output wire y);
    reg q;
    reg v;
    always @(*) begin
        casez (s)
            16'b0???????????????: v = 1'b0;
            16'b1???????????????: v = 1'b1;
        endcase
    end
    always @(posedge clk) q <= v;
    assign y = q;
endmodule
"""
        from repro.lint import lint_source
        report = lint_source(src, "m")
        assert not any(d.rule == "latch" for d in report.diagnostics)
