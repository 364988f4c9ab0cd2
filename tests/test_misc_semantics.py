"""Assorted semantic contracts: async reset approximation, VCD content
fidelity, engine over the orchestrator's active view, and a full crypto
driver running through the symbolic VM."""

import re
import struct

import pytest

from repro import HardSnapSession
from repro.core.engine import AnalysisEngine, SnapshotStrategy
from repro.firmware import TIMER_BASE
from repro.hdl import elaborate
from repro.peripherals import catalog
from repro.sim import CompiledSimulation, Interpreter, VcdWriter
from repro.solver import Solver
from repro.targets import FpgaTarget, SimulatorTarget, TargetOrchestrator
from repro.vm import MmioBridge, SymbolicExecutor, make_searcher

SHA_BASE = 0x4003_0000


class TestAsyncResetApproximation:
    ASYNC = r"""
    module m (input wire clk, input wire rst_n, output wire [3:0] q);
        reg [3:0] count;
        always @(posedge clk or negedge rst_n) begin
            if (!rst_n) count <= 0;
            else count <= count + 1;
        end
        assign q = count;
    endmodule
    """

    @pytest.mark.parametrize("backend", [Interpreter, CompiledSimulation],
                             ids=["interp", "compiled"])
    def test_reset_branch_taken_while_level_active(self, backend):
        sim = backend(elaborate(self.ASYNC, "m"))
        sim.poke("rst_n", 0)
        sim.step(3)
        assert sim.peek("q") == 0  # held in reset across edges
        sim.poke("rst_n", 1)
        sim.step(5)
        assert sim.peek("q") == 5

    def test_elaborator_records_async_reset(self):
        design = elaborate(self.ASYNC, "m")
        block = design.seq_blocks[0]
        assert block.areset is not None
        assert block.areset.name == "rst_n"
        assert block.areset_edge == "negedge"


class TestWideShifts:
    """Every backend shifts a 128-bit operand by 64 or more to 0,
    whether the amount is a constant or a net (docs/VERILOG_SUBSET.md)."""

    SHIFTS = r"""
    module m (input wire clk, input wire [127:0] d, input wire [6:0] s,
              output reg [127:0] a, output reg [127:0] b,
              output reg [127:0] c, output reg [127:0] e);
        always @(posedge clk) begin
            a <= d << 70; b <= d >> 70; c <= d << s; e <= d << 63;
        end
    endmodule
    """

    @pytest.mark.parametrize("backend, opt", [(Interpreter, None),
                                              (CompiledSimulation, False),
                                              (CompiledSimulation, True)],
                             ids=["interp", "compiled", "compiled-opt"])
    def test_shift_by_64_or_more_is_zero(self, backend, opt):
        design = elaborate(self.SHIFTS, "m")
        sim = backend(design) if opt is None else backend(design, opt=opt)
        d = (1 << 127) | (1 << 80) | 5
        sim.poke("d", d)
        sim.poke("s", 70)
        sim.step(1)
        assert [sim.peek(n) for n in "abc"] == [0, 0, 0]
        assert sim.peek("e") == (d << 63) & ((1 << 128) - 1)


class TestVcdContent:
    def test_values_parse_back(self):
        src = """
        module m (input wire clk, output wire [7:0] q);
            reg [7:0] count;
            always @(posedge clk) count <= count + 3;
            assign q = count;
        endmodule
        """
        sim = Interpreter(elaborate(src, "m"))
        writer = VcdWriter(signals=["count"])
        sim.attach_vcd(writer)
        sim.step(4)
        text = writer.getvalue()
        ident = re.search(r"\$var wire 8 (\S+) count \$end", text).group(1)
        values = re.findall(rf"b([01]+) {re.escape(ident)}", text)
        assert [int(v, 2) for v in values] == [0, 3, 6, 9, 12]

    def test_scalar_format(self):
        src = """
        module m (input wire clk, output wire t);
            reg toggle;
            always @(posedge clk) toggle <= ~toggle;
            assign t = toggle;
        endmodule
        """
        sim = Interpreter(elaborate(src, "m"))
        writer = VcdWriter(signals=["toggle"])
        sim.attach_vcd(writer)
        sim.step(2)
        text = writer.getvalue()
        ident = re.search(r"\$var wire 1 (\S+) toggle \$end", text).group(1)
        # scalar changes use the compact <value><id> form
        assert f"1{ident}" in text and f"0{ident}" in text


class TestEngineOverOrchestrator:
    def test_hardsnap_session_on_active_view(self):
        """Algorithm 1 runs over the orchestrator's active-target proxy:
        snapshot traffic goes to whichever target is live."""
        fpga = FpgaTarget(scan_mode="functional")
        sim = SimulatorTarget()
        for t in (fpga, sim):
            t.add_peripheral(catalog.TIMER, TIMER_BASE)
            t.reset()
        orch = TargetOrchestrator()
        orch.register(fpga, active=True)
        orch.register(sim)
        view = orch.active_view()

        from repro.firmware import dispatcher
        from repro.isa import assemble
        solver = Solver()
        bridge = MmioBridge(view, solver)
        program = assemble(dispatcher(3, work_cycles=6))
        executor = SymbolicExecutor(program, bridge, solver)
        engine = AnalysisEngine(executor, make_searcher("affinity"),
                                SnapshotStrategy(), view, bridge)
        report = engine.run(executor.make_initial_state(),
                            max_instructions=60_000)
        assert sorted(report.halt_codes()) == [0x100, 0x101, 0x102]
        assert fpga.snapshots_taken > 0  # active target did the work
        assert sim.snapshots_taken == 0


class TestCryptoDriverUnderVm:
    def test_sha256_driver_firmware(self):
        """Full co-testing of a real crypto driver: firmware feeds the
        padded block for 'abc' into the SHA-256 RTL core through the VM's
        MMIO forwarding and asserts the first digest word — verified
        against the FIPS value baked in at assembly time."""
        import hashlib
        digest0 = struct.unpack(
            ">I", hashlib.sha256(b"abc").digest()[:4])[0]
        block = b"abc" + b"\x80" + b"\x00" * 52 + struct.pack(">Q", 24)
        words = struct.unpack(">16I", block)
        stores = "\n".join(
            f"    movi r2, 0x{w:08x}\n    sw r2, {0x40 + 4 * i}(r1)"
            for i, w in enumerate(words))
        src = f"""
        .equ SHA, 0x{SHA_BASE:x}
        start:
            movi r1, SHA
            movi r2, 1
            sw r2, 0(r1)            ; INIT
        {stores}
            movi r2, 2
            sw r2, 0(r1)            ; NEXT
        busy:
            lw r3, 4(r1)
            andi r3, r3, 1
            bne r3, r0, busy
            lw r4, 128(r1)          ; DIGEST[0]
            movi r5, 0x{digest0:08x}
            sub r6, r4, r5
            movi r8, 1
            beq r6, r0, ok
            movi r8, 0
        ok:
            assert r8
            halt r4
        """
        session = HardSnapSession(src, [(catalog.SHA256, SHA_BASE)],
                                  scan_mode="functional")
        report = session.run(max_instructions=100_000)
        assert not report.bugs, report.bugs[0].summary() if report.bugs else ""
        assert report.halted_paths[0].halt_code == digest0
