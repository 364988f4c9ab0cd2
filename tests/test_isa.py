"""ISA tests: encoding round trips, assembler, disassembler, concrete CPU."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AssemblerError, FirmwarePanic
from repro.isa import Cpu, assemble, disassemble_word
from repro.isa import encoding as enc


def _run(src, **kw):
    cpu = Cpu(assemble(src), **kw)
    return cpu.run(max_steps=100_000), cpu


class TestEncoding:
    @given(op=st.sampled_from(sorted(enc.R_TYPE)),
           rd=st.integers(0, 15), rs1=st.integers(0, 15),
           rs2=st.integers(0, 15))
    def test_r_type_roundtrip(self, op, rd, rs1, rs2):
        word = enc.encode_r(op, rd, rs1, rs2)
        instr = enc.decode(word)
        assert (instr.opcode, instr.rd, instr.rs1, instr.rs2) == \
            (op, rd, rs1, rs2)

    @given(op=st.sampled_from(sorted(enc.I_ALU | enc.LOADS | enc.STORES)),
           rd=st.integers(0, 15), rs1=st.integers(0, 15),
           imm=st.integers(-(1 << 17), (1 << 17) - 1))
    def test_i_type_roundtrip(self, op, rd, rs1, imm):
        word = enc.encode_i(op, rd, rs1, imm)
        instr = enc.decode(word)
        assert (instr.opcode, instr.rd, instr.rs1, instr.imm) == \
            (op, rd, rs1, imm)

    @given(rd=st.integers(0, 15),
           imm=st.integers(-(1 << 21), (1 << 21) - 1))
    def test_j_type_roundtrip(self, rd, imm):
        instr = enc.decode(enc.encode_j(enc.JAL, rd, imm))
        assert (instr.opcode, instr.rd, instr.imm) == (enc.JAL, rd, imm)

    def test_imm_overflow_rejected(self):
        with pytest.raises(AssemblerError):
            enc.encode_i(enc.ADDI, 0, 0, 1 << 17)
        with pytest.raises(AssemblerError):
            enc.encode_r(enc.ADD, 16, 0, 0)


class TestAssembler:
    def test_labels_and_branches(self):
        exit_, _ = _run("""
        start:
            movi r1, 5
            movi r2, 0
        loop:
            add r2, r2, r1
            dec r1
            bne r1, r0, loop
            halt r2
        """)
        assert exit_.reason == "halt" and exit_.code == 15

    def test_equ_and_expressions(self):
        exit_, _ = _run("""
        .equ BASE, 0x100
        .equ SIZE, 4 * 8
        start:
            movi r1, BASE + SIZE - 2
            halt r1
        """)
        assert exit_.code == 0x11E

    def test_word_and_data_access(self):
        exit_, _ = _run("""
        start:
            movi r1, table
            lw r2, 4(r1)
            halt r2
        .align 4
        table:
            .word 0x11, 0x22, 0x33
        """)
        assert exit_.code == 0x22

    def test_asciz(self):
        exit_, cpu = _run("""
        start:
            movi r1, msg
            lbu r2, 0(r1)
            lbu r3, 4(r1)
            add r2, r2, r3
            halt r2
        msg:
            .asciz "hello"
        """)
        assert exit_.code == ord("h") + ord("o")

    def test_call_ret(self):
        exit_, _ = _run("""
        start:
            movi r1, 7
            call double
            halt r1
        double:
            add r1, r1, r1
            ret
        """)
        assert exit_.code == 14

    def test_push_pop(self):
        exit_, _ = _run("""
        start:
            movi r1, 0xAA
            push r1
            movi r1, 0
            pop r2
            halt r2
        """)
        assert exit_.code == 0xAA

    def test_movi_32bit(self):
        exit_, _ = _run("""
        start:
            movi r1, 0xDEADBEEF
            movi r2, 0xBEEF
            xor r1, r1, r2
            srli r1, r1, 16
            halt r1
        """)
        assert exit_.code == 0xDEAD

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("a:\n nop\na:\n nop")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("start: j nowhere_at_all")

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("start: frobnicate r1")

    def test_bad_register_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("start: mov r16, r0")

    @pytest.mark.parametrize("line", [".equ X, 010", ".word 08",
                                      "addi r1, r0, 010", "lw r1, 08(r2)"])
    def test_malformed_literal_names_its_line(self, line):
        with pytest.raises(AssemblerError, match="bad number") as info:
            assemble(f"start:\n    nop\n    {line}\n")
        assert info.value.line == 3

    @pytest.mark.parametrize("line, message", [
        (".align 0", "not positive"), (".align -4", "not positive"),
        (".space -8", "negative"), ('.asciz "\\x"', "bad string"),
        ('.asciz "\\u20ac"', "bad string")],
        ids=["align-0", "align-negative", "space-negative",
             "asciz-truncated-escape", "asciz-escape-past-a-byte"])
    def test_bad_directive_names_its_line(self, line, message):
        with pytest.raises(AssemblerError, match=message) as info:
            assemble(f"start: nop\n{line}\n")
        assert info.value.line == 2

    def test_literal_non_ascii_string_assembles_as_utf8(self):
        prog = assemble('start: nop\nmsg: .asciz "\u20ac"\n')
        assert prog.words[4] == int.from_bytes("\u20ac".encode() + b"\0",
                                               "little")

    def test_source_map_lines(self):
        prog = assemble("start:\n    nop\n    nop\n")
        assert set(prog.source_map.values()) == {2, 3}


class TestCpuSemantics:
    def test_signed_unsigned_comparisons(self):
        exit_, _ = _run("""
        start:
            movi r1, 0xFFFFFFFF     ; -1 signed, max unsigned
            movi r2, 1
            slt r3, r1, r2          ; signed: -1 < 1 -> 1
            sltu r4, r1, r2         ; unsigned: max < 1 -> 0
            slli r3, r3, 1
            or r3, r3, r4
            halt r3
        """)
        assert exit_.code == 0b10

    def test_sra_vs_srl(self):
        exit_, _ = _run("""
        start:
            movi r1, 0x80000000
            srai r2, r1, 31          ; -> all ones
            srli r3, r1, 31          ; -> 1
            sub r4, r2, r3           ; all-ones - 1 = 0xFFFFFFFE
            halt r4
        """)
        assert exit_.code == 0xFFFFFFFE

    def test_divu_remu_by_zero(self):
        exit_, _ = _run("""
        start:
            movi r1, 42
            movi r2, 0
            divu r3, r1, r2
            remu r4, r1, r2
            sub r5, r4, r1          ; remainder == dividend
            add r5, r5, r3          ; + all-ones
            halt r5
        """)
        assert exit_.code == 0xFFFFFFFF

    def test_byte_store_load_sign(self):
        exit_, _ = _run("""
        start:
            movi r1, 0x900
            movi r2, 0x80
            sb r2, 0(r1)
            lb r3, 0(r1)            ; sign-extended
            lbu r4, 0(r1)           ; zero-extended
            sub r5, r4, r3          ; 0x80 - 0xFFFFFF80
            halt r5
        """)
        assert exit_.code == (0x80 - 0xFFFFFF80) & 0xFFFFFFFF

    def test_oob_load_panics(self):
        with pytest.raises(FirmwarePanic):
            _run("""
            start:
                movi r1, 0x3FFFFFFC
                lw r2, 0(r1)
                halt r0
            """)

    def test_mmio_handlers_called(self):
        log = []
        def mmio_read(addr):
            log.append(("r", addr))
            return 0x1234
        def mmio_write(addr, value):
            log.append(("w", addr, value))
        exit_, _ = _run("""
        start:
            movi r1, 0x40000000
            movi r2, 0x77
            sw r2, 8(r1)
            lw r3, 8(r1)
            halt r3
        """, mmio_read=mmio_read, mmio_write=mmio_write)
        assert exit_.code == 0x1234
        assert log == [("w", 0x40000008, 0x77), ("r", 0x40000008)]

    def test_assume_assert_concrete(self):
        with pytest.raises(FirmwarePanic):
            _run("start:\n movi r1, 0\n assert r1\n halt r0")
        exit_, _ = _run("start:\n movi r1, 1\n assert r1\n halt r0")
        assert exit_.reason == "halt"

    def test_trace_marks_recorded(self):
        _, cpu = _run("""
        start:
            movi r1, 3
            trace r1
            movi r1, 9
            trace r1
            halt r0
        """)
        assert cpu.trace_marks == [3, 9]

    def test_step_limit(self):
        exit_, _ = _run("start: j start")
        assert exit_.reason == "limit"

    def test_iret_outside_irq_panics(self):
        with pytest.raises(FirmwarePanic):
            _run("start: iret")


class TestDisassembler:
    @pytest.mark.parametrize("src,expected", [
        ("add r1, r2, r3", "add r1, r2, r3"),
        ("addi r1, r2, -5", "addi r1, r2, -5"),
        ("lw r4, 8(r5)", "lw r4, 8(r5)"),
        ("sw r4, -4(sp)", "sw r4, -4(r13)"),
        ("halt r2", "halt r2"),
        ("iret", "iret"),
        ("ei", "ei"),
        ("sym r3", "sym r3"),
    ])
    def test_simple_instructions(self, src, expected):
        prog = assemble(f"start: {src}\n")
        word = prog.words[0]
        assert disassemble_word(word, 0) == expected

    def test_branch_target_resolved(self):
        prog = assemble("start: beq r1, r2, start\n")
        assert "0x0" in disassemble_word(prog.words[0], 0)

    def test_ret_recognised(self):
        prog = assemble("start: ret\n")
        assert disassemble_word(prog.words[0], 0) == "ret"
