"""The HS32 instruction set — the firmware substrate.

A compact 32-bit load/store ISA playing the role the ARM Cortex-M
firmware plays in Inception/HardSnap: small enough to execute both
concretely and symbolically, expressive enough for realistic drivers
(byte memory ops for buffers, interrupts, a link register for calls).

Formats (32-bit fixed width, opcode in bits [31:26]):

* **R**: ``op rd(4) rs1(4) rs2(4) pad(14)`` — register ALU
* **I**: ``op rd(4) rs1(4) imm18`` — immediates, loads (``rd <- [rs1+imm]``)
* **S**: ``op rv(4) rb(4) imm18`` — stores (``[rb+imm] <- rv``)
* **B**: ``op ra(4) rb(4) imm18`` — branches (PC-relative byte offset)
* **J**: ``op rd(4) imm22`` — jump-and-link

16 general registers; by convention ``r13`` is the stack pointer (``sp``)
and ``r14`` the link register (``lr``). ``r0`` is an ordinary register
(no hardwired zero); the assembler initialises it to 0 at reset.

The ``HS`` opcode hosts the testing intrinsics (KLEE-style): make a
register symbolic, assume/assert, interrupt control, coverage marks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import AssemblerError

NUM_REGS = 16
REG_SP = 13
REG_LR = 14

# Opcodes ------------------------------------------------------------------

# R-type ALU
ADD, SUB, AND, OR, XOR = 0x01, 0x02, 0x03, 0x04, 0x05
SLL, SRL, SRA = 0x06, 0x07, 0x08
MUL, DIVU, REMU = 0x09, 0x0A, 0x0B
SLT, SLTU = 0x0C, 0x0D

# I-type ALU
ADDI, ANDI, ORI, XORI = 0x10, 0x11, 0x12, 0x13
SLLI, SRLI, SRAI = 0x14, 0x15, 0x16
LUI = 0x17

# Memory
LW, LB, LBU = 0x18, 0x19, 0x1A
SW, SB = 0x1C, 0x1D

# Branches (B-type)
BEQ, BNE, BLT, BGE, BLTU, BGEU = 0x20, 0x21, 0x22, 0x23, 0x24, 0x25

# Jumps
JAL, JALR = 0x28, 0x29

# System
HALT, HS, IRET = 0x30, 0x31, 0x32

#: HS intrinsic function codes (in the low bits of imm18).
HS_SYMBOLIC = 1    # rd <- fresh 32-bit symbolic value
HS_ASSUME = 2      # assume rs1 != 0
HS_ASSERT = 3      # assert rs1 != 0 (detector fires when falsifiable)
HS_SET_IVT = 4     # interrupt handler address <- rs1
HS_EI = 5          # enable interrupts
HS_DI = 6          # disable interrupts
HS_TRACE = 7       # emit trace/coverage mark with id rs1
HS_SYMBOLIC_BYTES = 8  # make rs1-pointed buffer of rd bytes symbolic

R_TYPE = frozenset({ADD, SUB, AND, OR, XOR, SLL, SRL, SRA, MUL, DIVU, REMU,
                    SLT, SLTU})
I_ALU = frozenset({ADDI, ANDI, ORI, XORI, SLLI, SRLI, SRAI, LUI})
LOADS = frozenset({LW, LB, LBU})
STORES = frozenset({SW, SB})
BRANCHES = frozenset({BEQ, BNE, BLT, BGE, BLTU, BGEU})

OPCODE_NAMES: Dict[int, str] = {
    ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
    SLL: "sll", SRL: "srl", SRA: "sra", MUL: "mul", DIVU: "divu",
    REMU: "remu", SLT: "slt", SLTU: "sltu",
    ADDI: "addi", ANDI: "andi", ORI: "ori", XORI: "xori",
    SLLI: "slli", SRLI: "srli", SRAI: "srai", LUI: "lui",
    LW: "lw", LB: "lb", LBU: "lbu", SW: "sw", SB: "sb",
    BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge",
    BLTU: "bltu", BGEU: "bgeu",
    JAL: "jal", JALR: "jalr",
    HALT: "halt", HS: "hs", IRET: "iret",
}

_IMM18_MIN, _IMM18_MAX = -(1 << 17), (1 << 17) - 1
_IMM22_MIN, _IMM22_MAX = -(1 << 21), (1 << 21) - 1


@dataclass(frozen=True)
class Instruction:
    """A decoded instruction."""

    opcode: int
    rd: int = 0     # also rv (stores) / ra (branches)
    rs1: int = 0    # also rb (stores, branches)
    rs2: int = 0
    imm: int = 0    # sign-extended

    @property
    def name(self) -> str:
        return OPCODE_NAMES.get(self.opcode, f"op{self.opcode:#x}")


def _check_reg(reg: int) -> int:
    if not (0 <= reg < NUM_REGS):
        raise AssemblerError(f"register index {reg} out of range")
    return reg


def encode_r(opcode: int, rd: int, rs1: int, rs2: int) -> int:
    return ((opcode & 0x3F) << 26 | _check_reg(rd) << 22
            | _check_reg(rs1) << 18 | _check_reg(rs2) << 14)


def encode_i(opcode: int, rd: int, rs1: int, imm: int) -> int:
    if not (_IMM18_MIN <= imm <= _IMM18_MAX):
        raise AssemblerError(f"immediate {imm} out of 18-bit signed range")
    return ((opcode & 0x3F) << 26 | _check_reg(rd) << 22
            | _check_reg(rs1) << 18 | (imm & 0x3FFFF))


def encode_j(opcode: int, rd: int, imm: int) -> int:
    if not (_IMM22_MIN <= imm <= _IMM22_MAX):
        raise AssemblerError(f"jump offset {imm} out of 22-bit signed range")
    return ((opcode & 0x3F) << 26 | _check_reg(rd) << 22 | (imm & 0x3FFFFF))


def decode(word: int) -> Instruction:
    """Decode a 32-bit instruction word."""
    opcode = (word >> 26) & 0x3F
    rd = (word >> 22) & 0xF
    rs1 = (word >> 18) & 0xF
    rs2 = (word >> 14) & 0xF
    if opcode in R_TYPE:
        return Instruction(opcode, rd, rs1, rs2)
    if opcode == JAL:
        imm = word & 0x3FFFFF
        if imm & 0x200000:
            imm -= 1 << 22
        return Instruction(opcode, rd, imm=imm)
    imm = word & 0x3FFFF
    if imm & 0x20000:
        imm -= 1 << 18
    return Instruction(opcode, rd, rs1, rs2, imm)


def is_valid_opcode(opcode: int) -> bool:
    return opcode in OPCODE_NAMES
