"""Two-pass assembler for HS32.

Syntax::

    ; comment            (also //)
    .org 0x100           ; set location counter
    .word 0xdeadbeef, 12 ; literal words
    .space 64            ; zero-filled bytes
    .asciz "hello"       ; NUL-terminated string
    .equ UART_BASE, 0x40010000
    label:
        movi r1, UART_BASE     ; pseudo: lui+ori / addi
        lw   r2, 8(r1)
        beq  r2, r0, done
        call subroutine
    done:
        halt r0

Registers: ``r0``..``r15``; aliases ``sp`` (r13), ``lr`` (r14).

Pseudo-instructions: ``movi`` (32-bit constant), ``mov``, ``li`` (alias of
movi), ``nop``, ``j``, ``call``, ``ret``, ``inc``, ``dec``, ``push``,
``pop``, and the intrinsic mnemonics ``sym``, ``symbuf``, ``assume``,
``assert``, ``setivt``, ``ei``, ``di``, ``trace``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import AssemblerError
from repro.isa import encoding as enc

_REG_ALIASES = {"sp": enc.REG_SP, "lr": enc.REG_LR}

_R_OPS = {"add": enc.ADD, "sub": enc.SUB, "and": enc.AND, "or": enc.OR,
          "xor": enc.XOR, "sll": enc.SLL, "srl": enc.SRL, "sra": enc.SRA,
          "mul": enc.MUL, "divu": enc.DIVU, "remu": enc.REMU,
          "slt": enc.SLT, "sltu": enc.SLTU}
_I_OPS = {"addi": enc.ADDI, "andi": enc.ANDI, "ori": enc.ORI,
          "xori": enc.XORI, "slli": enc.SLLI, "srli": enc.SRLI,
          "srai": enc.SRAI}
_LOAD_OPS = {"lw": enc.LW, "lb": enc.LB, "lbu": enc.LBU}
_STORE_OPS = {"sw": enc.SW, "sb": enc.SB}
_BRANCH_OPS = {"beq": enc.BEQ, "bne": enc.BNE, "blt": enc.BLT,
               "bge": enc.BGE, "bltu": enc.BLTU, "bgeu": enc.BGEU}

_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):\s*")
_STRING_RE = re.compile(r'^\s*"((?:[^"\\]|\\.)*)"\s*$')
_REG_RE = re.compile(r"r(\d{1,2})")
_MEM_RE = re.compile(r"(.*)\(\s*(\w+)\s*\)")
_CONST_TOKEN_RE = re.compile(
    r"0x[0-9a-fA-F]+|0b[01]+|\d+|[A-Za-z_.$][\w.$]*|[+\-*()]")
_NUMBER_RE = re.compile(r"0x[0-9a-fA-F]+|0b[01]+|\d+")
_SYMBOL_RE = re.compile(r"[A-Za-z_.$][\w.$]*")


@dataclass
class Program:
    """Assembled firmware image."""

    words: Dict[int, int] = field(default_factory=dict)  # byte addr -> word
    labels: Dict[str, int] = field(default_factory=dict)
    entry: int = 0
    source_map: Dict[int, int] = field(default_factory=dict)  # addr -> line

    def as_bytes(self) -> Dict[int, int]:
        """Byte-addressed image (little-endian)."""
        out: Dict[int, int] = {}
        for addr, word in self.words.items():
            for i in range(4):
                out[addr + i] = (word >> (8 * i)) & 0xFF
        return out


def assemble(source: str, entry_label: str = "start") -> Program:
    """Assemble *source*; the entry point is *entry_label* if defined,
    else the lowest address."""
    asm = _Assembler()
    asm.run(source)
    program = Program(asm.words, asm.labels, source_map=asm.source_map)
    if entry_label in asm.labels:
        program.entry = asm.labels[entry_label]
    elif asm.words:
        program.entry = min(asm.words)
    return program


@dataclass
class _Pending:
    """An instruction awaiting label resolution in pass 2."""

    addr: int
    line_no: int
    mnemonic: str
    operands: List[str]


class _Assembler:
    def __init__(self) -> None:
        self.words: Dict[int, int] = {}
        self.labels: Dict[str, int] = {}
        self.equs: Dict[str, int] = {}
        self.source_map: Dict[int, int] = {}
        self.lc = 0  # location counter (bytes)
        self.pending: List[_Pending] = []

    # -- driver ---------------------------------------------------------------

    def run(self, source: str) -> None:
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = self._strip(raw)
            if not line:
                continue
            self._line(line, line_no)
        for item in self.pending:
            words = self._encode(item.mnemonic, item.operands, item.addr,
                                 item.line_no, resolve=True)
            for i, w in enumerate(words):
                self.words[item.addr + 4 * i] = w

    @staticmethod
    def _strip(raw: str) -> str:
        if '"' not in raw:  # no marker can hide inside a string
            return (raw.partition(";")[0].partition("//")[0]
                    .partition("#")[0].strip())
        for marker in (";", "//", "#"):
            idx = _find_outside_quotes(raw, marker)
            if idx >= 0:
                raw = raw[:idx]
        return raw.strip()

    def _line(self, line: str, line_no: int) -> None:
        # Labels (possibly several, possibly followed by code).
        while True:
            m = _LABEL_RE.match(line)
            if not m:
                break
            label = m.group(1)
            if label in self.labels:
                raise AssemblerError(f"duplicate label {label!r}", line_no)
            self.labels[label] = self.lc
            line = line[m.end():]
        if not line:
            return
        if line.startswith("."):
            self._directive(line, line_no)
            return
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        operands = _split_operands(parts[1]) if len(parts) > 1 else []
        # Pass 1: reserve space; encode in pass 2 when labels are known.
        size = self._size_of(mnemonic, operands, line_no)
        self.pending.append(_Pending(self.lc, line_no, mnemonic, operands))
        self.source_map[self.lc] = line_no
        self.lc += size

    # -- directives ----------------------------------------------------------------

    def _directive(self, line: str, line_no: int) -> None:
        parts = line.split(None, 1)
        name = parts[0].lower()
        rest = parts[1] if len(parts) > 1 else ""
        if name == ".org":
            self.lc = self._const(rest, line_no)
            return
        if name == ".word":
            for item in _split_operands(rest):
                self.words[self.lc] = self._const(item, line_no) & 0xFFFFFFFF
                self.lc += 4
            return
        if name == ".space":
            count = self._const(rest, line_no)
            if count < 0:
                raise AssemblerError(f".space size {count} is negative",
                                     line_no)
            # Zero words covering the space (word granularity).
            for addr in range(self.lc, self.lc + count, 4):
                self.words.setdefault(addr & ~3, 0)
            self.lc += count
            self.lc = (self.lc + 3) & ~3
            return
        if name in (".asciz", ".ascii"):
            m = _STRING_RE.match(rest)
            if not m:
                raise AssemblerError(f"bad string in {name}", line_no)
            try:
                data = (m.group(1).encode().decode("unicode_escape")
                        .encode("latin1"))
            except UnicodeError as exc:  # "\x", or an escape past 0xFF
                raise AssemblerError(f"bad string in {name}: {exc.reason}",
                                     line_no) from None
            if name == ".asciz":
                data += b"\x00"
            for byte in data:
                word_addr = self.lc & ~3
                shift = (self.lc & 3) * 8
                self.words[word_addr] = (self.words.get(word_addr, 0)
                                         | (byte << shift))
                self.lc += 1
            self.lc = (self.lc + 3) & ~3
            return
        if name == ".equ":
            items = _split_operands(rest)
            if len(items) != 2:
                raise AssemblerError(".equ needs NAME, VALUE", line_no)
            self.equs[items[0]] = self._const(items[1], line_no)
            return
        if name == ".align":
            boundary = self._const(rest, line_no) if rest else 4
            if boundary < 1:
                raise AssemblerError(
                    f".align boundary {boundary} is not positive", line_no)
            rem = self.lc % boundary
            if rem:
                self.lc += boundary - rem
            return
        raise AssemblerError(f"unknown directive {name!r}", line_no)

    # -- sizing (pass 1) -------------------------------------------------------------

    def _size_of(self, mnemonic: str, operands: List[str],
                 line_no: int) -> int:
        if mnemonic in ("movi", "li"):
            # Conservatively two words (lui+ori); short forms are padded
            # with a nop so label addresses stay stable.
            return 8
        if mnemonic in ("push", "pop"):
            return 8
        return 4

    # -- encoding (pass 2) --------------------------------------------------------------

    def _encode(self, mnemonic: str, operands: List[str], addr: int,
                line_no: int, resolve: bool) -> List[int]:
        try:
            return self._encode_inner(mnemonic, operands, addr, line_no)
        except AssemblerError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise AssemblerError(f"{mnemonic}: {exc}", line_no) from exc

    def _encode_inner(self, mnemonic: str, ops: List[str], addr: int,
                      line_no: int) -> List[int]:
        if mnemonic in _R_OPS:
            rd, rs1, rs2 = (self._reg(o, line_no) for o in self._arity(ops, 3, line_no))
            return [enc.encode_r(_R_OPS[mnemonic], rd, rs1, rs2)]
        if mnemonic in _I_OPS:
            a = self._arity(ops, 3, line_no)
            return [enc.encode_i(_I_OPS[mnemonic], self._reg(a[0], line_no),
                                 self._reg(a[1], line_no),
                                 self._const(a[2], line_no))]
        if mnemonic == "lui":
            a = self._arity(ops, 2, line_no)
            value = self._const(a[1], line_no)
            if not (0 <= value <= 0xFFFF):
                raise AssemblerError("lui immediate must be 16-bit", line_no)
            return [enc.encode_i(enc.LUI, self._reg(a[0], line_no), 0, value)]
        if mnemonic in _LOAD_OPS:
            a = self._arity(ops, 2, line_no)
            rbase, offset = self._mem_operand(a[1], line_no)
            return [enc.encode_i(_LOAD_OPS[mnemonic],
                                 self._reg(a[0], line_no), rbase, offset)]
        if mnemonic in _STORE_OPS:
            a = self._arity(ops, 2, line_no)
            rbase, offset = self._mem_operand(a[1], line_no)
            return [enc.encode_i(_STORE_OPS[mnemonic],
                                 self._reg(a[0], line_no), rbase, offset)]
        if mnemonic in _BRANCH_OPS:
            a = self._arity(ops, 3, line_no)
            target = self._const(a[2], line_no)
            offset = target - addr
            return [enc.encode_i(_BRANCH_OPS[mnemonic],
                                 self._reg(a[0], line_no),
                                 self._reg(a[1], line_no), offset)]
        if mnemonic == "jal":
            a = self._arity(ops, 2, line_no)
            target = self._const(a[1], line_no)
            return [enc.encode_j(enc.JAL, self._reg(a[0], line_no),
                                 target - addr)]
        if mnemonic == "jalr":
            a = self._arity(ops, 3, line_no)
            return [enc.encode_i(enc.JALR, self._reg(a[0], line_no),
                                 self._reg(a[1], line_no),
                                 self._const(a[2], line_no))]
        if mnemonic == "halt":
            code = self._reg(ops[0], line_no) if ops else 0
            return [enc.encode_i(enc.HALT, 0, code, 0)]
        if mnemonic == "iret":
            return [enc.encode_i(enc.IRET, 0, 0, 0)]
        # ---- intrinsics ----
        if mnemonic == "sym":
            a = self._arity(ops, 1, line_no)
            return [enc.encode_i(enc.HS, self._reg(a[0], line_no), 0,
                                 enc.HS_SYMBOLIC)]
        if mnemonic == "symbuf":
            a = self._arity(ops, 2, line_no)  # symbuf rptr, rlen
            return [enc.encode_i(enc.HS, self._reg(a[1], line_no),
                                 self._reg(a[0], line_no),
                                 enc.HS_SYMBOLIC_BYTES)]
        if mnemonic == "assume":
            a = self._arity(ops, 1, line_no)
            return [enc.encode_i(enc.HS, 0, self._reg(a[0], line_no),
                                 enc.HS_ASSUME)]
        if mnemonic == "assert":
            a = self._arity(ops, 1, line_no)
            return [enc.encode_i(enc.HS, 0, self._reg(a[0], line_no),
                                 enc.HS_ASSERT)]
        if mnemonic == "setivt":
            a = self._arity(ops, 1, line_no)
            return [enc.encode_i(enc.HS, 0, self._reg(a[0], line_no),
                                 enc.HS_SET_IVT)]
        if mnemonic == "ei":
            return [enc.encode_i(enc.HS, 0, 0, enc.HS_EI)]
        if mnemonic == "di":
            return [enc.encode_i(enc.HS, 0, 0, enc.HS_DI)]
        if mnemonic == "trace":
            a = self._arity(ops, 1, line_no)
            return [enc.encode_i(enc.HS, 0, self._reg(a[0], line_no),
                                 enc.HS_TRACE)]
        # ---- pseudo-instructions ----
        if mnemonic == "nop":
            return [enc.encode_i(enc.ADDI, 0, 0, 0)]
        if mnemonic == "mov":
            a = self._arity(ops, 2, line_no)
            return [enc.encode_i(enc.ADDI, self._reg(a[0], line_no),
                                 self._reg(a[1], line_no), 0)]
        if mnemonic in ("movi", "li"):
            a = self._arity(ops, 2, line_no)
            rd = self._reg(a[0], line_no)
            value = self._const(a[1], line_no) & 0xFFFFFFFF
            if value < 0x20000:
                # lui rd, 0 ; ori rd, rd, value — two words so label
                # addresses never depend on the constant's magnitude.
                return [enc.encode_i(enc.LUI, rd, 0, 0),
                        enc.encode_i(enc.ORI, rd, rd, value)]
            return [enc.encode_i(enc.LUI, rd, 0, value >> 16),
                    enc.encode_i(enc.ORI, rd, rd, value & 0xFFFF)]
        if mnemonic == "j":
            a = self._arity(ops, 1, line_no)
            target = self._const(a[0], line_no)
            return [enc.encode_j(enc.JAL, 0, target - addr)]
        if mnemonic == "call":
            a = self._arity(ops, 1, line_no)
            target = self._const(a[0], line_no)
            return [enc.encode_j(enc.JAL, enc.REG_LR, target - addr)]
        if mnemonic == "ret":
            return [enc.encode_i(enc.JALR, 0, enc.REG_LR, 0)]
        if mnemonic == "inc":
            a = self._arity(ops, 1, line_no)
            rd = self._reg(a[0], line_no)
            return [enc.encode_i(enc.ADDI, rd, rd, 1)]
        if mnemonic == "dec":
            a = self._arity(ops, 1, line_no)
            rd = self._reg(a[0], line_no)
            return [enc.encode_i(enc.ADDI, rd, rd, -1)]
        if mnemonic == "push":
            a = self._arity(ops, 1, line_no)
            rv = self._reg(a[0], line_no)
            return [enc.encode_i(enc.ADDI, enc.REG_SP, enc.REG_SP, -4),
                    enc.encode_i(enc.SW, rv, enc.REG_SP, 0)]
        if mnemonic == "pop":
            a = self._arity(ops, 1, line_no)
            rd = self._reg(a[0], line_no)
            return [enc.encode_i(enc.LW, rd, enc.REG_SP, 0),
                    enc.encode_i(enc.ADDI, enc.REG_SP, enc.REG_SP, 4)]
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)

    # -- operand helpers -----------------------------------------------------------------

    @staticmethod
    def _arity(ops: List[str], n: int, line_no: int) -> List[str]:
        if len(ops) != n:
            raise AssemblerError(f"expected {n} operands, got {len(ops)}",
                                 line_no)
        return ops

    def _reg(self, text: str, line_no: int) -> int:
        text = text.strip().lower()
        if text in _REG_ALIASES:
            return _REG_ALIASES[text]
        m = _REG_RE.fullmatch(text)
        if not m or int(m.group(1)) >= enc.NUM_REGS:
            raise AssemblerError(f"bad register {text!r}", line_no)
        return int(m.group(1))

    def _mem_operand(self, text: str, line_no: int) -> Tuple[int, int]:
        """Parse ``offset(reg)``."""
        m = _MEM_RE.fullmatch(text.strip())
        if not m:
            raise AssemblerError(f"bad memory operand {text!r}", line_no)
        offset = self._const(m.group(1), line_no) if m.group(1).strip() else 0
        return self._reg(m.group(2), line_no), offset

    def _const(self, text: str, line_no: int) -> int:
        """Evaluate a constant expression: numbers, labels, .equ names,
        + - * ( ) and unary minus."""
        text = text.strip()
        # A plain number, label or .equ name needs no eval.
        if _NUMBER_RE.fullmatch(text):
            return _number(text, line_no)
        if _SYMBOL_RE.fullmatch(text):
            value = self.equs.get(text, self.labels.get(text))
            if value is not None:
                return value
        tokens = _CONST_TOKEN_RE.findall(text)
        if not tokens or "".join(tokens).replace(" ", "") != text.replace(" ", ""):
            raise AssemblerError(f"bad constant expression {text!r}", line_no)
        resolved = []
        for tok in tokens:
            if _NUMBER_RE.fullmatch(tok):
                resolved.append(str(_number(tok, line_no)))
            elif tok in "+-*()":
                resolved.append(tok)
            elif tok in self.equs:
                resolved.append(str(self.equs[tok]))
            elif tok in self.labels:
                resolved.append(str(self.labels[tok]))
            else:
                raise AssemblerError(f"undefined symbol {tok!r}", line_no)
        try:
            value = eval("".join(resolved), {"__builtins__": {}})  # noqa: S307
        except Exception as exc:
            raise AssemblerError(f"bad expression {text!r}: {exc}",
                                 line_no) from exc
        if not isinstance(value, int):
            raise AssemblerError(f"expression {text!r} is not an integer",
                                 line_no)
        return value


def _number(text: str, line_no: int) -> int:
    try:
        return int(text, 0)
    except ValueError:  # a leading zero: 010, 08
        raise AssemblerError(f"bad number {text!r}", line_no) from None


def _split_operands(text: str) -> List[str]:
    """Split on commas that are not inside parentheses or quotes."""
    out: List[str] = []
    depth = 0
    in_str = False
    current = ""
    for ch in text:
        if ch == '"':
            in_str = not in_str
        if not in_str:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                out.append(current.strip())
                current = ""
                continue
        current += ch
    if current.strip():
        out.append(current.strip())
    return out


def _find_outside_quotes(text: str, marker: str) -> int:
    in_str = False
    for i in range(len(text) - len(marker) + 1):
        ch = text[i]
        if ch == '"':
            in_str = not in_str
        if not in_str and text.startswith(marker, i):
            return i
    return -1
