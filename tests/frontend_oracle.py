"""The set-up front ends' differential oracle: the originals that read
their input more than once.

* :func:`reference_tokenize` is :func:`repro.hdl.lexer.tokenize` as it
  was before the one-regex scanner: each token tries the based-number,
  decimal and identifier regexes in turn, then the operators one
  ``startswith`` at a time.
* :class:`ReferenceParser` is :class:`repro.hdl.parser.Parser` with the
  level-recursive ``parse_binary`` (one call per precedence level for
  every operand) and the clamping ``peek``.
* :class:`ReferenceAssembler` is the shipped two-pass assembler with the
  original ``_strip`` (a quote-aware scan per comment marker) and
  ``_const`` (every constant tokenised and ``eval``-ed).

``tests/test_frontend_oracle.py`` holds the shipped front ends to these:
the same tokens, ASTs and programs, and the same errors.
"""

from __future__ import annotations

import re
from typing import Iterator, List

from repro.errors import AssemblerError, LexError
from repro.hdl import ast_nodes as A
from repro.hdl.lexer import KEYWORDS, OPERATORS, Token, _xz_mask
from repro.hdl.parser import Parser
from repro.isa.assembler import Program, _Assembler

# -- the lexer ------------------------------------------------------------------

_NUMBER_RE = re.compile(
    r"(?:(\d+)\s*)?'\s*([bBoOdDhH])\s*([0-9a-fA-FxXzZ_?]+)")
_DECIMAL_RE = re.compile(r"\d[\d_]*")
_ID_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_$]*")
_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}


def reference_tokenize(source: str) -> List[Token]:
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    pos = 0
    line = 1
    length = len(source)
    while pos < length:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch in " \t\r":
            pos += 1
            continue
        if source.startswith("//", pos):
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        if source.startswith("/*", pos):
            end = source.find("*/", pos)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        if ch == "`":
            end = source.find("\n", pos)
            pos = length if end == -1 else end
            continue
        if ch == '"':
            end = source.find('"', pos + 1)
            if end == -1:
                raise LexError("unterminated string", line)
            yield Token("string", source[pos + 1:end], line)
            pos = end + 1
            continue
        if ch == "$":
            m = _ID_RE.match(source, pos + 1)
            if not m:
                raise LexError("stray '$'", line)
            yield Token("id", "$" + m.group(0), line)
            pos = m.end()
            continue
        m = _NUMBER_RE.match(source, pos)
        if m:
            size_txt, base_ch, digits = m.groups()
            base = _BASES[base_ch.lower()]
            raw = digits.replace("_", "")
            cleaned = re.sub(r"[xXzZ?]", "0", raw)
            try:
                value = int(cleaned, base) if cleaned else 0
            except ValueError:
                raise LexError(f"bad digits {digits!r} for base {base}",
                               line) from None
            xmask = _xz_mask(raw, base)
            width = int(size_txt) if size_txt else 32
            if width <= 0:
                raise LexError(f"bad literal width {width}", line)
            mask = (1 << width) - 1
            yield Token("number", m.group(0), line,
                        value=value & mask, width=width, xmask=xmask & mask)
            pos = m.end()
            continue
        m = _DECIMAL_RE.match(source, pos)
        if m:
            yield Token("number", m.group(0), line,
                        value=int(m.group(0).replace("_", "")), width=None)
            pos = m.end()
            continue
        m = _ID_RE.match(source, pos)
        if m:
            text = m.group(0)
            kind = "keyword" if text in KEYWORDS else "id"
            yield Token(kind, text, line)
            pos = m.end()
            continue
        for op in OPERATORS:
            if source.startswith(op, pos):
                yield Token("op", op, line)
                pos += len(op)
                break
        else:
            raise LexError(f"unexpected character {ch!r}", line)
    yield Token("eof", "", line)


# -- the parser -------------------------------------------------------------------

_PRECEDENCE = [
    ["||"],
    ["&&"],
    ["|"],
    ["^", "^~", "~^"],
    ["&"],
    ["==", "!=", "===", "!=="],
    ["<", "<=", ">", ">="],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class ReferenceParser(Parser):
    def peek(self) -> Token:
        i = min(self.pos, len(self.tokens) - 1)
        return self.tokens[i]

    def parse_binary(self, level: int = 0) -> A.Expr:
        if level >= len(_PRECEDENCE):
            return self.parse_unary()
        left = self.parse_binary(level + 1)
        ops = _PRECEDENCE[level]
        while self.peek().kind == "op" and self.peek().text in ops:
            op = self.advance().text
            if op == "===":
                op = "=="
            elif op == "!==":
                op = "!="
            right = self.parse_binary(level + 1)
            left = A.Binary(op, left, right, line=self.peek().line)
        return left


def reference_parse(source: str) -> A.SourceFile:
    return ReferenceParser(reference_tokenize(source)).parse_source()


# -- the assembler ------------------------------------------------------------------

class ReferenceAssembler(_Assembler):
    @staticmethod
    def _strip(raw: str) -> str:
        for marker in (";", "//", "#"):
            idx = _find_outside_quotes(raw, marker)
            if idx >= 0:
                raw = raw[:idx]
        return raw.strip()

    def _const(self, text: str, line_no: int) -> int:
        text = text.strip()
        tokens = re.findall(
            r"0x[0-9a-fA-F]+|0b[01]+|\d+|[A-Za-z_.$][\w.$]*|[+\-*()]", text)
        if not tokens or "".join(tokens).replace(" ", "") != text.replace(" ", ""):
            raise AssemblerError(f"bad constant expression {text!r}", line_no)
        resolved = []
        for tok in tokens:
            if re.fullmatch(r"0x[0-9a-fA-F]+|0b[01]+|\d+", tok):
                resolved.append(str(int(tok, 0)))
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


def _find_outside_quotes(text: str, marker: str) -> int:
    in_str = False
    for i in range(len(text) - len(marker) + 1):
        ch = text[i]
        if ch == '"':
            in_str = not in_str
        if not in_str and text.startswith(marker, i):
            return i
    return -1


def reference_assemble(source: str, entry_label: str = "start") -> Program:
    """:func:`repro.isa.assembler.assemble` over :class:`ReferenceAssembler`."""
    asm = ReferenceAssembler()
    asm.run(source)
    program = Program(asm.words, asm.labels, source_map=asm.source_map)
    if entry_label in asm.labels:
        program.entry = asm.labels[entry_label]
    elif asm.words:
        program.entry = min(asm.words)
    return program
