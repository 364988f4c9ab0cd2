"""Tokenizer for the supported Verilog subset."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, List, Optional

from repro.errors import LexError

KEYWORDS = frozenset({
    "module", "endmodule", "input", "output", "inout", "wire", "reg",
    "integer", "parameter", "localparam", "assign", "always", "initial",
    "begin", "end", "if", "else", "case", "casez", "casex", "endcase",
    "default", "for", "posedge", "negedge", "or", "signed", "genvar",
    "generate", "endgenerate", "function", "endfunction", "task", "endtask",
})

# Multi-character operators, longest first so the scanner is greedy.
OPERATORS = [
    "<<<", ">>>", "===", "!==", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "~&", "~|", "~^", "^~", "+", "-", "*", "/", "%", "&",
    "|", "^", "~", "!", "<", ">", "=", "?", ":", "(", ")", "[", "]",
    "{", "}", ",", ";", ".", "@", "#",
]

#: One alternation per token class, tried in priority order at each
#: position: whitespace, comments and compiler directives (skipped), the
#: start of a block comment, strings, system names, based and decimal
#: numbers, identifiers, then the operators longest first.
_TOKEN_RE = re.compile("|".join([
    r"(?P<space>[ \t\r\n]+)",
    r"(?P<skip>//[^\n]*|`[^\n]*)",
    r"(?P<block>/\*)",
    r'(?P<string>"[^"]*")',
    r"(?P<system>\$[a-zA-Z_][a-zA-Z0-9_$]*)",
    r"(?P<based>(?:(?P<size>\d+)\s*)?'\s*(?P<base>[bBoOdDhH])\s*"
    r"(?P<digits>[0-9a-fA-FxXzZ_?]+))",
    r"(?P<decimal>\d[\d_]*)",
    r"(?P<ident>[a-zA-Z_][a-zA-Z0-9_$]*)",
    "(?P<op>" + "|".join(map(re.escape, OPERATORS)) + ")",
]))
_XZ_AS_ZERO = str.maketrans("xXzZ?", "00000")
_BASES = {"b": 2, "o": 8, "d": 10, "h": 16}
_BITS_PER_DIGIT = {2: 1, 8: 3, 16: 4}


def _xz_mask(digits: str, base: int) -> int:
    """Mask of bits spelled as x/z/? in a based literal (0 for decimal)."""
    bits = _BITS_PER_DIGIT.get(base)
    if bits is None:
        return 0
    mask = 0
    shift = 0
    for ch in reversed(digits):
        if ch in "xXzZ?":
            mask |= ((1 << bits) - 1) << shift
        shift += bits
    return mask


@dataclass
class Token:
    kind: str  # 'id' | 'keyword' | 'number' | 'op' | 'string' | 'eof'
    text: str
    line: int
    # For numbers: decoded value, declared width (None if unsized), and the
    # mask of bits written as x/z/? (treated as 0 in value, wildcards in
    # casez labels).
    value: int = 0
    width: Optional[int] = None
    xmask: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


def tokenize(source: str) -> List[Token]:
    """Tokenize Verilog *source*, raising :class:`LexError` on bad input."""
    return list(_scan(source))


def _scan(source: str) -> Iterator[Token]:
    pos = 0
    line = 1
    length = len(source)
    match = _TOKEN_RE.match
    while pos < length:
        m = match(source, pos)
        if m is None:
            ch = source[pos]
            if ch == '"':
                raise LexError("unterminated string", line)
            if ch == "$":
                raise LexError("stray '$'", line)
            raise LexError(f"unexpected character {ch!r}", line)
        kind = m.lastgroup
        text = m.group()
        if kind == "space":
            line += text.count("\n")
        elif kind == "ident":
            yield Token("keyword" if text in KEYWORDS else "id", text, line)
        elif kind == "op":
            yield Token("op", text, line)
        elif kind == "decimal":
            yield Token("number", text, line,
                        value=int(text.replace("_", "")), width=None)
        elif kind == "based":
            yield _based_number(m, line)
            line += text.count("\n")  # whitespace around the base
        elif kind == "block":
            end = source.find("*/", pos)
            if end == -1:
                raise LexError("unterminated block comment", line)
            line += source.count("\n", pos, end)
            pos = end + 2
            continue
        elif kind == "string":
            # Used only in rare $display; tokenised, ignored by the parser.
            yield Token("string", text[1:-1], line)
            line += text.count("\n")
        elif kind == "system":
            # System tasks like $display lex as identifiers.
            yield Token("id", text, line)
        pos = m.end()
    yield Token("eof", "", line)


def _based_number(m: re.Match, line: int) -> Token:
    """The token of a based literal (possibly with explicit size)."""
    digits = m.group("digits")
    base = _BASES[m.group("base").lower()]
    raw = digits.replace("_", "")
    cleaned = raw.translate(_XZ_AS_ZERO)
    try:
        value = int(cleaned, base) if cleaned else 0
    except ValueError:
        raise LexError(f"bad digits {digits!r} for base {base}", line) from None
    xmask = _xz_mask(raw, base) if cleaned != raw else 0
    size_txt = m.group("size")
    width = int(size_txt) if size_txt else 32
    if width <= 0:
        raise LexError(f"bad literal width {width}", line)
    mask = (1 << width) - 1
    return Token("number", m.group(), line,
                 value=value & mask, width=width, xmask=xmask & mask)
