"""The set-up front ends against their originals (``tests/frontend_oracle.py``).

* Lexer: the one-regex scanner yields the tokens of the per-class
  scanner (kind, text, line, value, width and x/z mask).
* Parser: precedence climbing builds the ASTs of the level-recursive
  parser, ``line`` of every node included.
* Assembler: ``str.find`` comment stripping and ``eval``-free constants
  assemble the same programs (words, labels, source map and entry).
* Predecode: the image digest, taken in one ``update``, is the digest
  of one ``update`` per address and per byte.

Inputs: the extended catalog, soc2-soc5 and the RTL fuzz corpus of
``tests/test_opt_oracle.py``; every firmware generator at its defaults
and at the parameters of E0's DSE campaigns; and hypothesis-mutated
copies of all of these. On bad input both sides raise the same error
type with the same line and message, but for two documented
differences:

* a literal ``int(..., 0)`` rejects (``010``, ``08``) is an
  ``AssemblerError("bad number ...")`` at its line, where the original
  raised a bare ``ValueError`` from a directive and wrapped it with the
  mnemonic in an instruction;
* a newline inside a string or inside a based literal's whitespace
  (``8'\\nhFF``) moves every later token, node and error down a line,
  where the original scanner did not count it. The Verilog check takes
  the shipped tokens back to the original's count before it compares
  tokens, ASTs and errors.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import AssemblerError, LexError
from repro.firmware import programs
from repro.hdl.lexer import _scan, tokenize
from repro.hdl.parser import Parser
from repro.isa.assembler import assemble
from repro.isa.predecode import image_digest
from tests.frontend_oracle import (reference_assemble, reference_parse,
                                   reference_tokenize)
from tests.test_opt_oracle import NAMES, _source

#: Every directive, a quoted comment marker and a constant expression:
#: the paths the firmware generators do not take.
DIRECTIVES = """\
.equ BASE, 0x100           ; a comment
.equ SIZE, 4 * 8 - (2)     // another
.org BASE
start:  movi r1, BASE + SIZE - 2   # and another
        lw r2, -4(sp)
        sw r2, (r1)
        beq r1, r0, start
        halt r1
msg:    .asciz "semi;colon # hash // slash"  ; trailing
        .ascii "a\\tb\\x41"
        .align 8
table:  .word 0x11, 0b101, 7, table
        .space 12
"""

FIRMWARE = {
    "fig1_two_paths": programs.fig1_two_paths(),
    "dispatcher": programs.dispatcher(4),
    "init_heavy": programs.init_heavy(),
    "vuln_buffer_overflow": programs.vuln_buffer_overflow(),
    "vuln_peripheral_misuse": programs.vuln_peripheral_misuse(),
    "vuln_irq_race": programs.vuln_irq_race(),
    "fuzz_packet_parser": programs.fuzz_packet_parser(),
    "vuln_wdt_starvation": programs.vuln_wdt_starvation(),
    "uart_echo": programs.uart_echo(),
    # E0's DSE campaigns (benchmarks/e2e/workloads.py).
    "dispatcher-6": programs.dispatcher(6, 8),
    "dispatcher-16": programs.dispatcher(16, 40),
    "dispatcher-32": programs.dispatcher(32, 40),
    "dispatcher-64": programs.dispatcher(64, 40),
    "init_heavy-200-16": programs.init_heavy(200, 16),
    "directives": DIRECTIVES,
}

#: What a mutation inserts: each language's punctuation, digits and
#: quote marks. The assembler's alphabet has no ``*``, so a mutant can
#: never spell a power (``2**99999``) for ``eval`` to compute.
VERILOG_ALPHABET = list("'\"`$/*\\\n\t ;:,.()[]{}<>=!~^&|+-?#@xzhbd019_a")
ASM_ALPHABET = list("\"\\\n\t ;#/:,.()+-0189xbrsplq_a")

_LITERAL = "invalid literal for int() with base 0"


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), getattr(exc, "line", None), str(exc)


def _tokens(lexer, source):
    return [(t.kind, t.text, t.line, t.value, t.width, t.xmask)
            for t in lexer(source)]


def _program(assembler, source):
    program = assembler(source)
    return (list(program.words.items()), list(program.labels.items()),
            list(program.source_map.items()), program.entry)


def _original_lines(source):
    """The shipped tokens, or the shipped LexError, with each line as
    the original scanner counted it: without the newlines inside
    earlier strings and based literals (the second documented
    difference)."""
    tokens = []
    hidden = 0
    try:
        for token in _scan(source):
            tokens.append(dataclasses.replace(token, line=token.line - hidden))
            hidden += token.text.count("\n")
    except LexError as exc:
        message = str(exc).partition(": ")[2]
        raise LexError(message, exc.line - hidden) from None
    return tokens


def _original_lines_parse(source):
    return Parser(_original_lines(source)).parse_source()


def check_verilog(source):
    assert (_outcome(_tokens, _original_lines, source)
            == _outcome(_tokens, reference_tokenize, source))
    # AST equality compares every field of every node, line included.
    assert (_outcome(_original_lines_parse, source)
            == _outcome(reference_parse, source))


def check_assembly(source):
    shipped = _outcome(_program, assemble, source)
    reference = _outcome(_program, reference_assemble, source)
    if reference[0] != "ok" and _LITERAL in reference[2]:
        # The one documented difference: the literal is an
        # AssemblerError at its line, directive or instruction.
        assert shipped[0] is AssemblerError and "bad number" in shipped[2]
        if reference[0] is AssemblerError:
            assert shipped[1] == reference[1]
        return
    assert shipped == reference


@pytest.mark.parametrize("name", NAMES)
def test_verilog_matches_oracle(name):
    check_verilog(_source(name)[0])


@pytest.mark.parametrize("name", sorted(FIRMWARE))
def test_assembly_matches_oracle(name):
    check_assembly(FIRMWARE[name])


@st.composite
def _mutant(draw, sources, alphabet):
    text = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(1, 4))):
        edit = draw(st.sampled_from(
            ("insert", "delete", "replace", "dup-line", "drop-line")))
        if edit.endswith("line"):
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i:i + 1] = [lines[i]] * 2 if edit == "dup-line" else []
            text = "\n".join(lines)
            continue
        i = draw(st.integers(0, max(len(text) - 1, 0)))
        char = draw(st.sampled_from(alphabet))
        if edit == "insert":
            text = text[:i] + char + text[i:]
        elif edit == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + char + text[i + 1:]
    return text


_MUTATION_SETTINGS = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@_MUTATION_SETTINGS
@given(_mutant([_source(name)[0] for name in NAMES], VERILOG_ALPHABET))
def test_mutated_verilog_matches_oracle(source):
    check_verilog(source)


@_MUTATION_SETTINGS
@given(_mutant(list(FIRMWARE.values()), ASM_ALPHABET))
def test_mutated_assembly_matches_oracle(source):
    check_assembly(source)


@pytest.mark.parametrize("source, value", [
    ("8'hF_F", 0xFF), ("4'b1x0z", 0b1000), ("12 'o7", 7), ("'d10", 10),
    ("1_000", 1000), ("$display", None)])
def test_literal_edge_cases_match_oracle(source, value):
    check_verilog(source)
    if value is not None:
        assert tokenize(source)[0].value == value


@pytest.mark.parametrize("source", [
    "a + b * c == d ? e : f", "a - b - c", "a << b >> c >>> d",
    "a === b !== c", "~^a ^~ b ~^ c", "-a * +b", "a && b || c && d",
    "/* x */ a /*/ b", "/* unterminated", "\"unterminated", "$", "8'q",
    "4'b102", "0'h1", "\\", "a\n/* one\ntwo */ b",
    "a\n+ b\n* c\n== d\n? e\n: f", "x[1\n:0] +\ny[2]\n- z",
    "\"a\nb\" x\n8'\nhFF y", "8 '\n h\nF + \"\n\" $"])
def test_expression_edge_cases_match_oracle(source):
    check_verilog(f"module m; assign y = {source}; endmodule")
    check_verilog(source)


@pytest.mark.parametrize("source", [
    "start: nop ; c // d # e", ".word 1, , 2", ".equ A, B", ".equ A",
    ".org 0x10\nstart: j start", "movi r1, (1+2", '.asciz "open',
    '.asciz "q\\"uote;"  ; c', ".align 3\nnop", "lw r1, 4 (r2)",
    "a: b: nop", ".equ N, -5\nmovi r1, 10 - N", "movi r1, 1 2",
    "li r1, x.y$", ".equ X, 010", ".word 08", "addi r1, r0, 010",
    "movi r1, 1 + 08", "lw r1, 09(r2)", "beq r1, r0, 0b2",
    ".equ X, 5\nX: movi r1, X\nmovi r2, X + 1"])
def test_assembly_edge_cases_match_oracle(source):
    check_assembly(source)


@pytest.mark.parametrize("name", sorted(FIRMWARE))
def test_image_digest_matches_per_byte_updates(name):
    image = assemble(FIRMWARE[name]).as_bytes()
    reference = hashlib.blake2b(digest_size=8)
    for addr in sorted(image):
        reference.update(addr.to_bytes(4, "little"))
        reference.update(bytes((image[addr] & 0xFF,)))
    assert image_digest(image) == reference.digest()
