"""Recursive-descent parser for the supported Verilog subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ParseError
from repro.hdl import ast_nodes as A
from repro.hdl.lexer import Token, tokenize

# Binary operator precedence level, lowest binds loosest; every level is
# left-associative. Ternary sits below all.
_LEVELS = {
    "||": 0,
    "&&": 1,
    "|": 2,
    "^": 3, "^~": 3, "~^": 3,
    "&": 4,
    "==": 5, "!=": 5, "===": 5, "!==": 5,
    "<": 6, "<=": 6, ">": 6, ">=": 6,
    "<<": 7, ">>": 7, ">>>": 7,
    "+": 8, "-": 8,
    "*": 9, "/": 9, "%": 9,
}
_CANONICAL = {"===": "==", "!==": "!="}

_UNARY_OPS = {"~", "!", "-", "+", "&", "|", "^", "~&", "~|", "~^"}


def parse(source: str) -> A.SourceFile:
    """Parse Verilog source text into a :class:`~repro.hdl.ast_nodes.SourceFile`."""
    return Parser(tokenize(source)).parse_source()


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        # advance() never moves past the closing eof token.
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.peek()
        if not self.at(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {tok.text!r}", tok.line)
        return self.advance()

    # -- top level -------------------------------------------------------------

    def parse_source(self) -> A.SourceFile:
        out = A.SourceFile()
        while not self.at("eof"):
            out.modules.append(self.parse_module())
        return out

    def parse_module(self) -> A.Module:
        start = self.expect("keyword", "module")
        name = self.expect("id").text
        mod = A.Module(name=name, line=start.line)
        if self.accept("op", "#"):
            self.expect("op", "(")
            while not self.at("op", ")"):
                self.expect("keyword", "parameter")
                self._skip_optional_range()
                pname = self.expect("id").text
                self.expect("op", "=")
                mod.params.append(A.ParamDecl(pname, self.parse_expr(),
                                              line=self.peek().line))
                if not self.accept("op", ","):
                    break
            self.expect("op", ")")
        if self.accept("op", "("):
            self._parse_port_list(mod)
            self.expect("op", ")")
        self.expect("op", ";")
        while not self.at("keyword", "endmodule"):
            self._parse_module_item(mod)
        self.expect("keyword", "endmodule")
        return mod

    def _skip_optional_range(self) -> Optional[A.Range]:
        if self.at("op", "["):
            return self.parse_range()
        return None

    def _parse_port_list(self, mod: A.Module) -> None:
        # ANSI style: direction [reg] [range] name {, ...}
        # Non-ANSI (bare identifiers) is also accepted; directions then come
        # from body declarations, which we record as ports with kind 'wire'.
        direction = None
        kind = "wire"
        rng: Optional[A.Range] = None
        while not self.at("op", ")"):
            tok = self.peek()
            if tok.kind == "keyword" and tok.text in ("input", "output", "inout"):
                direction = self.advance().text
                kind = "wire"
                self.accept("keyword", "signed")
                if self.accept("keyword", "reg"):
                    kind = "reg"
                    self.accept("keyword", "signed")
                elif self.accept("keyword", "wire"):
                    self.accept("keyword", "signed")
                rng = self._skip_optional_range()
            name_tok = self.expect("id")
            if direction is None:
                # Non-ANSI port: body declarations define it; keep placeholder.
                mod.ports.append(A.Port("inout", "wire", name_tok.text,
                                        line=name_tok.line))
            else:
                mod.ports.append(A.Port(direction, kind, name_tok.text, rng,
                                        line=name_tok.line))
            if not self.accept("op", ","):
                break

    def _parse_module_item(self, mod: A.Module) -> None:
        tok = self.peek()
        if tok.kind == "keyword":
            text = tok.text
            if text in ("input", "output", "inout"):
                self._parse_body_port_decl(mod)
                return
            if text in ("wire", "reg", "integer", "genvar"):
                mod.items.extend(self.parse_net_decl())
                return
            if text in ("parameter", "localparam"):
                self.advance()
                local = text == "localparam"
                self._skip_optional_range()
                while True:
                    pname = self.expect("id").text
                    self.expect("op", "=")
                    mod.items.append(A.ParamDecl(pname, self.parse_expr(),
                                                 local=local, line=tok.line))
                    if not self.accept("op", ","):
                        break
                self.expect("op", ";")
                return
            if text == "assign":
                self.advance()
                while True:
                    target = self.parse_expr()
                    self.expect("op", "=")
                    value = self.parse_expr()
                    mod.items.append(A.ContinuousAssign(target, value, line=tok.line))
                    if not self.accept("op", ","):
                        break
                self.expect("op", ";")
                return
            if text == "always":
                mod.items.append(self.parse_always())
                return
            if text == "initial":
                self.advance()
                mod.items.append(A.InitialBlock(self.parse_stmt_or_block(),
                                                line=tok.line))
                return
            raise ParseError(f"unsupported module item {text!r}", tok.line)
        if tok.kind == "id":
            mod.items.append(self.parse_instance())
            return
        raise ParseError(f"unexpected token {tok.text!r} in module body", tok.line)

    def _parse_body_port_decl(self, mod: A.Module) -> None:
        tok = self.advance()
        direction = tok.text
        kind = "wire"
        if self.accept("keyword", "reg"):
            kind = "reg"
        else:
            self.accept("keyword", "wire")
        self.accept("keyword", "signed")
        rng = self._skip_optional_range()
        while True:
            name = self.expect("id").text
            # Upgrade a non-ANSI placeholder port if present.
            for port in mod.ports:
                if port.name == name:
                    port.direction = direction
                    port.kind = kind
                    port.range = rng
                    break
            else:
                mod.ports.append(A.Port(direction, kind, name, rng, line=tok.line))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")

    def parse_net_decl(self) -> List[A.NetDecl]:
        tok = self.advance()
        kind = tok.text
        if kind == "genvar":
            kind = "integer"
        self.accept("keyword", "signed")
        rng = self._skip_optional_range()
        decls: List[A.NetDecl] = []
        while True:
            name = self.expect("id").text
            array = self._skip_optional_range()
            init = None
            if self.accept("op", "="):
                init = self.parse_expr()
            decls.append(A.NetDecl(kind, name, rng, array, init, line=tok.line))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        return decls

    def parse_range(self) -> A.Range:
        self.expect("op", "[")
        msb = self.parse_expr()
        self.expect("op", ":")
        lsb = self.parse_expr()
        self.expect("op", "]")
        return A.Range(msb, lsb)

    def parse_always(self) -> A.AlwaysBlock:
        tok = self.expect("keyword", "always")
        sensitivity: List[A.EdgeEvent] = []
        self.expect("op", "@")
        if self.accept("op", "("):
            if self.accept("op", "*"):
                pass  # @(*) — empty sensitivity means full combinational
            else:
                while True:
                    edge = None
                    if self.accept("keyword", "posedge"):
                        edge = "posedge"
                    elif self.accept("keyword", "negedge"):
                        edge = "negedge"
                    sig = self.expect("id").text
                    sensitivity.append(A.EdgeEvent(edge, sig))
                    if self.accept("keyword", "or") or self.accept("op", ","):
                        continue
                    break
            self.expect("op", ")")
        else:
            self.expect("op", "*")  # `always @*`
        body = self.parse_stmt_or_block()
        return A.AlwaysBlock(sensitivity, body, line=tok.line)

    def parse_instance(self) -> A.Instance:
        mod_tok = self.expect("id")
        inst = A.Instance(module=mod_tok.text, name="", line=mod_tok.line)
        if self.accept("op", "#"):
            self.expect("op", "(")
            inst.params = self._parse_connection_list()
            self.expect("op", ")")
        inst.name = self.expect("id").text
        self.expect("op", "(")
        raw = self._parse_port_connection_list()
        self.expect("op", ")")
        self.expect("op", ";")
        inst.connections = raw
        return inst

    def _parse_connection_list(self) -> List[Tuple[Optional[str], A.Expr]]:
        out: List[Tuple[Optional[str], A.Expr]] = []
        while not self.at("op", ")"):
            if self.accept("op", "."):
                name = self.expect("id").text
                self.expect("op", "(")
                out.append((name, self.parse_expr()))
                self.expect("op", ")")
            else:
                out.append((None, self.parse_expr()))
            if not self.accept("op", ","):
                break
        return out

    def _parse_port_connection_list(self) -> List[Tuple[Optional[str], Optional[A.Expr]]]:
        out: List[Tuple[Optional[str], Optional[A.Expr]]] = []
        while not self.at("op", ")"):
            if self.accept("op", "."):
                name = self.expect("id").text
                self.expect("op", "(")
                expr = None if self.at("op", ")") else self.parse_expr()
                self.expect("op", ")")
                out.append((name, expr))
            else:
                out.append((None, self.parse_expr()))
            if not self.accept("op", ","):
                break
        return out

    # -- statements ---------------------------------------------------------------

    def parse_stmt_or_block(self) -> List[A.Stmt]:
        if self.accept("keyword", "begin"):
            # optional block label `begin : name`
            if self.accept("op", ":"):
                self.expect("id")
            stmts: List[A.Stmt] = []
            while not self.at("keyword", "end"):
                stmt = self.parse_stmt()
                if stmt is not None:
                    stmts.append(stmt)
            self.expect("keyword", "end")
            return stmts
        stmt = self.parse_stmt()
        return [] if stmt is None else [stmt]

    def parse_stmt(self) -> Optional[A.Stmt]:
        tok = self.peek()
        if tok.kind == "keyword":
            if tok.text == "if":
                return self.parse_if()
            if tok.text in ("case", "casez", "casex"):
                return self.parse_case()
            if tok.text == "for":
                return self.parse_for()
            if tok.text == "begin":
                # nested bare block: flatten into an If(1) wrapper-free list —
                # represent as If with constant-true condition for simplicity.
                body = self.parse_stmt_or_block()
                return A.If(A.Number(1, 1), body, [], line=tok.line)
            raise ParseError(f"unsupported statement keyword {tok.text!r}", tok.line)
        if tok.kind == "id" and tok.text.startswith("$"):
            # System task call: parse and discard.
            self.advance()
            if self.accept("op", "("):
                depth = 1
                while depth:
                    t = self.advance()
                    if t.kind == "eof":
                        raise ParseError("unterminated system task call", tok.line)
                    if t.kind == "op" and t.text == "(":
                        depth += 1
                    elif t.kind == "op" and t.text == ")":
                        depth -= 1
            self.expect("op", ";")
            return None
        # Assignment.
        target = self.parse_primary()
        if self.accept("op", "<="):
            value = self.parse_expr()
            self.expect("op", ";")
            return A.Assign(target, value, blocking=False, line=tok.line)
        self.expect("op", "=")
        value = self.parse_expr()
        self.expect("op", ";")
        return A.Assign(target, value, blocking=True, line=tok.line)

    def parse_if(self) -> A.If:
        tok = self.expect("keyword", "if")
        self.expect("op", "(")
        cond = self.parse_expr()
        self.expect("op", ")")
        then = self.parse_stmt_or_block()
        other: List[A.Stmt] = []
        if self.accept("keyword", "else"):
            other = self.parse_stmt_or_block()
        return A.If(cond, then, other, line=tok.line)

    def parse_case(self) -> A.Case:
        tok = self.advance()
        kind = tok.text
        self.expect("op", "(")
        subject = self.parse_expr()
        self.expect("op", ")")
        items: List[A.CaseItem] = []
        while not self.at("keyword", "endcase"):
            if self.accept("keyword", "default"):
                self.accept("op", ":")
                items.append(A.CaseItem([], self.parse_stmt_or_block()))
                continue
            labels = [self.parse_expr()]
            while self.accept("op", ","):
                labels.append(self.parse_expr())
            self.expect("op", ":")
            items.append(A.CaseItem(labels, self.parse_stmt_or_block()))
        self.expect("keyword", "endcase")
        return A.Case(subject, items, kind, line=tok.line)

    def parse_for(self) -> A.For:
        tok = self.expect("keyword", "for")
        self.expect("op", "(")
        var = self.expect("id").text
        self.expect("op", "=")
        init = self.parse_expr()
        self.expect("op", ";")
        cond = self.parse_expr()
        self.expect("op", ";")
        step_var = self.expect("id").text
        if step_var != var:
            raise ParseError("for-loop update must assign the loop variable",
                             tok.line)
        self.expect("op", "=")
        step = self.parse_expr()
        self.expect("op", ")")
        body = self.parse_stmt_or_block()
        return A.For(var, init, cond, step, body, line=tok.line)

    # -- expressions --------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self.parse_ternary()

    def parse_ternary(self) -> A.Expr:
        cond = self.parse_binary(0)
        if self.accept("op", "?"):
            then = self.parse_ternary()
            self.expect("op", ":")
            other = self.parse_ternary()
            return A.Ternary(cond, then, other, line=self.peek().line)
        return cond

    def parse_binary(self, level: int = 0) -> A.Expr:
        """Precedence climbing: operands joined by operators of *level*
        or tighter, each node's ``line`` the token after its right
        operand."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.kind != "op":
                return left
            op_level = _LEVELS.get(tok.text)
            if op_level is None or op_level < level:
                return left
            self.pos += 1
            right = self.parse_binary(op_level + 1)
            left = A.Binary(_CANONICAL.get(tok.text, tok.text), left, right,
                            line=tokens[self.pos].line)

    def parse_unary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in _UNARY_OPS:
            self.advance()
            operand = self.parse_unary()
            if tok.text == "+":
                return operand
            return A.Unary(tok.text, operand, line=tok.line)
        return self.parse_primary()

    def parse_primary(self) -> A.Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return A.Number(tok.value, tok.width, tok.xmask, line=tok.line)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect("op", ")")
            return self._parse_selects(expr)
        if tok.kind == "op" and tok.text == "{":
            self.advance()
            first = self.parse_expr()
            if self.accept("op", "{"):
                # Replication {N{expr}}
                value = self.parse_expr()
                self.expect("op", "}")
                self.expect("op", "}")
                return self._parse_selects(A.Repeat(first, value, line=tok.line))
            parts = [first]
            while self.accept("op", ","):
                parts.append(self.parse_expr())
            self.expect("op", "}")
            return self._parse_selects(A.Concat(parts, line=tok.line))
        if tok.kind == "id":
            self.advance()
            return self._parse_selects(A.Identifier(tok.text, line=tok.line))
        raise ParseError(f"unexpected token {tok.text!r} in expression", tok.line)

    def _parse_selects(self, base: A.Expr) -> A.Expr:
        while self.at("op", "["):
            self.advance()
            first = self.parse_expr()
            if self.accept("op", ":"):
                lsb = self.parse_expr()
                self.expect("op", "]")
                base = A.PartSelect(base, first, lsb, line=self.peek().line)
            else:
                self.expect("op", "]")
                base = A.BitSelect(base, first, line=self.peek().line)
        return base
