"""Lexer and recursive-descent parser for the paper's concrete syntax.

The accepted grammar (statement separators are semicolons; ``//`` comments
run to end of line)::

    program   := [ "vars" idlist ";" ] [ "arrays" idlist ";" ]
                 [ "shared" idlist ";" ]
                 [ "requires" "(" bexpr ")" ";" ] [ "ensures" "(" bexpr ")" ";" ]
                 [ "rel_requires" "(" rbexpr ")" ";" ]
                 [ "rel_ensures" "(" rbexpr ")" ";" ]
                 stmts
    stmts     := stmt*
    stmt      := "skip" ";"
               | ident "=" expr ";"
               | ident "[" expr "]" "=" expr ";"
               | "havoc" "(" idlist ")" "st" "(" bexpr ")" ";"
               | "relax" "(" idlist ")" "st" "(" bexpr ")" ";"
               | "assume" bexpr ";"
               | "assert" bexpr ";"
               | "relate" ident ":" rbexpr ";"
               | "if" "(" bexpr ")" [ diverge ] "{" stmts "}"
                     [ "else" "{" stmts "}" ]
               | "while" "(" bexpr ")" [ "invariant" "(" bexpr ")" ]
                     [ "rel_invariant" "(" rbexpr ")" ] [ diverge ]
                     "{" stmts "}"
    diverge   := "diverge" "(" bexpr ")" "(" bexpr ")"

    bexpr     := bor;  bor := band ("||" band)*;  band := bimp ("&&" bimp)*
    bimp      := bnot [ "==>" bimp ]
    bnot      := "!" bnot | bprimary
    bprimary  := "true" | "false" | comparison | "(" bexpr ")"
    comparison:= expr cmp expr

    expr      := term (("+" | "-") term)*
    term      := factor (("*" | "/" | "%") factor)*
    factor    := int | "-" factor | ident | ident "[" expr "]"
               | "min" "(" expr "," expr ")" | "max" "(" expr "," expr ")"
               | "(" expr ")"

Relational expressions (``rbexpr`` / ``rexpr``) follow the same structure but
variables carry an execution tag: ``x<o>``, ``x<r>``, ``A<o>[i]``.

The header clauses state the acceptability specification; every ``shared``
array must also be declared by ``arrays``.  A ``diverge`` annotation gives
the unary postconditions of the original and relaxed sides for the diverge
rule of the relational proof.

The parser distinguishes a parenthesised comparison ``(x < y) && b`` from a
parenthesised arithmetic expression ``(x + y) < z`` by backtracking at the
boolean-primary level.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .. import telemetry
from .ast import (
    ArrayAssign,
    ArrayRead,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolBin,
    BoolExpr,
    BoolLit,
    BoolOp,
    CmpOp,
    Compare,
    Diverge,
    Execution,
    Expr,
    Havoc,
    If,
    IntLit,
    IntOp,
    Not,
    Program,
    Relate,
    Relax,
    RelArrayRead,
    RelBinOp,
    RelBoolBin,
    RelBoolExpr,
    RelBoolLit,
    RelCompare,
    RelExpr,
    RelIntLit,
    RelNot,
    RelVar,
    Seq,
    Skip,
    Span,
    Stmt,
    Var,
    While,
    seq,
)


class ParseError(Exception):
    """Raised when the input text is not a well-formed program."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


_KEYWORDS = {
    "skip",
    "havoc",
    "relax",
    "st",
    "assume",
    "assert",
    "relate",
    "if",
    "else",
    "while",
    "invariant",
    "rel_invariant",
    "true",
    "false",
    "min",
    "max",
    "vars",
    "arrays",
    "shared",
    "requires",
    "ensures",
    "rel_requires",
    "rel_ensures",
    "diverge",
}

_TOKEN_SPEC = [
    ("COMMENT", r"//[^\n]*"),
    ("WHITESPACE", r"[ \t\r\n]+"),
    ("INT", r"\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("OP", r"==>|<=>|==|!=|<=|>=|&&|\|\||<|>|=|\+|-|\*|/|%|!|\(|\)|\{|\}|\[|\]|;|:|,"),
]

_TOKEN_RE = _re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_SPEC))


def tokenize(text: str) -> List[Token]:
    """Convert source text into a token list (comments/whitespace dropped)."""
    tokens: List[Token] = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        kind = match.lastgroup or ""
        value = match.group()
        column = pos - line_start + 1
        if kind == "WHITESPACE" or kind == "COMMENT":
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = pos + value.rfind("\n") + 1
        elif kind == "IDENT" and value in _KEYWORDS:
            tokens.append(Token("KEYWORD", value, line, column))
        else:
            tokens.append(Token(kind, value, line, column))
        pos = match.end()
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_CMP_OPS = {
    "<": CmpOp.LT,
    "<=": CmpOp.LE,
    ">": CmpOp.GT,
    ">=": CmpOp.GE,
    "==": CmpOp.EQ,
    "!=": CmpOp.NE,
    "=": CmpOp.EQ,
}

_ADD_OPS = {"+": IntOp.ADD, "-": IntOp.SUB}
_MUL_OPS = {"*": IntOp.MUL, "/": IntOp.DIV, "%": IntOp.MOD}


class Parser:
    """Recursive-descent parser over a token list."""

    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # -- token utilities ----------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            expected = text if text is not None else kind
            raise ParseError(
                f"expected {expected!r} but found {token.text!r}",
                token.line,
                token.column,
            )
        return self._advance()

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # -- span attachment ----------------------------------------------------

    def _spanned(self, node, start: Token):
        """Attach a source span from ``start`` to the last consumed token.

        Nodes that already carry a span keep it (a parenthesised
        subexpression returned unchanged keeps the span of its contents);
        spans are attached post-construction via ``object.__setattr__``
        because the field is ``compare=False`` metadata on frozen nodes,
        not part of their structural identity.
        """
        if node.span is None:
            end = self._tokens[self._pos - 1] if self._pos > 0 else start
            object.__setattr__(
                node,
                "span",
                Span(start.line, start.column, end.line, end.column + len(end.text)),
            )
        return node

    def _span_seq(self, node: Stmt) -> Stmt:
        """Give :class:`Seq` nodes the span covering their children.

        ``seq()`` right-associates statement lists outside the parser, so
        the sequencing nodes themselves are spanless until here.  The empty
        statement list returns the shared ``SKIP`` singleton, which must
        never be mutated — it is not a ``Seq``, so the guard covers it.
        """
        if isinstance(node, Seq) and node.span is None:
            self._span_seq(node.first)
            self._span_seq(node.second)
            first_span = node.first.span
            if first_span is not None:
                object.__setattr__(node, "span", first_span.cover(node.second.span))
        return node

    # -- entry points -------------------------------------------------------

    def parse_program(self, name: str = "program") -> Program:
        variables = self._parse_declaration("vars")
        arrays = self._parse_declaration("arrays")
        shared_token = self._peek()
        shared = self._parse_declaration("shared")
        for array in shared:
            if array not in arrays:
                raise ParseError(
                    f"shared array {array!r} is not declared by 'arrays'",
                    shared_token.line,
                    shared_token.column,
                )
        clauses = {
            keyword: self._parse_clause(keyword, parse)
            for keyword, parse in (
                ("requires", self._parse_bexpr),
                ("ensures", self._parse_bexpr),
                ("rel_requires", self._parse_rbexpr),
                ("rel_ensures", self._parse_rbexpr),
            )
        }
        body = self._parse_statements()
        self._expect("EOF")
        return Program(
            body=body,
            name=name,
            variables=variables,
            arrays=arrays,
            shared=shared,
            **clauses,
        )

    def parse_statement_block(self) -> Stmt:
        body = self._parse_statements()
        self._expect("EOF")
        return body

    def parse_bool_expression(self) -> BoolExpr:
        expr = self._parse_bexpr()
        self._expect("EOF")
        return expr

    def parse_rel_bool_expression(self) -> RelBoolExpr:
        expr = self._parse_rbexpr()
        self._expect("EOF")
        return expr

    def parse_expression(self) -> Expr:
        expr = self._parse_expr()
        self._expect("EOF")
        return expr

    # -- statements ----------------------------------------------------------

    def _parse_declaration(self, keyword: str) -> Tuple[str, ...]:
        """``keyword idlist ;`` if present, else no names."""
        if not self._accept("KEYWORD", keyword):
            return ()
        names = tuple(self._parse_ident_list())
        self._expect("OP", ";")
        return names

    def _parse_clause(self, keyword: str, parse):
        """``keyword ( expr ) ;`` if present, else ``None``."""
        if not self._accept("KEYWORD", keyword):
            return None
        value = self._parse_parenthesised(parse)
        self._expect("OP", ";")
        return value

    def _parse_parenthesised(self, parse):
        self._expect("OP", "(")
        value = parse()
        self._expect("OP", ")")
        return value

    def _parse_diverge(self) -> Optional[Diverge]:
        if not self._accept("KEYWORD", "diverge"):
            return None
        original_post = self._parse_parenthesised(self._parse_bexpr)
        return Diverge(original_post, self._parse_parenthesised(self._parse_bexpr))

    def _parse_ident_list(self) -> List[str]:
        names = [self._expect("IDENT").text]
        while self._accept("OP", ","):
            names.append(self._expect("IDENT").text)
        return names

    def _parse_statements(self) -> Stmt:
        stmts: List[Stmt] = []
        while not self._check("EOF") and not self._check("OP", "}"):
            stmts.append(self._parse_statement())
        return self._span_seq(seq(*stmts))

    def _parse_statement(self) -> Stmt:
        start = self._peek()
        return self._spanned(self._parse_statement_inner(), start)

    def _parse_statement_inner(self) -> Stmt:
        token = self._peek()
        if token.kind == "KEYWORD":
            if token.text == "skip":
                self._advance()
                self._expect("OP", ";")
                return Skip()
            if token.text == "havoc":
                return self._parse_havoc_like(Havoc)
            if token.text == "relax":
                return self._parse_havoc_like(Relax)
            if token.text == "assume":
                self._advance()
                condition = self._parse_bexpr()
                self._expect("OP", ";")
                return Assume(condition)
            if token.text == "assert":
                self._advance()
                condition = self._parse_bexpr()
                self._expect("OP", ";")
                return Assert(condition)
            if token.text == "relate":
                self._advance()
                label = self._expect("IDENT").text
                self._expect("OP", ":")
                condition = self._parse_rbexpr()
                self._expect("OP", ";")
                return Relate(label, condition)
            if token.text == "if":
                return self._parse_if()
            if token.text == "while":
                return self._parse_while()
            raise self._error(f"unexpected keyword {token.text!r}")
        if token.kind == "IDENT":
            return self._parse_assignment()
        raise self._error(f"unexpected token {token.text!r} at start of statement")

    def _parse_havoc_like(self, node_class) -> Stmt:
        self._advance()  # havoc / relax keyword
        self._expect("OP", "(")
        targets = tuple(self._parse_ident_list())
        self._expect("OP", ")")
        self._expect("KEYWORD", "st")
        self._expect("OP", "(")
        predicate = self._parse_bexpr()
        self._expect("OP", ")")
        self._expect("OP", ";")
        return node_class(targets, predicate)

    def _parse_assignment(self) -> Stmt:
        name = self._expect("IDENT").text
        if self._accept("OP", "["):
            index = self._parse_expr()
            self._expect("OP", "]")
            self._expect("OP", "=")
            value = self._parse_expr()
            self._expect("OP", ";")
            return ArrayAssign(name, index, value)
        self._expect("OP", "=")
        value = self._parse_expr()
        self._expect("OP", ";")
        return Assign(name, value)

    def _parse_if(self) -> Stmt:
        self._expect("KEYWORD", "if")
        self._expect("OP", "(")
        condition = self._parse_bexpr()
        self._expect("OP", ")")
        diverge = self._parse_diverge()
        self._expect("OP", "{")
        then_branch = self._parse_statements()
        self._expect("OP", "}")
        else_branch: Stmt = Skip()
        if self._accept("KEYWORD", "else"):
            self._expect("OP", "{")
            else_branch = self._parse_statements()
            self._expect("OP", "}")
        return If(condition, then_branch, else_branch, diverge)

    def _parse_while(self) -> Stmt:
        self._expect("KEYWORD", "while")
        self._expect("OP", "(")
        condition = self._parse_bexpr()
        self._expect("OP", ")")
        invariant: Optional[BoolExpr] = None
        rel_invariant: Optional[RelBoolExpr] = None
        if self._accept("KEYWORD", "invariant"):
            invariant = self._parse_parenthesised(self._parse_bexpr)
        if self._accept("KEYWORD", "rel_invariant"):
            rel_invariant = self._parse_parenthesised(self._parse_rbexpr)
        diverge = self._parse_diverge()
        self._expect("OP", "{")
        body = self._parse_statements()
        self._expect("OP", "}")
        return While(condition, body, invariant, rel_invariant, diverge)

    # -- boolean expressions --------------------------------------------------

    def _parse_bexpr(self) -> BoolExpr:
        return self._parse_bor()

    def _parse_bor(self) -> BoolExpr:
        start = self._peek()
        left = self._parse_band()
        while self._check("OP", "||"):
            self._advance()
            right = self._parse_band()
            left = self._spanned(BoolBin(BoolOp.OR, left, right), start)
        return left

    def _parse_band(self) -> BoolExpr:
        start = self._peek()
        left = self._parse_bimp()
        while self._check("OP", "&&"):
            self._advance()
            right = self._parse_bimp()
            left = self._spanned(BoolBin(BoolOp.AND, left, right), start)
        return left

    def _parse_bimp(self) -> BoolExpr:
        start = self._peek()
        left = self._parse_bnot()
        if self._accept("OP", "==>"):
            right = self._parse_bimp()
            return self._spanned(BoolBin(BoolOp.IMPLIES, left, right), start)
        if self._accept("OP", "<=>"):
            right = self._parse_bimp()
            return self._spanned(BoolBin(BoolOp.IFF, left, right), start)
        return left

    def _parse_bnot(self) -> BoolExpr:
        start = self._peek()
        if self._accept("OP", "!"):
            return self._spanned(Not(self._parse_bnot()), start)
        return self._parse_bprimary()

    def _parse_bprimary(self) -> BoolExpr:
        start = self._peek()
        if self._check("KEYWORD", "true"):
            self._advance()
            return self._spanned(BoolLit(True), start)
        if self._check("KEYWORD", "false"):
            self._advance()
            return self._spanned(BoolLit(False), start)
        # Try a comparison first; fall back to a parenthesised boolean.
        saved = self._pos
        try:
            left = self._parse_expr()
            op_token = self._peek()
            if op_token.kind == "OP" and op_token.text in _CMP_OPS:
                self._advance()
                right = self._parse_expr()
                return self._spanned(Compare(_CMP_OPS[op_token.text], left, right), start)
            raise self._error("expected a comparison operator")
        except ParseError:
            self._pos = saved
        if self._accept("OP", "("):
            inner = self._parse_bexpr()
            self._expect("OP", ")")
            return inner
        raise self._error("expected a boolean expression")

    # -- integer expressions ---------------------------------------------------

    def _parse_expr(self) -> Expr:
        start = self._peek()
        left = self._parse_term()
        while self._peek().kind == "OP" and self._peek().text in _ADD_OPS:
            op = _ADD_OPS[self._advance().text]
            right = self._parse_term()
            left = self._spanned(BinOp(op, left, right), start)
        return left

    def _parse_term(self) -> Expr:
        start = self._peek()
        left = self._parse_factor()
        while self._peek().kind == "OP" and self._peek().text in _MUL_OPS:
            op = _MUL_OPS[self._advance().text]
            right = self._parse_factor()
            left = self._spanned(BinOp(op, left, right), start)
        return left

    def _parse_factor(self) -> Expr:
        token = self._peek()
        if token.kind == "INT":
            self._advance()
            return self._spanned(IntLit(int(token.text)), token)
        if token.kind == "OP" and token.text == "-":
            self._advance()
            operand = self._parse_factor()
            if isinstance(operand, IntLit):
                return self._spanned(IntLit(-operand.value), token)
            return self._spanned(BinOp(IntOp.SUB, IntLit(0), operand), token)
        if token.kind == "KEYWORD" and token.text in ("min", "max"):
            self._advance()
            self._expect("OP", "(")
            left = self._parse_expr()
            self._expect("OP", ",")
            right = self._parse_expr()
            self._expect("OP", ")")
            op = IntOp.MIN if token.text == "min" else IntOp.MAX
            return self._spanned(BinOp(op, left, right), token)
        if token.kind == "IDENT":
            self._advance()
            if self._accept("OP", "["):
                index = self._parse_expr()
                self._expect("OP", "]")
                return self._spanned(ArrayRead(token.text, index), token)
            return self._spanned(Var(token.text), token)
        if token.kind == "OP" and token.text == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect("OP", ")")
            return inner
        raise self._error(f"expected an integer expression, found {token.text!r}")

    # -- relational expressions -------------------------------------------------

    def _parse_rbexpr(self) -> RelBoolExpr:
        return self._parse_rbor()

    def _parse_rbor(self) -> RelBoolExpr:
        start = self._peek()
        left = self._parse_rband()
        while self._check("OP", "||"):
            self._advance()
            right = self._parse_rband()
            left = self._spanned(RelBoolBin(BoolOp.OR, left, right), start)
        return left

    def _parse_rband(self) -> RelBoolExpr:
        start = self._peek()
        left = self._parse_rbimp()
        while self._check("OP", "&&"):
            self._advance()
            right = self._parse_rbimp()
            left = self._spanned(RelBoolBin(BoolOp.AND, left, right), start)
        return left

    def _parse_rbimp(self) -> RelBoolExpr:
        start = self._peek()
        left = self._parse_rbnot()
        if self._accept("OP", "==>"):
            right = self._parse_rbimp()
            return self._spanned(RelBoolBin(BoolOp.IMPLIES, left, right), start)
        if self._accept("OP", "<=>"):
            right = self._parse_rbimp()
            return self._spanned(RelBoolBin(BoolOp.IFF, left, right), start)
        return left

    def _parse_rbnot(self) -> RelBoolExpr:
        start = self._peek()
        if self._accept("OP", "!"):
            return self._spanned(RelNot(self._parse_rbnot()), start)
        return self._parse_rbprimary()

    def _parse_rbprimary(self) -> RelBoolExpr:
        start = self._peek()
        if self._check("KEYWORD", "true"):
            self._advance()
            return self._spanned(RelBoolLit(True), start)
        if self._check("KEYWORD", "false"):
            self._advance()
            return self._spanned(RelBoolLit(False), start)
        saved = self._pos
        try:
            left = self._parse_rexpr()
            op_token = self._peek()
            if op_token.kind == "OP" and op_token.text in _CMP_OPS:
                self._advance()
                right = self._parse_rexpr()
                return self._spanned(
                    RelCompare(_CMP_OPS[op_token.text], left, right), start
                )
            raise self._error("expected a comparison operator")
        except ParseError:
            self._pos = saved
        if self._accept("OP", "("):
            inner = self._parse_rbexpr()
            self._expect("OP", ")")
            return inner
        raise self._error("expected a relational boolean expression")

    def _parse_rexpr(self) -> RelExpr:
        start = self._peek()
        left = self._parse_rterm()
        while self._peek().kind == "OP" and self._peek().text in _ADD_OPS:
            op = _ADD_OPS[self._advance().text]
            right = self._parse_rterm()
            left = self._spanned(RelBinOp(op, left, right), start)
        return left

    def _parse_rterm(self) -> RelExpr:
        start = self._peek()
        left = self._parse_rfactor()
        while self._peek().kind == "OP" and self._peek().text in _MUL_OPS:
            op = _MUL_OPS[self._advance().text]
            right = self._parse_rfactor()
            left = self._spanned(RelBinOp(op, left, right), start)
        return left

    def _parse_rfactor(self) -> RelExpr:
        token = self._peek()
        if token.kind == "INT":
            self._advance()
            return self._spanned(RelIntLit(int(token.text)), token)
        if token.kind == "OP" and token.text == "-":
            self._advance()
            operand = self._parse_rfactor()
            if isinstance(operand, RelIntLit):
                return self._spanned(RelIntLit(-operand.value), token)
            return self._spanned(RelBinOp(IntOp.SUB, RelIntLit(0), operand), token)
        if token.kind == "KEYWORD" and token.text in ("min", "max"):
            self._advance()
            self._expect("OP", "(")
            left = self._parse_rexpr()
            self._expect("OP", ",")
            right = self._parse_rexpr()
            self._expect("OP", ")")
            op = IntOp.MIN if token.text == "min" else IntOp.MAX
            return self._spanned(RelBinOp(op, left, right), token)
        if token.kind == "IDENT":
            self._advance()
            execution = self._parse_execution_tag()
            if self._accept("OP", "["):
                index = self._parse_rexpr()
                self._expect("OP", "]")
                return self._spanned(RelArrayRead(token.text, execution, index), token)
            return self._spanned(RelVar(token.text, execution), token)
        if token.kind == "OP" and token.text == "(":
            self._advance()
            inner = self._parse_rexpr()
            self._expect("OP", ")")
            return inner
        raise self._error(
            f"expected a relational integer expression, found {token.text!r}"
        )

    def _parse_execution_tag(self) -> Execution:
        self._expect("OP", "<")
        tag = self._expect("IDENT").text
        self._expect("OP", ">")
        if tag == "o":
            return Execution.ORIGINAL
        if tag == "r":
            return Execution.RELAXED
        raise self._error(f"expected execution tag 'o' or 'r', found {tag!r}")


# ---------------------------------------------------------------------------
# Module-level convenience functions
# ---------------------------------------------------------------------------


def parse_program(text: str, name: str = "program") -> Program:
    """Parse a full program, retaining ``text`` for diagnostics excerpts."""
    telemetry.count("lang.parse")
    program = Parser(tokenize(text)).parse_program(name)
    object.__setattr__(program, "source", text)
    if program.body.span is not None:
        object.__setattr__(program, "span", program.body.span)
    return program


def parse_statement(text: str) -> Stmt:
    """Parse a statement block (one or more statements)."""
    return Parser(tokenize(text)).parse_statement_block()


def parse_bool(text: str) -> BoolExpr:
    """Parse a boolean expression."""
    return Parser(tokenize(text)).parse_bool_expression()


def parse_rel_bool(text: str) -> RelBoolExpr:
    """Parse a relational boolean expression."""
    return Parser(tokenize(text)).parse_rel_bool_expression()


def parse_expr(text: str) -> Expr:
    """Parse an integer expression."""
    return Parser(tokenize(text)).parse_expression()
