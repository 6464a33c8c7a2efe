"""Pretty printer for the relaxed-programming language.

The printer produces text in the paper's concrete syntax, which the parser
in :mod:`repro.lang.parser` accepts, so ``parse(pretty(p))`` round-trips for
every program ``p`` (a property-based test enforces this).

:func:`print_with_spans` prints a program and, in the same pass, rebuilds it
as fresh nodes that carry source spans into the printed text.  The span
contract is that the result is exactly what
``parse_program(pretty_program(p), name=p.name)`` returns, without running
the parser:

* ``source`` is ``pretty_program(p)`` and ``program.span`` is the body span;
* every block is one right-nested ``Seq`` tree (``seq(*stmts)``), whatever
  the association of the input, and a ``Seq`` spans its children;
* a statement spans its first token to its ``;`` or closing ``}``;
* an expression spans its own text, except that an expression the printer
  parenthesises spans the contents of its parentheses (the parser keeps
  the span of a parenthesised subexpression's contents); a negative
  literal spans its ``-`` sign.

The input's nodes are never mutated: study nodes are shared between
relaxed candidates and keep their spans into the study's own source.
A tier-1 differential test pins the contract against the parser, and the
case-study lint checks it for every registered study.
"""

from __future__ import annotations

from typing import List

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
    Compare,
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
)

_INDENT = "  "


def pretty_expr(expr: Expr) -> str:
    """Render an integer expression."""
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, BinOp):
        if expr.op in (IntOp.MIN, IntOp.MAX):
            return f"{expr.op.value}({pretty_expr(expr.left)}, {pretty_expr(expr.right)})"
        return f"({pretty_expr(expr.left)} {expr.op.value} {pretty_expr(expr.right)})"
    if isinstance(expr, ArrayRead):
        return f"{expr.array}[{pretty_expr(expr.index)}]"
    raise TypeError(f"unknown expression node {expr!r}")


def pretty_bool(expr: BoolExpr) -> str:
    """Render a boolean expression."""
    if isinstance(expr, BoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, Compare):
        return f"({pretty_expr(expr.left)} {expr.op.value} {pretty_expr(expr.right)})"
    if isinstance(expr, BoolBin):
        return f"({pretty_bool(expr.left)} {expr.op.value} {pretty_bool(expr.right)})"
    if isinstance(expr, Not):
        return f"!({pretty_bool(expr.operand)})"
    raise TypeError(f"unknown boolean expression node {expr!r}")


def pretty_rel_expr(expr: RelExpr) -> str:
    """Render a relational integer expression."""
    if isinstance(expr, RelIntLit):
        return str(expr.value)
    if isinstance(expr, RelVar):
        return f"{expr.name}<{expr.execution.value}>"
    if isinstance(expr, RelBinOp):
        if expr.op in (IntOp.MIN, IntOp.MAX):
            return (
                f"{expr.op.value}({pretty_rel_expr(expr.left)}, "
                f"{pretty_rel_expr(expr.right)})"
            )
        return (
            f"({pretty_rel_expr(expr.left)} {expr.op.value} "
            f"{pretty_rel_expr(expr.right)})"
        )
    if isinstance(expr, RelArrayRead):
        return (
            f"{expr.array}<{expr.execution.value}>[{pretty_rel_expr(expr.index)}]"
        )
    raise TypeError(f"unknown relational expression node {expr!r}")


def pretty_rel_bool(expr: RelBoolExpr) -> str:
    """Render a relational boolean expression."""
    if isinstance(expr, RelBoolLit):
        return "true" if expr.value else "false"
    if isinstance(expr, RelCompare):
        return (
            f"({pretty_rel_expr(expr.left)} {expr.op.value} "
            f"{pretty_rel_expr(expr.right)})"
        )
    if isinstance(expr, RelBoolBin):
        return (
            f"({pretty_rel_bool(expr.left)} {expr.op.value} "
            f"{pretty_rel_bool(expr.right)})"
        )
    if isinstance(expr, RelNot):
        return f"!({pretty_rel_bool(expr.operand)})"
    raise TypeError(f"unknown relational boolean node {expr!r}")


def _pretty_stmt(stmt: Stmt, indent: int, lines: List[str]) -> None:
    pad = _INDENT * indent
    if isinstance(stmt, Skip):
        lines.append(f"{pad}skip;")
    elif isinstance(stmt, Assign):
        lines.append(f"{pad}{stmt.target} = {pretty_expr(stmt.value)};")
    elif isinstance(stmt, ArrayAssign):
        lines.append(
            f"{pad}{stmt.array}[{pretty_expr(stmt.index)}] = "
            f"{pretty_expr(stmt.value)};"
        )
    elif isinstance(stmt, Havoc):
        targets = ", ".join(stmt.targets)
        lines.append(f"{pad}havoc ({targets}) st ({pretty_bool(stmt.predicate)});")
    elif isinstance(stmt, Relax):
        targets = ", ".join(stmt.targets)
        lines.append(f"{pad}relax ({targets}) st ({pretty_bool(stmt.predicate)});")
    elif isinstance(stmt, Assume):
        lines.append(f"{pad}assume {pretty_bool(stmt.condition)};")
    elif isinstance(stmt, Assert):
        lines.append(f"{pad}assert {pretty_bool(stmt.condition)};")
    elif isinstance(stmt, Relate):
        lines.append(f"{pad}relate {stmt.label}: {pretty_rel_bool(stmt.condition)};")
    elif isinstance(stmt, If):
        lines.append(f"{pad}if ({pretty_bool(stmt.condition)}) {{")
        _pretty_stmt(stmt.then_branch, indent + 1, lines)
        lines.append(f"{pad}}} else {{")
        _pretty_stmt(stmt.else_branch, indent + 1, lines)
        lines.append(f"{pad}}}")
    elif isinstance(stmt, While):
        header = f"{pad}while ({pretty_bool(stmt.condition)})"
        if stmt.invariant is not None:
            header += f" invariant ({pretty_bool(stmt.invariant)})"
        if stmt.rel_invariant is not None:
            header += f" rel_invariant ({pretty_rel_bool(stmt.rel_invariant)})"
        lines.append(header + " {")
        _pretty_stmt(stmt.body, indent + 1, lines)
        lines.append(f"{pad}}}")
    elif isinstance(stmt, Seq):
        _pretty_stmt(stmt.first, indent, lines)
        _pretty_stmt(stmt.second, indent, lines)
    else:
        raise TypeError(f"unknown statement node {stmt!r}")


def pretty_stmt(stmt: Stmt, indent: int = 0) -> str:
    """Render a statement as an indented multi-line block."""
    lines: List[str] = []
    _pretty_stmt(stmt, indent, lines)
    return "\n".join(lines)


def _header(program: Program) -> List[str]:
    """The name comment and declaration lines that precede the body."""
    lines = [f"// program: {program.name}"]
    if program.variables:
        lines.append(f"vars {', '.join(program.variables)};")
    if program.arrays:
        lines.append(f"arrays {', '.join(program.arrays)};")
    return lines


def pretty_program(program: Program) -> str:
    """Render a full program, including variable declarations."""
    lines = _header(program)
    lines.append(pretty_stmt(program.body))
    return "\n".join(lines) + "\n"


class _SpanPrinter:
    """Emit :func:`pretty_program` text while rebuilding each node with its span.

    Every emitting method writes a node's text at the current position and
    returns a fresh copy of the node whose span covers that text; columns
    are 0-based while writing and 1-based in the spans.
    """

    def __init__(self) -> None:
        self.parts: List[str] = []
        self.line = 1
        self.column = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.column += len(text)

    def newline(self) -> None:
        self.parts.append("\n")
        self.line += 1
        self.column = 0

    def span(self, line: int, column: int) -> Span:
        """The span from ``line``/``column`` to the current position."""
        return Span(line, column + 1, self.line, self.column + 1)

    # -- expressions (always on one line) ------------------------------------------

    def infix(self, expr, operand):
        """``(left op right)``; returns the operands and the contents' span."""
        self.write("(")
        start = self.column
        left = operand(expr.left)
        self.write(f" {expr.op.value} ")
        right = operand(expr.right)
        span = self.span(self.line, start)
        self.write(")")
        return left, right, span

    def expr(self, expr):
        """An integer expression, relational or not."""
        start = self.column
        if isinstance(expr, Var):
            self.write(expr.name)
            return Var(expr.name, span=self.span(self.line, start))
        if isinstance(expr, (IntLit, RelIntLit)):
            self.write(str(expr.value))
            return type(expr)(expr.value, span=self.span(self.line, start))
        if isinstance(expr, (BinOp, RelBinOp)):
            if expr.op in (IntOp.MIN, IntOp.MAX):
                self.write(f"{expr.op.value}(")
                left = self.expr(expr.left)
                self.write(", ")
                right = self.expr(expr.right)
                self.write(")")
                span = self.span(self.line, start)
            else:
                left, right, span = self.infix(expr, self.expr)
            return type(expr)(expr.op, left, right, span=span)
        if isinstance(expr, RelVar):
            self.write(f"{expr.name}<{expr.execution.value}>")
            return RelVar(expr.name, expr.execution, span=self.span(self.line, start))
        if isinstance(expr, ArrayRead):
            self.write(f"{expr.array}[")
            index = self.expr(expr.index)
            self.write("]")
            return ArrayRead(expr.array, index, span=self.span(self.line, start))
        if isinstance(expr, RelArrayRead):
            self.write(f"{expr.array}<{expr.execution.value}>[")
            index = self.expr(expr.index)
            self.write("]")
            return RelArrayRead(
                expr.array, expr.execution, index, span=self.span(self.line, start)
            )
        raise TypeError(f"unknown expression node {expr!r}")

    def cond(self, expr):
        """A boolean expression, relational or not."""
        start = self.column
        if isinstance(expr, (Compare, RelCompare)):
            left, right, span = self.infix(expr, self.expr)
            return type(expr)(expr.op, left, right, span=span)
        if isinstance(expr, (BoolBin, RelBoolBin)):
            left, right, span = self.infix(expr, self.cond)
            return type(expr)(expr.op, left, right, span=span)
        if isinstance(expr, (Not, RelNot)):
            self.write("!(")
            operand = self.cond(expr.operand)
            self.write(")")
            return type(expr)(operand, span=self.span(self.line, start))
        if isinstance(expr, (BoolLit, RelBoolLit)):
            self.write("true" if expr.value else "false")
            return type(expr)(expr.value, span=self.span(self.line, start))
        raise TypeError(f"unknown boolean expression node {expr!r}")

    # -- statements ------------------------------------------------------------------

    def block(self, stmt: Stmt, indent: int) -> Stmt:
        """Print a block one statement per line; rebuild it right-nested."""
        stmts: List[Stmt] = []
        pending = [stmt]
        while pending:
            node = pending.pop()
            if isinstance(node, Seq):
                pending.append(node.second)
                pending.append(node.first)
            else:
                self.write(_INDENT * indent)
                stmts.append(self.stmt(node, indent))
                self.newline()
        result = stmts[-1]
        for node in reversed(stmts[:-1]):
            result = Seq(node, result, span=node.span.cover(result.span))
        return result

    def stmt(self, stmt: Stmt, indent: int) -> Stmt:
        line, start = self.line, self.column
        if isinstance(stmt, Assign):
            self.write(f"{stmt.target} = ")
            value = self.expr(stmt.value)
            self.write(";")
            return Assign(stmt.target, value, span=self.span(line, start))
        if isinstance(stmt, ArrayAssign):
            self.write(f"{stmt.array}[")
            index = self.expr(stmt.index)
            self.write("] = ")
            value = self.expr(stmt.value)
            self.write(";")
            return ArrayAssign(stmt.array, index, value, span=self.span(line, start))
        if isinstance(stmt, (Havoc, Relax)):
            keyword = "havoc" if isinstance(stmt, Havoc) else "relax"
            self.write(f"{keyword} ({', '.join(stmt.targets)}) st (")
            predicate = self.cond(stmt.predicate)
            self.write(");")
            return type(stmt)(stmt.targets, predicate, span=self.span(line, start))
        if isinstance(stmt, (Assume, Assert)):
            self.write("assume " if isinstance(stmt, Assume) else "assert ")
            condition = self.cond(stmt.condition)
            self.write(";")
            return type(stmt)(condition, span=self.span(line, start))
        if isinstance(stmt, Relate):
            self.write(f"relate {stmt.label}: ")
            rel_condition = self.cond(stmt.condition)
            self.write(";")
            return Relate(stmt.label, rel_condition, span=self.span(line, start))
        if isinstance(stmt, Skip):
            self.write("skip;")
            return Skip(span=self.span(line, start))
        pad = _INDENT * indent
        if isinstance(stmt, If):
            self.write("if (")
            condition = self.cond(stmt.condition)
            self.write(") {")
            self.newline()
            then_branch = self.block(stmt.then_branch, indent + 1)
            self.write(f"{pad}}} else {{")
            self.newline()
            else_branch = self.block(stmt.else_branch, indent + 1)
            self.write(f"{pad}}}")
            return If(condition, then_branch, else_branch, span=self.span(line, start))
        if isinstance(stmt, While):
            self.write("while (")
            condition = self.cond(stmt.condition)
            self.write(")")
            invariant = rel_invariant = None
            if stmt.invariant is not None:
                self.write(" invariant (")
                invariant = self.cond(stmt.invariant)
                self.write(")")
            if stmt.rel_invariant is not None:
                self.write(" rel_invariant (")
                rel_invariant = self.cond(stmt.rel_invariant)
                self.write(")")
            self.write(" {")
            self.newline()
            body = self.block(stmt.body, indent + 1)
            self.write(f"{pad}}}")
            return While(
                condition, body, invariant, rel_invariant, span=self.span(line, start)
            )
        raise TypeError(f"unknown statement node {stmt!r}")


def print_with_spans(program: Program) -> Program:
    """Print ``program`` and return a fresh copy with source text and spans.

    The result equals ``parse_program(pretty_program(program),
    name=program.name)`` node for node, spans included (see the module
    docstring for the contract); ``program`` itself is left untouched.
    """
    printer = _SpanPrinter()
    header = "\n".join(_header(program)) + "\n"
    printer.parts.append(header)
    printer.line += header.count("\n")
    body = printer.block(program.body, 0)
    result = Program(
        body=body,
        name=program.name,
        variables=tuple(program.variables),
        arrays=tuple(program.arrays),
        source="".join(printer.parts),
    )
    object.__setattr__(result, "span", body.span)
    return result
