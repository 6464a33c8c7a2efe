"""The relaxed-programming language: AST, parser, printer, builder, analyses.

This package implements Figure 1 of Carbin et al. (PLDI 2012) — the small
imperative language with ``havoc``, ``relax``, ``assume``, ``assert`` and
``relate`` statements — together with relational expressions (the same
expressions with tagged reads ``x<o>`` / ``x<r>``), a concrete-syntax parser, a pretty printer, a fluent program
builder and the syntactic analyses (``no_rel``, free/modified variables,
well-formedness, the ``Γ`` label map) that the proof rules rely on.
"""

from . import analysis, ast, builder, parser, pretty
from .analysis import (
    WellFormednessError,
    WellFormednessReport,
    check_program,
    gamma,
    modified_vars,
    no_rel,
    read_vars,
    relate_statements,
)
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
    Node,
    Not,
    Program,
    Relate,
    Relax,
    RelArrayRead,
    RelVar,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
)
from .parser import ParseError, parse_bool, parse_expr, parse_program, parse_rel_bool, parse_statement
from .pretty import pretty_program, pretty_stmt

__all__ = [
    "analysis",
    "ast",
    "builder",
    "parser",
    "pretty",
    # analyses
    "WellFormednessError",
    "WellFormednessReport",
    "check_program",
    "gamma",
    "modified_vars",
    "no_rel",
    "read_vars",
    "relate_statements",
    # ast
    "ArrayAssign",
    "ArrayRead",
    "Assert",
    "Assign",
    "Assume",
    "BinOp",
    "BoolBin",
    "BoolExpr",
    "BoolLit",
    "BoolOp",
    "CmpOp",
    "Compare",
    "Diverge",
    "Execution",
    "Expr",
    "Havoc",
    "If",
    "IntLit",
    "IntOp",
    "Node",
    "Not",
    "Program",
    "Relate",
    "Relax",
    "RelArrayRead",
    "RelVar",
    "Seq",
    "Skip",
    "Stmt",
    "Var",
    "While",
    # parser / printer
    "ParseError",
    "parse_bool",
    "parse_expr",
    "parse_program",
    "parse_rel_bool",
    "parse_statement",
    "pretty_program",
    "pretty_stmt",
]
