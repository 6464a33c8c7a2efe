"""A small fluent DSL for constructing programs in Python.

Writing deeply nested dataclass constructors is tedious; case studies, tests
and examples instead use this builder:

>>> from repro.lang import builder as b
>>> prog = b.program(
...     "count",
...     b.assign("i", 0),
...     b.while_(b.lt("i", "n"), b.assign("i", b.add("i", 1)),
...              invariant=b.le("i", "n")),
...     b.assert_(b.eq("i", "n")),
... )

Expression helpers accept ``int`` literals, variable-name strings, or AST
nodes and coerce them appropriately.  Relational expressions are built with
the same helpers: a relational expression is one whose reads are tagged,
and ``o("x")`` / ``r("x")`` / ``oread`` / ``rread`` build those reads
(``x<o>``, ``x<r>``, ``A<o>[i]``, ``A<r>[i]``), as in
``b.le(b.sub(b.o("x"), b.r("x")), 1)``.  A variable-name string always
coerces to an untagged read, so it has no place in a relational expression.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from . import ast
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
    Execution,
    Expr,
    Havoc,
    If,
    IntOp,
    Not,
    Program,
    Relate,
    Relax,
    RelArrayRead,
    RelVar,
    Skip,
    Stmt,
    While,
)

IntLike = Union[int, str, Expr]
BoolLike = Union[bool, BoolExpr]


# ---------------------------------------------------------------------------
# Expression constructors
# ---------------------------------------------------------------------------


def e(value: IntLike) -> Expr:
    """Coerce ``value`` into an integer expression."""
    return ast.int_expr(value)


def v(name: str) -> Expr:
    """A variable reference."""
    return ast.Var(name)


def n(value: int) -> Expr:
    """An integer literal."""
    return ast.IntLit(value)


def add(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.ADD, e(left), e(right))


def sub(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.SUB, e(left), e(right))


def mul(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.MUL, e(left), e(right))


def div(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.DIV, e(left), e(right))


def mod(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.MOD, e(left), e(right))


def min_(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.MIN, e(left), e(right))


def max_(left: IntLike, right: IntLike) -> Expr:
    return BinOp(IntOp.MAX, e(left), e(right))


def aread(array: str, index: IntLike) -> Expr:
    """An array read ``array[index]``."""
    return ArrayRead(array, e(index))


# ---------------------------------------------------------------------------
# Boolean expression constructors
# ---------------------------------------------------------------------------


def bl(value: BoolLike) -> BoolExpr:
    """Coerce ``value`` into a boolean expression."""
    if isinstance(value, BoolExpr):
        return value
    if isinstance(value, bool):
        return BoolLit(value)
    raise TypeError(f"cannot coerce {value!r} to a boolean expression")


true = BoolLit(True)
false = BoolLit(False)


def lt(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.LT, e(left), e(right))


def le(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.LE, e(left), e(right))


def gt(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.GT, e(left), e(right))


def ge(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.GE, e(left), e(right))


def eq(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.EQ, e(left), e(right))


def ne(left: IntLike, right: IntLike) -> BoolExpr:
    return Compare(CmpOp.NE, e(left), e(right))


def and_(*operands: BoolLike) -> BoolExpr:
    return ast.conj(*[bl(op) for op in operands])


def or_(*operands: BoolLike) -> BoolExpr:
    return ast.disj(*[bl(op) for op in operands])


def implies(left: BoolLike, right: BoolLike) -> BoolExpr:
    return BoolBin(BoolOp.IMPLIES, bl(left), bl(right))


def not_(operand: BoolLike) -> BoolExpr:
    return Not(bl(operand))


# ---------------------------------------------------------------------------
# Tagged reads (the leaves of relational expressions)
# ---------------------------------------------------------------------------


def o(name: str) -> RelVar:
    """The original-execution read ``name<o>``."""
    return RelVar(name, Execution.ORIGINAL)


def r(name: str) -> RelVar:
    """The relaxed-execution read ``name<r>``."""
    return RelVar(name, Execution.RELAXED)


def oread(array: str, index: IntLike) -> Expr:
    """Original-execution array read ``array<o>[index]``."""
    return RelArrayRead(array, Execution.ORIGINAL, e(index))


def rread(array: str, index: IntLike) -> Expr:
    """Relaxed-execution array read ``array<r>[index]``."""
    return RelArrayRead(array, Execution.RELAXED, e(index))


def same(name: str) -> BoolExpr:
    """The noninterference atom ``name<o> == name<r>``.

    The paper's example proofs lean heavily on this shape of relational
    invariant ("relational assertions that establish the equality of values
    of variables in the original and relaxed executions").
    """
    return eq(o(name), r(name))


def all_same(*names: str) -> BoolExpr:
    """Conjunction of :func:`same` over several variable names."""
    return and_(*[same(name) for name in names])


def within(name: str, bound: IntLike) -> BoolExpr:
    """The accuracy envelope ``|name<o> - name<r>| <= bound``.

    Expressed without absolute value as the conjunction
    ``name<o> - name<r> <= bound && name<r> - name<o> <= bound`` exactly as
    in the paper's LU decomposition example (Section 5.3).
    """
    return and_(
        le(sub(o(name), r(name)), bound),
        le(sub(r(name), o(name)), bound),
    )


# ---------------------------------------------------------------------------
# Statement constructors
# ---------------------------------------------------------------------------

skip = Skip()


def assign(target: str, value: IntLike) -> Stmt:
    return Assign(target, e(value))


def astore(array: str, index: IntLike, value: IntLike) -> Stmt:
    """Array element assignment ``array[index] = value``."""
    return ArrayAssign(array, e(index), e(value))


def havoc(targets: Union[str, Tuple[str, ...], list], predicate: BoolLike) -> Stmt:
    return Havoc(_target_tuple(targets), bl(predicate))


def relax(targets: Union[str, Tuple[str, ...], list], predicate: BoolLike) -> Stmt:
    return Relax(_target_tuple(targets), bl(predicate))


def assume(condition: BoolLike) -> Stmt:
    return Assume(bl(condition))


def assert_(condition: BoolLike) -> Stmt:
    return Assert(bl(condition))


def relate(label: str, condition: BoolLike) -> Stmt:
    return Relate(label, bl(condition))


def if_(condition: BoolLike, then_branch: Stmt, else_branch: Stmt = skip) -> Stmt:
    return If(bl(condition), then_branch, else_branch)


def while_(
    condition: BoolLike,
    *body: Stmt,
    invariant: Optional[BoolExpr] = None,
    rel_invariant: Optional[BoolExpr] = None,
) -> Stmt:
    return While(bl(condition), block(*body), invariant, rel_invariant)


def block(*stmts: Stmt) -> Stmt:
    """Sequence statements; an empty block is ``skip``."""
    return ast.seq(*stmts)


def program(
    name: str,
    *stmts: Stmt,
    variables: Tuple[str, ...] = (),
    arrays: Tuple[str, ...] = (),
) -> Program:
    """Build a :class:`~repro.lang.ast.Program` from a statement sequence."""
    return Program(
        body=block(*stmts), name=name, variables=tuple(variables), arrays=tuple(arrays)
    )


def _target_tuple(targets: Union[str, Tuple[str, ...], list]) -> Tuple[str, ...]:
    if isinstance(targets, str):
        return (targets,)
    return tuple(targets)
