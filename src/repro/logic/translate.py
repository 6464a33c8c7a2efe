"""Translation of program expressions into the assertion-logic formula IR.

The axiomatic semantics reason about program boolean expressions ``B`` and
relational boolean expressions ``B*`` as logical formulas.  Both kinds are
one expression tree and go through one translation:

* :func:`term_of_expr` / :func:`formula_of_bool` — translate ``E`` / ``B``
  into terms/formulas.  The optional ``tag`` argument chooses which
  execution's copy of the variables the result talks about, implementing the
  injections ``inj_o`` / ``inj_r`` of the paper directly at translation time.
* :func:`formula_of_rel_bool` — translate ``B*``: the same walk, in the mode
  where each (tagged) read supplies its own tag.

Reads of the wrong kind are rejected with :class:`TypeError`: a tagged read
in a program expression, and an untagged read in a relational one.
"""

from __future__ import annotations

from typing import Optional, Union

from ..lang.ast import (
    ArrayRead,
    BinOp,
    BoolBin,
    BoolExpr,
    BoolLit,
    BoolOp,
    CmpOp,
    Compare,
    Execution,
    Expr,
    IntLit,
    IntOp,
    Not as AstNot,
    RelArrayRead,
    RelVar,
    Var,
)
from .formula import (
    Add,
    Atom,
    Const,
    Div,
    Formula,
    Iff,
    Implies,
    Max,
    Min,
    Mod,
    Mul,
    Rel,
    Select,
    Sub,
    SymTerm,
    Symbol,
    Tag,
    Term,
    conj,
    disj,
    neg,
    FALSE,
    TRUE,
)

_CMP_TO_REL = {
    CmpOp.LT: Rel.LT,
    CmpOp.LE: Rel.LE,
    CmpOp.GT: Rel.GT,
    CmpOp.GE: Rel.GE,
    CmpOp.EQ: Rel.EQ,
    CmpOp.NE: Rel.NE,
}

_EXEC_TO_TAG = {
    Execution.ORIGINAL: Tag.ORIGINAL,
    Execution.RELAXED: Tag.RELAXED,
}


def tag_of_execution(execution: Execution) -> Tag:
    """Map an AST execution marker onto a logic tag."""
    return _EXEC_TO_TAG[execution]


#: The ``tag`` of a relational translation: each read supplies its own.
_OWN_TAGS = object()


def term_of_expr(expr: Expr, tag: Optional[Tag] = None) -> Term:
    """Translate an integer expression ``E``; variables receive ``tag``."""
    if isinstance(expr, IntLit):
        return Const(expr.value)
    if isinstance(expr, Var):
        return SymTerm(Symbol(expr.name, _plain_tag(expr, tag)))
    if isinstance(expr, BinOp):
        left = term_of_expr(expr.left, tag)
        right = term_of_expr(expr.right, tag)
        return _apply_int_op(expr.op, left, right)
    if isinstance(expr, ArrayRead):
        array = Symbol(expr.array, _plain_tag(expr, tag))
        return Select(array, term_of_expr(expr.index, tag))
    if isinstance(expr, RelVar):
        return SymTerm(Symbol(expr.name, _own_tag(expr, tag)))
    if isinstance(expr, RelArrayRead):
        array = Symbol(expr.array, _own_tag(expr, tag))
        return Select(array, term_of_expr(expr.index, tag))
    raise TypeError(f"unknown expression node {expr!r}")


def _plain_tag(read: Expr, tag: object) -> Optional[Tag]:
    if tag is _OWN_TAGS:
        raise TypeError(f"untagged read {read} in a relational expression")
    return tag


def _own_tag(read: Union[RelVar, RelArrayRead], tag: object) -> Tag:
    if tag is not _OWN_TAGS:
        raise TypeError(f"tagged read {read} in a program expression")
    return tag_of_execution(read.execution)


def _apply_int_op(op: IntOp, left: Term, right: Term) -> Term:
    if op is IntOp.ADD:
        return Add(left, right)
    if op is IntOp.SUB:
        return Sub(left, right)
    if op is IntOp.MUL:
        return Mul(left, right)
    if op is IntOp.DIV:
        return Div(left, right)
    if op is IntOp.MOD:
        return Mod(left, right)
    if op is IntOp.MIN:
        return Min(left, right)
    if op is IntOp.MAX:
        return Max(left, right)
    raise AssertionError(f"unhandled integer operator {op}")


def formula_of_bool(expr: BoolExpr, tag: Optional[Tag] = None) -> Formula:
    """Translate a boolean expression ``B``; variables receive ``tag``.

    ``formula_of_bool(b, Tag.ORIGINAL)`` is exactly the paper's ``inj_o(b)``
    and ``formula_of_bool(b, Tag.RELAXED)`` is ``inj_r(b)``.
    """
    if isinstance(expr, BoolLit):
        return TRUE if expr.value else FALSE
    if isinstance(expr, Compare):
        return Atom(
            _CMP_TO_REL[expr.op],
            term_of_expr(expr.left, tag),
            term_of_expr(expr.right, tag),
        )
    if isinstance(expr, BoolBin):
        left = formula_of_bool(expr.left, tag)
        right = formula_of_bool(expr.right, tag)
        if expr.op is BoolOp.AND:
            return conj(left, right)
        if expr.op is BoolOp.OR:
            return disj(left, right)
        if expr.op is BoolOp.IMPLIES:
            return Implies(left, right)
        if expr.op is BoolOp.IFF:
            return Iff(left, right)
        raise AssertionError(f"unhandled boolean operator {expr.op}")
    if isinstance(expr, AstNot):
        return neg(formula_of_bool(expr.operand, tag))
    raise TypeError(f"unknown boolean expression node {expr!r}")


def formula_of_rel_bool(expr: BoolExpr) -> Formula:
    """Translate a relational boolean expression ``B*`` (every read tagged)."""
    return formula_of_bool(expr, _OWN_TAGS)  # type: ignore[arg-type]
