"""Formula→closure compilation: evaluate interned DAGs without re-walking them.

:func:`repro.logic.evaluate.evaluate` interprets the formula tree on every
call: each node costs an ``isinstance`` ladder, attribute loads and a
recursive call — per assignment, per quantifier domain element.  The dynamic
hot paths (bounded model search, havoc/relax model enumeration, Monte Carlo
differential scoring) evaluate the *same* interned DAG under hundreds of
thousands of different valuations, so the per-node dispatch is pure
overhead after the first visit.

This module compiles each node once into a Python closure and caches the
closure **on the interned node itself** (the ``_compiled`` slot, exactly
like the ``free_symbols``/``formula_size`` caches of the hash-consed core).
Consequences:

* compilation cost is paid once per distinct node per process — shared
  subterms compile once no matter how many formulas contain them, and
  ``--jobs`` worker processes recompile once per DAG after re-interning;
* an evaluation is a chain of direct closure calls: no type dispatch, no
  attribute loads on the formula, operands pre-bound in cell variables.

Compiled semantics mirror :func:`~repro.logic.evaluate.evaluate` exactly —
operand evaluation order, short-circuiting of the connectives, and every
:class:`~repro.logic.evaluate.EvaluationError` condition (missing symbols,
division by zero, quantifiers without a domain, integer-valued ``Store``)
— which the hypothesis differential suite pins down.

Closures take ``(scalars, arrays, domain)``:

``scalars``
    a mutable ``Dict[Symbol, int]``; quantifiers bind their symbol by
    save/assign/restore on this dict (restored even on error), so a
    caller-supplied dict is unchanged after the call returns;
``arrays``
    ``Dict[Symbol, Dict[int, int]]`` (never mutated);
``domain``
    the finite quantifier domain, or ``None`` (quantifiers then raise).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Mapping, Optional, Sequence

from .evaluate import EvaluationError, Valuation
from .formula import (
    Add,
    And,
    Atom,
    Const,
    Div,
    Divides,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Ite,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Store,
    Sub,
    SymTerm,
    Symbol,
    Term,
    TrueF,
    _UNSET,
)

#: A compiled term: ``(scalars, arrays, domain) -> int``.
CompiledTerm = Callable[[Dict[Symbol, int], Mapping[Symbol, Dict[int, int]], Optional[Sequence[int]]], int]
#: A compiled formula: ``(scalars, arrays, domain) -> bool``.
CompiledFormula = Callable[[Dict[Symbol, int], Mapping[Symbol, Dict[int, int]], Optional[Sequence[int]]], bool]

_REL_OPS = {
    Rel.LT: operator.lt,
    Rel.LE: operator.le,
    Rel.GT: operator.gt,
    Rel.GE: operator.ge,
    Rel.EQ: operator.eq,
    Rel.NE: operator.ne,
}

# Sentinel distinct from any integer value a symbol could hold.
_MISSING = object()


# ---------------------------------------------------------------------------
# Term compilation
# ---------------------------------------------------------------------------


def _build_term(term: Term) -> CompiledTerm:
    cls = type(term)
    if cls is Const:
        value = term.value

        def run_const(scalars, arrays, domain):
            return value

        return run_const
    if cls is SymTerm:
        symbol = term.symbol

        def run_sym(scalars, arrays, domain):
            value = scalars.get(symbol, _MISSING)
            if value is _MISSING:
                raise EvaluationError(f"no value for symbol {symbol}")
            return value

        return run_sym
    if cls is Add:
        left, right = _term(term.left), _term(term.right)
        return lambda s, a, d: left(s, a, d) + right(s, a, d)
    if cls is Sub:
        left, right = _term(term.left), _term(term.right)
        return lambda s, a, d: left(s, a, d) - right(s, a, d)
    if cls is Mul:
        left, right = _term(term.left), _term(term.right)
        return lambda s, a, d: left(s, a, d) * right(s, a, d)
    if cls is Div:
        # The tree-walker evaluates the divisor first; preserve that so a
        # missing symbol on the left cannot mask a division by zero.
        left, right = _term(term.left), _term(term.right)

        def run_div(scalars, arrays, domain):
            divisor = right(scalars, arrays, domain)
            if divisor == 0:
                raise EvaluationError("division by zero")
            return left(scalars, arrays, domain) // divisor

        return run_div
    if cls is Mod:
        left, right = _term(term.left), _term(term.right)

        def run_mod(scalars, arrays, domain):
            divisor = right(scalars, arrays, domain)
            if divisor == 0:
                raise EvaluationError("modulo by zero")
            return left(scalars, arrays, domain) % divisor

        return run_mod
    if cls is Min:
        left, right = _term(term.left), _term(term.right)
        return lambda s, a, d: min(left(s, a, d), right(s, a, d))
    if cls is Max:
        left, right = _term(term.left), _term(term.right)
        return lambda s, a, d: max(left(s, a, d), right(s, a, d))
    if cls is Ite:
        condition = _formula(term.condition)
        then_term, else_term = _term(term.then_term), _term(term.else_term)

        def run_ite(scalars, arrays, domain):
            if condition(scalars, arrays, domain):
                return then_term(scalars, arrays, domain)
            return else_term(scalars, arrays, domain)

        return run_ite
    if cls is Select:
        array = term.array
        index_fn = _term(term.index)

        def run_select(scalars, arrays, domain):
            index = index_fn(scalars, arrays, domain)
            values = arrays.get(array)
            if values is None:
                raise EvaluationError(f"no value for array {array}")
            value = values.get(index, _MISSING)
            if value is _MISSING:
                raise EvaluationError(f"array {array} has no element at index {index}")
            return value

        return run_select
    if cls is Store:

        def run_store(scalars, arrays, domain):
            raise EvaluationError(
                "store terms are array-valued and cannot be evaluated to an integer"
            )

        return run_store
    raise TypeError(f"unknown term {term!r}")


# ---------------------------------------------------------------------------
# Formula compilation
# ---------------------------------------------------------------------------


def _build_formula(formula: Formula) -> CompiledFormula:
    cls = type(formula)
    if cls is TrueF:
        return lambda s, a, d: True
    if cls is FalseF:
        return lambda s, a, d: False
    if cls is Atom:
        rel_op = _REL_OPS[formula.rel]
        left, right = _term(formula.left), _term(formula.right)
        return lambda s, a, d: rel_op(left(s, a, d), right(s, a, d))
    if cls is Divides:
        divisor = formula.divisor
        term_fn = _term(formula.term)

        def run_divides(scalars, arrays, domain):
            value = term_fn(scalars, arrays, domain)
            if divisor == 0:
                raise EvaluationError("divisibility by zero")
            return value % divisor == 0

        return run_divides
    if cls is And:
        operands = tuple(_formula(op) for op in formula.operands)

        def run_and(scalars, arrays, domain):
            for operand in operands:
                if not operand(scalars, arrays, domain):
                    return False
            return True

        return run_and
    if cls is Or:
        operands = tuple(_formula(op) for op in formula.operands)

        def run_or(scalars, arrays, domain):
            for operand in operands:
                if operand(scalars, arrays, domain):
                    return True
            return False

        return run_or
    if cls is Not:
        operand = _formula(formula.operand)
        return lambda s, a, d: not operand(s, a, d)
    if cls is Implies:
        antecedent = _formula(formula.antecedent)
        consequent = _formula(formula.consequent)

        def run_implies(scalars, arrays, domain):
            if not antecedent(scalars, arrays, domain):
                return True
            return consequent(scalars, arrays, domain)

        return run_implies
    if cls is Iff:
        left, right = _formula(formula.left), _formula(formula.right)
        return lambda s, a, d: left(s, a, d) == right(s, a, d)
    if cls is Exists or cls is Forall:
        symbol = formula.symbol
        body = _formula(formula.body)
        existential = cls is Exists
        kind = "an existential" if existential else "a universal"

        def run_quantifier(scalars, arrays, domain):
            if domain is None:
                raise EvaluationError(
                    f"cannot evaluate {kind} quantifier without a finite domain"
                )
            saved = scalars.get(symbol, _MISSING)
            try:
                for value in domain:
                    scalars[symbol] = value
                    if body(scalars, arrays, domain) is existential:
                        return existential
                return not existential
            finally:
                if saved is _MISSING:
                    scalars.pop(symbol, None)
                else:
                    scalars[symbol] = saved

        return run_quantifier
    raise TypeError(f"unknown formula {formula!r}")


# ---------------------------------------------------------------------------
# Memoised entry points
# ---------------------------------------------------------------------------


def _term(term: Term) -> CompiledTerm:
    compiled = term._compiled
    if compiled is not _UNSET:
        return compiled
    compiled = _build_term(term)
    object.__setattr__(term, "_compiled", compiled)
    return compiled


def _formula(formula: Formula) -> CompiledFormula:
    compiled = formula._compiled
    if compiled is not _UNSET:
        return compiled
    compiled = _build_formula(formula)
    object.__setattr__(formula, "_compiled", compiled)
    return compiled


def compile_term(term: Term) -> CompiledTerm:
    """Compile a term to a closure, memoised on the interned node."""
    if not isinstance(term, Term):
        raise TypeError(f"unknown term {term!r}")
    return _term(term)


def compile_formula(formula: Formula) -> CompiledFormula:
    """Compile a formula to a closure, memoised on the interned node."""
    if not isinstance(formula, Formula):
        raise TypeError(f"unknown formula {formula!r}")
    return _formula(formula)


def evaluate_compiled(
    formula: Formula,
    valuation: Valuation,
    domain: Optional[Sequence[int]] = None,
) -> bool:
    """Drop-in for :func:`~repro.logic.evaluate.evaluate` via compilation.

    The valuation's scalar dict is threaded straight through (quantifiers
    save/restore their binding, so it is unchanged on return, including on
    error paths).
    """
    return compile_formula(formula)(valuation.scalars, valuation.arrays, domain)


def evaluate_term_compiled(
    term: Term,
    valuation: Valuation,
    domain: Optional[Sequence[int]] = None,
) -> int:
    """Drop-in for :func:`~repro.logic.evaluate.evaluate_term` via compilation."""
    return compile_term(term)(valuation.scalars, valuation.arrays, domain)
