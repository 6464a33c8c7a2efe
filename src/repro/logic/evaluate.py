"""Evaluation of terms and formulas over concrete valuations (Figure 6).

The denotational semantics of the assertion logic maps a unary formula to
the set of states that satisfy it, and a relational formula to the set of
state pairs.  Concretely we provide an *evaluator*: given a valuation of the
free symbols (and array symbols) a formula evaluates to a boolean.

Quantifiers are evaluated over an explicit finite ``domain`` (a bounded
range of integers).  This is exactly what the metatheory test harness needs:
it checks the paper's soundness statements over bounded state spaces.  For
unbounded reasoning, use the decision procedures in :mod:`repro.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

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
    Select,
    Store,
    Sub,
    SymTerm,
    Symbol,
    Term,
    TrueF,
)


class EvaluationError(Exception):
    """Raised when a term or formula cannot be evaluated (missing symbol,
    division by zero, or a quantifier with no evaluation domain)."""


@dataclass
class Valuation:
    """A concrete assignment of integers to symbols and arrays to array symbols."""

    scalars: Dict[Symbol, int] = field(default_factory=dict)
    arrays: Dict[Symbol, Dict[int, int]] = field(default_factory=dict)

    def copy(self) -> "Valuation":
        return Valuation(
            scalars=dict(self.scalars),
            arrays={name: dict(values) for name, values in self.arrays.items()},
        )

    def with_scalar(self, symbol: Symbol, value: int) -> "Valuation":
        if self.scalars.get(symbol) == value and symbol in self.scalars:
            return self
        updated = self.copy()
        updated.scalars[symbol] = value
        return updated

    def scalar(self, symbol: Symbol) -> int:
        if symbol not in self.scalars:
            raise EvaluationError(f"no value for symbol {symbol}")
        return self.scalars[symbol]

    def array_element(self, array: Symbol, index: int) -> int:
        values = self.arrays.get(array)
        if values is None:
            raise EvaluationError(f"no value for array {array}")
        if index not in values:
            raise EvaluationError(f"array {array} has no element at index {index}")
        return values[index]


def evaluate_term(term: Term, valuation: Valuation, domain: Optional[Sequence[int]] = None) -> int:
    """Evaluate a term to an integer under ``valuation``."""
    if isinstance(term, Const):
        return term.value
    if isinstance(term, SymTerm):
        return valuation.scalar(term.symbol)
    if isinstance(term, Add):
        return evaluate_term(term.left, valuation, domain) + evaluate_term(term.right, valuation, domain)
    if isinstance(term, Sub):
        return evaluate_term(term.left, valuation, domain) - evaluate_term(term.right, valuation, domain)
    if isinstance(term, Mul):
        return evaluate_term(term.left, valuation, domain) * evaluate_term(term.right, valuation, domain)
    if isinstance(term, Div):
        divisor = evaluate_term(term.right, valuation, domain)
        if divisor == 0:
            raise EvaluationError("division by zero")
        return evaluate_term(term.left, valuation, domain) // divisor
    if isinstance(term, Mod):
        divisor = evaluate_term(term.right, valuation, domain)
        if divisor == 0:
            raise EvaluationError("modulo by zero")
        return evaluate_term(term.left, valuation, domain) % divisor
    if isinstance(term, Min):
        return min(evaluate_term(term.left, valuation, domain), evaluate_term(term.right, valuation, domain))
    if isinstance(term, Max):
        return max(evaluate_term(term.left, valuation, domain), evaluate_term(term.right, valuation, domain))
    if isinstance(term, Ite):
        if evaluate(term.condition, valuation, domain):
            return evaluate_term(term.then_term, valuation, domain)
        return evaluate_term(term.else_term, valuation, domain)
    if isinstance(term, Select):
        index = evaluate_term(term.index, valuation, domain)
        return valuation.array_element(term.array, index)
    if isinstance(term, Store):
        raise EvaluationError("store terms are array-valued and cannot be evaluated to an integer")
    raise TypeError(f"unknown term {term!r}")


def evaluate(formula: Formula, valuation: Valuation, domain: Optional[Sequence[int]] = None) -> bool:
    """Evaluate a formula to a boolean under ``valuation``.

    Quantified subformulas are evaluated over ``domain``; if ``domain`` is
    ``None`` a quantifier raises :class:`EvaluationError`.
    """
    if isinstance(formula, TrueF):
        return True
    if isinstance(formula, FalseF):
        return False
    if isinstance(formula, Atom):
        left = evaluate_term(formula.left, valuation, domain)
        right = evaluate_term(formula.right, valuation, domain)
        return formula.rel.apply(left, right)
    if isinstance(formula, Divides):
        value = evaluate_term(formula.term, valuation, domain)
        if formula.divisor == 0:
            raise EvaluationError("divisibility by zero")
        return value % formula.divisor == 0
    if isinstance(formula, And):
        return all(evaluate(op, valuation, domain) for op in formula.operands)
    if isinstance(formula, Or):
        return any(evaluate(op, valuation, domain) for op in formula.operands)
    if isinstance(formula, Not):
        return not evaluate(formula.operand, valuation, domain)
    if isinstance(formula, Implies):
        return (not evaluate(formula.antecedent, valuation, domain)) or evaluate(
            formula.consequent, valuation, domain
        )
    if isinstance(formula, Iff):
        return evaluate(formula.left, valuation, domain) == evaluate(formula.right, valuation, domain)
    if isinstance(formula, Exists):
        if domain is None:
            raise EvaluationError("cannot evaluate an existential quantifier without a finite domain")
        return any(
            evaluate(formula.body, valuation.with_scalar(formula.symbol, value), domain)
            for value in domain
        )
    if isinstance(formula, Forall):
        if domain is None:
            raise EvaluationError("cannot evaluate a universal quantifier without a finite domain")
        return all(
            evaluate(formula.body, valuation.with_scalar(formula.symbol, value), domain)
            for value in domain
        )
    raise TypeError(f"unknown formula {formula!r}")
