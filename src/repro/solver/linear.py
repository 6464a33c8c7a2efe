"""Linear integer terms and atom canonicalisation.

The decision procedures work over *linear* terms: integer-coefficient linear
combinations of symbols plus a constant.  This module converts formula terms
into :class:`LinearTerm` values (raising :class:`NonLinearError` when a term
is genuinely non-linear, e.g. the product of two variables) and provides the
canonical atom forms used by Cooper's quantifier elimination:

* ``0 < t``  — a strict inequality with the term on the right,
* ``d | t``  — divisibility of a linear term by a positive constant,
* negated divisibility.

Equalities and disequalities are rewritten into strict inequalities during
canonicalisation (over the integers ``a = b`` iff ``a < b + 1 && b < a + 1``).

:func:`atom_linear` linearizes an interned :class:`~repro.logic.formula.Atom`
or :class:`~repro.logic.formula.Divides` once per process and keeps the
result on the node (the ``_linear`` slot, like the ``free_symbols`` cache),
so every cube that mentions the atom reads the same :class:`LinearAtom`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, FrozenSet, Mapping, Optional, Tuple, Union

from .. import telemetry
from ..logic.formula import (
    _UNSET,
    Add,
    Atom,
    Const,
    Div,
    Divides,
    Max,
    Min,
    Mod,
    Mul,
    Select,
    Store,
    Sub,
    SymTerm,
    Symbol,
    Term,
    Ite,
    Rel,
)


class NonLinearError(Exception):
    """Raised when a term cannot be expressed as a linear combination."""


@dataclass(frozen=True)
class LinearTerm:
    """An integer linear combination ``sum(coeffs[s] * s) + constant``.

    ``coeffs`` is sorted by symbol and never contains zero entries, so
    structural equality of two :class:`LinearTerm` values coincides with
    semantic equality of the linear functions they denote.  :meth:`negate`,
    :meth:`scale` and :meth:`drop` preserve that invariant coefficient by
    coefficient and build the tuple directly; only :meth:`of`, :meth:`add`
    and :meth:`substitute` merge and sort.
    """

    coeffs: Tuple[Tuple[Symbol, int], ...]
    constant: int = 0

    @staticmethod
    def of(coeffs: Mapping[Symbol, int], constant: int = 0) -> "LinearTerm":
        cleaned = tuple(sorted(((s, c) for s, c in coeffs.items() if c != 0)))
        return LinearTerm(cleaned, constant)

    @staticmethod
    def constant_term(value: int) -> "LinearTerm":
        return LinearTerm((), value)

    @staticmethod
    def variable(symbol: Symbol, coefficient: int = 1) -> "LinearTerm":
        if coefficient == 0:
            return LinearTerm((), 0)
        return LinearTerm(((symbol, coefficient),), 0)

    # -- accessors -----------------------------------------------------------

    def coefficient(self, symbol: Symbol) -> int:
        for sym, coeff in self.coeffs:
            if sym == symbol:
                return coeff
        return 0

    def symbols(self) -> FrozenSet[Symbol]:
        return frozenset(sym for sym, _ in self.coeffs)

    def is_constant(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> Dict[Symbol, int]:
        return dict(self.coeffs)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "LinearTerm") -> "LinearTerm":
        coeffs = self.as_dict()
        for sym, coeff in other.coeffs:
            coeffs[sym] = coeffs.get(sym, 0) + coeff
        return LinearTerm.of(coeffs, self.constant + other.constant)

    def negate(self) -> "LinearTerm":
        return LinearTerm(tuple([(s, -c) for s, c in self.coeffs]), -self.constant)

    def subtract(self, other: "LinearTerm") -> "LinearTerm":
        return self.add(other.negate())

    def scale(self, factor: int) -> "LinearTerm":
        if factor == 0:
            return ZERO
        if factor == 1:
            return self
        return LinearTerm(tuple([(s, c * factor) for s, c in self.coeffs]), self.constant * factor)

    def drop(self, symbol: Symbol) -> "LinearTerm":
        """Remove ``symbol`` from the combination (coefficient becomes 0)."""
        return LinearTerm(tuple([p for p in self.coeffs if p[0] is not symbol]), self.constant)

    def substitute(self, symbol: Symbol, replacement: "LinearTerm") -> "LinearTerm":
        """Replace ``symbol`` with another linear term (``self`` when absent)."""
        coeff = self.coefficient(symbol)
        if coeff == 0:
            return self
        return self.drop(symbol).add(replacement.scale(coeff))

    def evaluate(self, assignment: Mapping[Symbol, int]) -> int:
        total = self.constant
        for sym, coeff in self.coeffs:
            if sym not in assignment:
                raise KeyError(f"no value for {sym}")
            total += coeff * assignment[sym]
        return total

    def content(self) -> int:
        """The gcd of all coefficients (not the constant); 0 for constants."""
        result = 0
        for _sym, coeff in self.coeffs:
            result = gcd(result, abs(coeff))
        return result

    def to_term(self) -> Term:
        """Convert back to a formula term (for pretty-printing results)."""
        result: Optional[Term] = None
        for sym, coeff in self.coeffs:
            part: Term
            if coeff == 1:
                part = SymTerm(sym)
            else:
                part = Mul(Const(coeff), SymTerm(sym))
            result = part if result is None else Add(result, part)
        if result is None:
            return Const(self.constant)
        if self.constant != 0:
            result = Add(result, Const(self.constant))
        return result

    def __str__(self) -> str:
        parts = []
        for sym, coeff in self.coeffs:
            if coeff == 1:
                parts.append(str(sym))
            elif coeff == -1:
                parts.append(f"-{sym}")
            else:
                parts.append(f"{coeff}*{sym}")
        if self.constant != 0 or not parts:
            parts.append(str(self.constant))
        return " + ".join(parts)


ZERO = LinearTerm((), 0)
ONE = LinearTerm((), 1)


def linearize(term: Term) -> LinearTerm:
    """Convert a formula term into a :class:`LinearTerm`.

    Raises :class:`NonLinearError` for products of non-constant terms,
    division/modulo, min/max, if-then-else and array reads — those must be
    eliminated by :mod:`repro.solver.normalize` before linearisation.
    """
    if isinstance(term, Const):
        return LinearTerm.constant_term(term.value)
    if isinstance(term, SymTerm):
        return LinearTerm.variable(term.symbol)
    if isinstance(term, Add):
        return linearize(term.left).add(linearize(term.right))
    if isinstance(term, Sub):
        return linearize(term.left).subtract(linearize(term.right))
    if isinstance(term, Mul):
        left = linearize(term.left)
        right = linearize(term.right)
        if left.is_constant():
            return right.scale(left.constant)
        if right.is_constant():
            return left.scale(right.constant)
        raise NonLinearError(f"non-linear product {term}")
    if isinstance(term, (Div, Mod, Min, Max, Ite, Select, Store)):
        raise NonLinearError(f"term {term} must be eliminated before linearisation")
    raise TypeError(f"unknown term {term!r}")


def is_linear(term: Term) -> bool:
    """Return True iff :func:`linearize` succeeds for ``term``."""
    try:
        linearize(term)
        return True
    except NonLinearError:
        return False


@dataclass(frozen=True)
class LinearAtom:
    """The linear content of an interned atom, computed once per atom.

    ``term`` is ``left - right`` for an :class:`Atom` and the linearized
    term for a :class:`Divides`.  ``rows`` are the one-sided ``t <= 0``
    forms every integer model of the atom satisfies: one for ``<``, ``<=``,
    ``>``, ``>=``, the two sides ``term`` and ``-term`` for ``==``, and none
    for ``!=`` or divisibility.  They are what the cube solver's
    inequalities and the box prefilter's rows are built from, and are
    shared by every caller, hence immutable.
    """

    term: LinearTerm
    rows: Tuple[LinearTerm, ...]


class _NonLinearAtom:
    """Cached negative result: the atom is not linear, for this reason."""

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message


def atom_linear(node: Union[Atom, Divides]) -> LinearAtom:
    """The :class:`LinearAtom` of ``node``, cached on the interned node.

    Raises :class:`NonLinearError` (with the same message every time) when
    the atom's terms are not linear.
    """
    memo = node._linear
    if memo is _UNSET:
        memo = _linearize_atom(node)
        object.__setattr__(node, "_linear", memo)
    if type(memo) is _NonLinearAtom:
        raise NonLinearError(memo.message)
    return memo


def _linearize_atom(node: Union[Atom, Divides]) -> Union[LinearAtom, _NonLinearAtom]:
    telemetry.count("solver.linearize.misses")
    try:
        if type(node) is Divides:
            return LinearAtom(linearize(node.term), ())
        term = linearize(node.left).subtract(linearize(node.right))
    except NonLinearError as exc:
        return _NonLinearAtom(str(exc))
    rel = node.rel
    if rel is Rel.LT:
        rows: Tuple[LinearTerm, ...] = (term.add(ONE),)
    elif rel is Rel.LE:
        rows = (term,)
    elif rel is Rel.GT:
        rows = (term.negate().add(ONE),)
    elif rel is Rel.GE:
        rows = (term.negate(),)
    elif rel is Rel.EQ:
        rows = (term, term.negate())
    else:  # Rel.NE carries no one-sided content
        rows = ()
    return LinearAtom(term, rows)
