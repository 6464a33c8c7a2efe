"""Tests for Cooper's quantifier elimination."""

import itertools

import pytest

from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import Const, Divides, conj, disj, exists, forall, free_symbols, sym, var
from repro.solver.cooper import (
    QuantifierEliminationError,
    decide_closed,
    eliminate_quantifiers,
)


def assert_qe_equivalent(formula, names, radius=4):
    """Eliminated formula must agree with the original on a box of valuations."""
    eliminated = eliminate_quantifiers(formula)
    domain = range(-radius - 6, radius + 7)
    for values in itertools.product(range(-radius, radius + 1), repeat=len(names)):
        valuation = Valuation(scalars={sym(name): value for name, value in zip(names, values)})
        assert evaluate(formula, valuation, domain) == evaluate(
            eliminated, valuation, domain
        ), f"QE changed the meaning at {dict(zip(names, values))}"


class TestDecideClosed:
    def test_every_integer_has_a_successor(self):
        assert decide_closed(forall(sym("x"), exists(sym("y"), F.gt(var("y"), var("x")))))

    def test_no_integer_between_zero_and_one(self):
        formula = exists(sym("x"), conj(F.gt(var("x"), Const(0)), F.lt(var("x"), Const(1))))
        assert not decide_closed(formula)

    def test_parity_dichotomy(self):
        formula = forall(
            sym("x"), disj(Divides(2, var("x")), Divides(2, var("x") + Const(1)))
        )
        assert decide_closed(formula)

    def test_multiples_of_four_are_even(self):
        formula = forall(
            sym("x"), F.implies(Divides(4, var("x")), Divides(2, var("x")))
        )
        assert decide_closed(formula)
        # ...and multiples of six are multiples of both two and three.
        formula = forall(
            sym("x"),
            F.implies(Divides(6, var("x")), conj(Divides(2, var("x")), Divides(3, var("x")))),
        )
        assert decide_closed(formula) is True

    def test_even_not_always_multiple_of_four(self):
        formula = forall(
            sym("x"), F.implies(Divides(2, var("x")), Divides(4, var("x")))
        )
        assert not decide_closed(formula)

    def test_linear_diophantine_solvable(self):
        # exists x, y. 3x + 5y == 1 (gcd(3, 5) = 1)
        formula = exists(
            [sym("x"), sym("y")],
            F.eq(var("x") * Const(3) + var("y") * Const(5), Const(1)),
        )
        assert decide_closed(formula)

    def test_linear_diophantine_unsolvable(self):
        # exists x, y. 2x + 4y == 1 has no integer solutions.
        formula = exists(
            [sym("x"), sym("y")],
            F.eq(var("x") * Const(2) + var("y") * Const(4), Const(1)),
        )
        assert not decide_closed(formula)

    def test_not_closed_raises(self):
        with pytest.raises(QuantifierEliminationError):
            decide_closed(F.lt(var("free"), Const(0)))


class TestEliminationEquivalence:
    def test_exists_upper_bound(self):
        formula = exists(sym("x"), conj(F.lt(var("x"), var("y")), F.gt(var("x"), var("z"))))
        assert_qe_equivalent(formula, ["y", "z"])

    def test_exists_with_coefficients(self):
        formula = exists(sym("x"), F.eq(var("x") * Const(3), var("y")))
        assert_qe_equivalent(formula, ["y"], radius=6)

    def test_exists_with_divisibility(self):
        formula = exists(
            sym("x"), conj(Divides(2, var("x")), F.eq(var("x"), var("y")))
        )
        assert_qe_equivalent(formula, ["y"], radius=5)

    def test_forall_bound(self):
        formula = forall(sym("x"), F.implies(F.ge(var("x"), var("y")), F.ge(var("x"), var("z"))))
        assert_qe_equivalent(formula, ["y", "z"])

    def test_eliminated_formula_is_quantifier_free(self):
        formula = exists(sym("x"), F.lt(var("x") * Const(2), var("y")))
        eliminated = eliminate_quantifiers(formula)
        assert "exists" not in str(eliminated)
        assert free_symbols(eliminated) <= {sym("y")}

    def test_equality_and_disequality_atoms(self):
        formula = exists(sym("x"), conj(F.ne(var("x"), var("y")), F.eq(var("x"), var("z"))))
        assert_qe_equivalent(formula, ["y", "z"])

    def test_nested_quantifiers(self):
        formula = exists(
            sym("x"),
            forall(sym("k"), F.implies(F.ge(var("k"), var("x")), F.ge(var("k"), var("y")))),
        )
        assert_qe_equivalent(formula, ["y"], radius=3)
