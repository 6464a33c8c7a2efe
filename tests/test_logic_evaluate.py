"""Tests for formula evaluation over concrete valuations.

:func:`repro.logic.evaluate.evaluate` is the assertion logic's one
evaluator: the bounded model search, model enumeration, the Monte Carlo
relate checks and the counterexample re-check of the forensics all run on
it.  Besides values, these tests pin its error channel — which
:class:`EvaluationError` surfaces, with which text (the forensics print
it) — and that evaluation never changes the valuation it is given (the
model search reuses one valuation for a whole sweep).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic import formula as F
from repro.logic.evaluate import EvaluationError, Valuation, evaluate, evaluate_term
from repro.logic.formula import (
    Const,
    Divides,
    Exists,
    Forall,
    Iff,
    Implies,
    Ite,
    Select,
    Store,
    Symbol,
    conj,
    disj,
    eq,
    exists,
    forall,
    neg,
    sym,
    var,
)

NAMES = ["x", "y", "z"]
ARRAY = Symbol("A")
names = st.sampled_from(NAMES)
small_ints = st.integers(min_value=-4, max_value=4)
DOMAIN = range(-3, 4)


@st.composite
def terms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        choice = draw(st.integers(min_value=0, max_value=2))
        if choice == 0:
            return var(draw(names))
        if choice == 1:
            return Const(draw(small_ints))
        return Select(ARRAY, Const(draw(st.integers(min_value=-1, max_value=2))))
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice <= 4:
        op = draw(st.sampled_from([F.Add, F.Sub, F.Mul, F.Min, F.Max]))
        return op(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    if choice == 5:
        return F.Div(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    if choice == 6:
        return F.Mod(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))
    return Ite(
        draw(formulas(depth=0)),
        draw(terms(depth=depth - 1)),
        draw(terms(depth=depth - 1)),
    )


@st.composite
def atoms(draw):
    choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 6:
        return Divides(draw(st.integers(min_value=-3, max_value=3)), draw(terms()))
    rel = [F.lt, F.le, F.gt, F.ge, F.eq, F.ne][choice]
    return rel(draw(terms()), draw(terms()))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return draw(atoms())
    if choice == 1:
        return neg(draw(formulas(depth=depth - 1)))
    if choice == 2:
        return conj(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if choice == 3:
        return disj(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if choice == 4:
        return Implies(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    if choice == 5:
        return Iff(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    quantifier = Exists if draw(st.booleans()) else Forall
    return quantifier(sym(draw(names)), draw(formulas(depth=depth - 1)))


@st.composite
def valuations(draw):
    """Possibly *partial* valuations: missing symbols/cells exercise errors."""
    scalars = {
        sym(name): draw(small_ints)
        for name in NAMES
        if draw(st.booleans()) or draw(st.booleans())  # present with p=3/4
    }
    arrays = {}
    if draw(st.booleans()):
        arrays[ARRAY] = {
            index: draw(small_ints)
            for index in range(-1, 3)
            if draw(st.integers(min_value=0, max_value=3)) > 0
        }
    return Valuation(scalars=scalars, arrays=arrays)


def valuation(**scalars):
    return Valuation(scalars={sym(name): value for name, value in scalars.items()})


class TestTermEvaluation:
    def test_arithmetic(self):
        term = (var("x") + 2) * var("y") - Const(1)
        assert evaluate_term(term, valuation(x=3, y=4)) == 19

    def test_division_and_modulo_floor_semantics(self):
        assert evaluate_term(F.Div(Const(-7), Const(2)), Valuation()) == -4
        assert evaluate_term(F.Mod(Const(-7), Const(3)), Valuation()) == 2

    def test_division_by_zero_raises(self):
        with pytest.raises(EvaluationError):
            evaluate_term(F.Div(var("x"), Const(0)), valuation(x=1))

    def test_min_max(self):
        assert evaluate_term(F.Min(Const(2), Const(-3)), Valuation()) == -3
        assert evaluate_term(F.Max(Const(2), Const(-3)), Valuation()) == 2

    def test_ite(self):
        term = Ite(F.lt(var("x"), Const(0)), Const(-1), Const(1))
        assert evaluate_term(term, valuation(x=-5)) == -1
        assert evaluate_term(term, valuation(x=5)) == 1

    def test_select(self):
        v = Valuation(scalars={sym("i"): 1}, arrays={Symbol("A"): {0: 10, 1: 20}})
        assert evaluate_term(Select(Symbol("A"), var("i")), v) == 20

    def test_select_missing_index_raises(self):
        v = Valuation(arrays={Symbol("A"): {0: 10}})
        with pytest.raises(EvaluationError):
            evaluate_term(Select(Symbol("A"), Const(5)), v)

    def test_missing_symbol_raises(self):
        with pytest.raises(EvaluationError):
            evaluate_term(var("missing"), Valuation())

    def test_store_cannot_be_evaluated(self):
        with pytest.raises(EvaluationError):
            evaluate_term(Store(Symbol("A"), Const(0), Const(1)), Valuation())


class TestFormulaEvaluation:
    def test_atoms_and_connectives(self):
        formula = F.conj(F.lt(var("x"), Const(5)), F.ne(var("x"), Const(0)))
        assert evaluate(formula, valuation(x=3)) is True
        assert evaluate(formula, valuation(x=0)) is False

    def test_implication_and_iff(self):
        formula = F.implies(F.gt(var("x"), Const(0)), F.ge(var("x"), Const(1)))
        assert evaluate(formula, valuation(x=0)) is True
        assert evaluate(formula, valuation(x=2)) is True
        iff = F.iff(F.gt(var("x"), Const(0)), F.lt(var("x"), Const(0)))
        assert evaluate(iff, valuation(x=1)) is False

    def test_divides(self):
        assert evaluate(Divides(3, var("x")), valuation(x=9)) is True
        assert evaluate(Divides(3, var("x")), valuation(x=10)) is False

    def test_quantifiers_over_finite_domain(self):
        domain = range(-3, 4)
        formula = exists(sym("y"), F.eq(var("y") * Const(2), var("x")))
        assert evaluate(formula, valuation(x=4), domain) is True
        assert evaluate(formula, valuation(x=3), domain) is False
        universal = forall(sym("y"), F.le(var("y"), Const(3)))
        assert evaluate(universal, Valuation(), domain) is True

    def test_quantifier_without_domain_raises(self):
        formula = exists(sym("y"), F.eq(var("y"), Const(0)))
        with pytest.raises(EvaluationError):
            evaluate(formula, Valuation())

    def test_valuation_with_scalar_is_functional(self):
        base = valuation(x=1)
        updated = base.with_scalar(sym("x"), 2)
        assert base.scalar(sym("x")) == 1
        assert updated.scalar(sym("x")) == 2


class TestErrorChannel:
    """Which error surfaces, and its text, as the forensics print it."""

    @pytest.mark.parametrize(
        "term, message",
        [
            (var("missing"), "no value for symbol missing"),
            (F.Div(var("x"), Const(0)), "division by zero"),
            (F.Mod(var("x"), Const(0)), "modulo by zero"),
            (Select(Symbol("B"), Const(0)), "no value for array B"),
            (Select(ARRAY, Const(5)), "array A has no element at index 5"),
            (
                Store(ARRAY, Const(0), Const(1)),
                "store terms are array-valued and cannot be evaluated to an integer",
            ),
        ],
    )
    def test_term_error_text(self, term, message):
        v = Valuation(scalars={sym("x"): 1}, arrays={ARRAY: {0: 10}})
        with pytest.raises(EvaluationError) as error:
            evaluate_term(term, v)
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "formula, message",
        [
            (Divides(0, var("x")), "divisibility by zero"),
            (
                exists(sym("y"), F.eq(var("y"), Const(0))),
                "cannot evaluate an existential quantifier without a finite domain",
            ),
            (
                forall(sym("y"), F.eq(var("y"), Const(0))),
                "cannot evaluate a universal quantifier without a finite domain",
            ),
        ],
    )
    def test_formula_error_text(self, formula, message):
        with pytest.raises(EvaluationError) as error:
            evaluate(formula, valuation(x=1))
        assert str(error.value) == message

    def test_divisor_is_evaluated_first(self):
        # A missing symbol on the left cannot mask a division by zero.
        with pytest.raises(EvaluationError, match="division by zero"):
            evaluate_term(F.Div(var("missing"), Const(0)), Valuation())
        with pytest.raises(EvaluationError, match="modulo by zero"):
            evaluate_term(F.Mod(var("missing"), Const(0)), Valuation())

    def test_connectives_short_circuit(self):
        erroring = F.eq(F.Div(Const(1), var("x")), Const(0))
        false, true = F.lt(var("x"), Const(0)), F.ge(var("x"), Const(0))
        v = valuation(x=0)
        assert evaluate(conj(false, erroring), v) is False
        assert evaluate(disj(true, erroring), v) is True
        assert evaluate(F.implies(false, erroring), v) is True
        with pytest.raises(EvaluationError):
            evaluate(conj(erroring, false), v)

    def test_non_nodes_rejected(self):
        with pytest.raises(TypeError):
            evaluate(var("x"), valuation(x=1))
        with pytest.raises(TypeError):
            evaluate_term(F.TRUE, Valuation())


class TestValuationUnchanged:
    def test_quantifier_shadowing(self):
        # exists x. (x == 2 && forall x. x >= -3) with outer x bound to 0.
        inner = Forall(sym("x"), F.ge(var("x"), Const(-3)))
        formula = Exists(sym("x"), conj(eq(var("x"), Const(2)), inner))
        v = valuation(x=0)
        assert evaluate(formula, v, DOMAIN) is True
        assert v.scalars == {sym("x"): 0}

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(formulas(), valuations(), st.booleans())
    def test_evaluation_does_not_mutate_valuation(self, formula, v, with_domain):
        scalars_before = dict(v.scalars)
        arrays_before = {array: dict(cells) for array, cells in v.arrays.items()}
        try:
            evaluate(formula, v, DOMAIN if with_domain else None)
        except EvaluationError:
            pass
        assert v.scalars == scalars_before
        assert v.arrays == arrays_before
