"""The compiled evaluator: differential equivalence with the tree walker.

The contract of :mod:`repro.logic.compile` is *observational identity* with
:func:`repro.logic.evaluate.evaluate`: for every formula and valuation the
compiled closure returns the same boolean — and raises
:class:`EvaluationError` in exactly the same cases (missing symbols,
division/modulo by zero, quantifiers without a domain, integer-valued
``Store`` terms, missing array elements).  Hypothesis drives the
differential over randomly generated formulas (including quantifiers,
``Ite``, ``Div``/``Mod``, ``Divides`` and array ``Select``) and partial
valuations; deterministic tests pin memoisation and valuation
non-mutation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic import formula as F
from repro.logic.compile import (
    compile_formula,
    compile_term,
    evaluate_compiled,
    evaluate_term_compiled,
)
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


def _outcome(fn):
    """Run one evaluator, capturing its value or its EvaluationError text."""
    try:
        return ("value", fn())
    except EvaluationError as error:
        return ("error", str(error))


class TestDifferentialEquivalence:
    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(formulas(), valuations(), st.booleans())
    def test_formula_compiled_equals_tree(self, formula, valuation, with_domain):
        domain = DOMAIN if with_domain else None
        expected = _outcome(lambda: evaluate(formula, valuation, domain))
        actual = _outcome(lambda: evaluate_compiled(formula, valuation, domain))
        assert actual == expected

    @settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(terms(), valuations())
    def test_term_compiled_equals_tree(self, term, valuation):
        expected = _outcome(lambda: evaluate_term(term, valuation, DOMAIN))
        actual = _outcome(lambda: evaluate_term_compiled(term, valuation, DOMAIN))
        assert actual == expected

    @settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(formulas(), valuations())
    def test_compiled_run_does_not_mutate_valuation(self, formula, valuation):
        scalars_before = dict(valuation.scalars)
        try:
            evaluate_compiled(formula, valuation, DOMAIN)
        except EvaluationError:
            pass
        assert valuation.scalars == scalars_before


class TestCompilationCache:
    def test_closure_memoised_on_interned_node(self):
        formula = conj(F.ge(var("x"), Const(0)), F.lt(var("x"), Const(9)))
        assert compile_formula(formula) is compile_formula(formula)
        # Interning means an equal formula built separately shares the closure.
        again = conj(F.ge(var("x"), Const(0)), F.lt(var("x"), Const(9)))
        assert again is formula
        assert compile_formula(again) is compile_formula(formula)

    def test_shared_subterm_compiles_once(self):
        shared = F.eq(var("x") + var("y"), Const(0))
        left = conj(shared, F.gt(var("x"), Const(-5)))
        right = disj(shared, F.lt(var("y"), Const(5)))
        compile_formula(left)
        closures = (shared._compiled, shared.left._compiled)
        compile_formula(right)
        # Compiling `right` must not recompile the shared atom or its terms.
        assert (shared._compiled, shared.left._compiled) == closures
        assert compile_formula(shared) is closures[0]

    def test_store_term_raises_like_tree_walker(self):
        stored = Store(ARRAY, Const(0), Const(1))
        valuation = Valuation(arrays={ARRAY: {0: 5}})
        with pytest.raises(EvaluationError):
            evaluate_term(stored, valuation, DOMAIN)
        with pytest.raises(EvaluationError):
            evaluate_term_compiled(stored, valuation, DOMAIN)

    def test_quantifier_shadowing(self):
        # exists x. (x == 2 && forall x. x >= -3) with outer x bound to 0.
        inner = Forall(sym("x"), F.ge(var("x"), Const(-3)))
        formula = Exists(sym("x"), conj(eq(var("x"), Const(2)), inner))
        valuation = Valuation(scalars={sym("x"): 0})
        assert evaluate(formula, valuation, DOMAIN) is True
        assert evaluate_compiled(formula, valuation, DOMAIN) is True
        assert valuation.scalars[sym("x")] == 0

    def test_compile_rejects_non_nodes(self):
        with pytest.raises(TypeError):
            compile_formula(var("x"))
        with pytest.raises(TypeError):
            compile_term(F.TRUE)
