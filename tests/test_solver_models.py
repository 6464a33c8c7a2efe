"""Tests for bounded model search and model enumeration."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.casestudies.lu import LU
from repro.explore.scoring import score_candidate
from repro.logic import formula as F
from repro.logic.evaluate import EvaluationError, Valuation, evaluate
from repro.logic.formula import (
    Const,
    Divides,
    Exists,
    Forall,
    Ite,
    Select,
    Symbol,
    conj,
    disj,
    exists,
    forall,
    neg,
    sym,
    var,
)
from repro.solver.backend import BACKENDS, active_backend, use_backend
from repro.solver.models import (
    _candidate_values,
    _flatten_conjuncts,
    _prune_values,
    _unit_constraints,
    bounded_model_search,
    enumerate_models,
)

NAMES = ["x", "y", "z"]
names = st.sampled_from(NAMES)
small_ints = st.integers(min_value=-4, max_value=4)


@st.composite
def total_terms(draw, depth=2):
    """Terms from the *total* fragment: no Div/Mod/Select, so evaluation
    under a full assignment can never raise."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(names))
        return Const(draw(small_ints))
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice <= 4:
        op = draw(st.sampled_from([F.Add, F.Sub, F.Mul, F.Min, F.Max]))
        return op(draw(total_terms(depth=depth - 1)), draw(total_terms(depth=depth - 1)))
    return Ite(
        draw(total_formulas(depth=0)),
        draw(total_terms(depth=depth - 1)),
        draw(total_terms(depth=depth - 1)),
    )


@st.composite
def total_atoms(draw):
    choice = draw(st.integers(min_value=0, max_value=6))
    if choice == 6:
        return Divides(draw(st.sampled_from([-3, -2, 2, 3])), draw(total_terms()))
    rel = [F.lt, F.le, F.gt, F.ge, F.eq, F.ne][choice]
    return rel(draw(total_terms()), draw(total_terms()))


@st.composite
def total_formulas(draw, depth=2):
    if depth == 0:
        return draw(total_atoms())
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return draw(total_atoms())
    if choice == 1:
        return neg(draw(total_formulas(depth=depth - 1)))
    if choice == 2:
        return conj(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    if choice == 3:
        return disj(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    if choice == 4:
        return F.Implies(
            draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1))
        )
    if choice == 5:
        return F.Iff(draw(total_formulas(depth=depth - 1)), draw(total_formulas(depth=depth - 1)))
    quantifier = Exists if draw(st.booleans()) else Forall
    return quantifier(sym(draw(names)), draw(total_formulas(depth=depth - 1)))


def _search_both_evaluators(formula, **kwargs):
    results = {}
    for name in BACKENDS:
        with use_backend(name):
            results[name] = bounded_model_search(formula, **kwargs)
    return results


class TestBoundedModelSearch:
    def test_finds_model_in_box(self):
        formula = conj(F.gt(var("x"), Const(1)), F.lt(var("x"), Const(4)))
        model = bounded_model_search(formula, radius=4)
        assert model is not None and 1 < model[sym("x")] < 4

    def test_prefers_small_magnitudes(self):
        model = bounded_model_search(F.ge(var("x"), Const(0)), radius=4)
        assert model == {sym("x"): 0}

    def test_no_model_in_box_returns_none(self):
        formula = F.gt(var("x"), Const(100))
        assert bounded_model_search(formula, radius=4) is None

    def test_nonlinear_supported(self):
        formula = F.eq(var("x") * var("x"), Const(9))
        model = bounded_model_search(formula, radius=4)
        assert abs(model[sym("x")]) == 3

    def test_arrays_not_supported(self):
        formula = F.eq(Select(Symbol("A"), Const(0)), Const(1))
        assert bounded_model_search(formula) is None

    def test_closed_formula(self):
        assert bounded_model_search(F.TRUE) == {}
        assert bounded_model_search(F.FALSE) is None

    def test_quantifier_evaluated_over_domain(self):
        formula = exists(sym("k"), F.eq(var("x"), var("k") * Const(2)))
        model = bounded_model_search(formula, radius=3)
        assert model is not None and model[sym("x")] % 2 == 0


class TestEnumerateModels:
    def test_enumerates_all_in_range(self):
        formula = conj(F.ge(var("x"), Const(-1)), F.le(var("x"), Const(1)))
        models = enumerate_models(formula, radius=3)
        values = sorted(model[sym("x")] for model in models)
        assert values == [-1, 0, 1]

    def test_respects_limit(self):
        formula = F.ge(var("x"), Const(-10))
        models = enumerate_models(formula, radius=5, limit=3)
        assert len(models) == 3

    def test_candidates_override_box(self):
        formula = F.eq(var("x"), Const(100))
        assert enumerate_models(formula, radius=2) == []
        models = enumerate_models(formula, radius=2, candidates={sym("x"): [99, 100, 101]})
        assert models == [{sym("x"): 100}]

    def test_multiple_symbols(self):
        formula = F.eq(var("x") + var("y"), Const(0))
        models = enumerate_models(formula, radius=1)
        assert all(model[sym("x")] + model[sym("y")] == 0 for model in models)
        assert len(models) == 3


def _pruned(formula, radius):
    """Each free symbol's candidate list after unit propagation."""
    symbols = sorted(F.free_symbols(formula))
    return _prune_values(
        symbols,
        [_candidate_values(radius)] * len(symbols),
        _unit_constraints(_flatten_conjuncts(formula)),
    )


class TestUnitPropagation:
    """Unit atoms among the top-level conjuncts prune the candidate sweep."""

    def test_pinned_symbol_prunes_to_one_candidate(self):
        formula = conj(F.eq(var("x"), Const(3)), F.eq(var("y"), var("x") + Const(1)))
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 3, sym("y"): 4}
        # x is pinned to one candidate, so at most |values| assignments run.
        assert _pruned(formula, radius=4) == [[3], _candidate_values(4)]

    def test_bounds_and_disequalities_prune(self):
        formula = conj(
            F.ge(var("x"), Const(1)),
            F.lt(var("x"), Const(4)),
            F.ne(var("x"), Const(2)),
            F.eq(var("x") * var("x"), Const(9)),
        )
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 3}
        assert _pruned(formula, radius=4) == [[1, 3]]  # the unit atoms keep {1, 3}

    def test_flipped_and_negated_unit_atoms(self):
        formula = conj(
            F.le(Const(2), var("x")),  # constant on the left
            F.neg(F.ge(var("x"), Const(4))),  # negated atom
        )
        models = enumerate_models(formula, radius=5)
        assert sorted(model[sym("x")] for model in models) == [2, 3]

    def test_divides_unit_atom(self):
        formula = conj(Divides(3, var("x")), F.ne(var("x"), Const(0)))
        models = enumerate_models(formula, radius=4)
        assert sorted(model[sym("x")] for model in models) == [-3, 3]

    def test_contradictory_units_yield_nothing(self):
        formula = conj(F.eq(var("x"), Const(1)), F.eq(var("x"), Const(2)))
        assert bounded_model_search(formula, radius=4) is None
        assert enumerate_models(formula, radius=4) == []

    def test_pruning_preserves_first_model_order(self):
        # The unpruned sweep finds x by |magnitude|; pruning must keep that.
        formula = conj(F.ne(var("x"), Const(0)), F.ge(var("x"), Const(-3)))
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 1}

    def test_pruning_respects_candidate_override_order(self):
        formula = conj(F.ge(var("x"), Const(5)), F.le(var("x"), Const(9)))
        models = enumerate_models(
            formula, radius=2, candidates={sym("x"): [8, 6, 9, 1, 5]}
        )
        assert [model[sym("x")] for model in models] == [8, 6, 9, 5]

    def test_quantified_conjunct_still_checked_after_pruning(self):
        formula = conj(
            F.eq(var("x"), Const(2)),
            exists(sym("k"), F.eq(var("x"), var("k") * Const(2))),
        )
        model = bounded_model_search(formula, radius=4)
        assert model == {sym("x"): 2}
        unsat = conj(
            F.eq(var("x"), Const(3)),
            exists(sym("k"), F.eq(var("x"), var("k") * Const(2))),
        )
        assert bounded_model_search(unsat, radius=4) is None

    def test_pruned_error_assignments_cannot_abort(self):
        """Pruning may upgrade an old error-abort (UNKNOWN) to a sound SAT.

        The blind sweep visited y = 0 first, raised a division-by-zero
        EvaluationError and aborted the whole search with None even though
        y = 1 is a genuine model.  The unit atom ``y >= 1`` prunes y = 0,
        so the erroring assignment is never visited and the model is found.
        This is the one deliberate whole-search divergence from the old
        semantics — strictly more conclusive, never less sound (the found
        model is checked by evaluation like any other).
        """
        formula = conj(
            F.eq(F.Div(Const(1), var("y")), Const(1)),
            F.ge(var("y"), Const(1)),
        )
        assert bounded_model_search(formula, radius=4) == {sym("y"): 1}
        models = enumerate_models(formula, radius=4)
        assert {m[sym("y")] for m in models} == {1}


class TestEvaluatorSwitch:
    def test_evaluator_universe(self):
        assert BACKENDS == ("tree", "compiled")

    def test_default_is_compiled(self):
        assert active_backend() == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with use_backend("quantum"):
                pass

    def test_use_backend_restores_previous(self):
        before = active_backend()
        with use_backend("tree"):
            assert active_backend() == "tree"
        assert active_backend() == before

    def test_use_backend_none_is_noop(self):
        before = active_backend()
        with use_backend(None):
            assert active_backend() == before


class TestEvaluatorParity:
    """The compiled closures against the reference tree walker."""

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_search_parity(self, formula):
        results = _search_both_evaluators(formula, radius=2, quantifier_domain_radius=2)
        # Any reported model is a genuine model under the tree semantics.
        for name, model in results.items():
            if model is not None:
                assert evaluate(
                    formula, Valuation(scalars=dict(model)), range(-2, 3)
                ), f"{name} reported a non-model"
        # The total fragment has no error channel, so both must agree
        # exactly (same model: both sweep the identical candidate order).
        assert results["tree"] == results["compiled"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_enumerate_models_parity(self, formula):
        outcomes = {}
        for name in BACKENDS:
            with use_backend(name):
                outcomes[name] = enumerate_models(
                    formula, radius=2, limit=5, quantifier_domain_radius=2
                )
        assert outcomes["tree"] == outcomes["compiled"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas())
    def test_budget_parity(self, formula):
        """Both evaluators stop after exactly the same assignment budget."""
        results = _search_both_evaluators(
            formula, radius=2, quantifier_domain_radius=2, max_assignments=7
        )
        assert results["tree"] == results["compiled"]

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(total_formulas(), st.sampled_from([None, 1]))
    def test_divergence_direction_only(self, guard, divisor_slot):
        """Mixing an erroring conjunct in never flips a conclusive answer:
        a tree-walker model is the compiled model, and a compiled model is
        a genuine model."""
        x = var("x")
        erroring = F.eq(F.Div(Const(6), x), Const(6))
        formula = conj(erroring, guard) if divisor_slot else conj(guard, erroring)
        results = _search_both_evaluators(formula, radius=2, quantifier_domain_radius=2)
        if results["tree"] is not None:
            assert results["compiled"] == results["tree"]
        if results["compiled"] is not None:
            assert evaluate(
                formula, Valuation(scalars=dict(results["compiled"])), range(-2, 3)
            )

    def test_pruned_search_matches_blind_tree_sweep(self):
        """Fallback-shaped queries (box-UNSAT sweeps, unit-pinned symbols,
        non-linear and quantified bodies) against the unpruned reference:
        every assignment of the ``radius``-4 box in candidate order, checked
        by the tree walker, stopping at the first model or error."""
        x, y, z, w, k = var("x"), var("y"), var("z"), var("w"), var("k")
        queries = [
            conj(F.eq(x * x + y * y, Const(97)), F.ge(z, Const(0))),
            conj(
                F.eq(x, Const(3)),
                F.eq(y, Const(-2)),
                F.ge(z, Const(0)),
                F.le(w, Const(2)),
                F.eq(x * y + z * w, Const(-7)),
            ),
            conj(F.eq(x + y + z, Const(50)), F.le(x, Const(4))),
            conj(F.eq(x, Const(3)), F.ge(y, Const(1)), F.eq(y * y, Const(9))),
            conj(F.eq(x, Const(3)), F.ge(y, Const(1)), F.eq(y * y, Const(9)), F.ne(z, Const(0))),
            conj(F.eq(x * y, Const(6)), F.gt(x, y)),
            conj(F.ge(x, Const(0)), exists(sym("k"), F.eq(x + y, k * Const(2)))),
            conj(
                forall(sym("k"), F.implies(F.ge(k, Const(0)), F.ge(x + k, y))),
                F.le(x, Const(2)),
            ),
        ]
        domain = range(-6, 7)

        def blind_sweep(formula):
            symbols = sorted(F.free_symbols(formula))
            for values in itertools.product(_candidate_values(4), repeat=len(symbols)):
                model = dict(zip(symbols, values))
                try:
                    if evaluate(formula, Valuation(scalars=model), domain):
                        return model
                except EvaluationError:
                    return None
            return None

        for formula in queries:
            model = bounded_model_search(formula, radius=4, max_seconds=None)
            assert model == blind_sweep(formula)
        # Unit atoms pruned some query's box, and every query's closures
        # were compiled by the searches above.
        assert any(
            len(values) < len(_candidate_values(4))
            for formula in queries
            for values in _pruned(formula, radius=4)
        )
        assert all(formula._compiled is not F._UNSET for formula in queries)

    def test_monte_carlo_scores_identical(self):
        case = LU
        program = case.build_program()
        scores = {}
        for name in BACKENDS:
            with use_backend(name):
                scores[name] = score_candidate(case, program, samples=4, seed=3).as_dict()
        assert scores["tree"] == scores["compiled"]
