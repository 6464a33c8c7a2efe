"""Tests for the solver facade: satisfiability, validity, models, statistics."""

import pytest

from repro.engine import ObligationEngine
from repro.hoare.obligations import ObligationCollector, ObligationKind, ProofSystem
from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import Const, Divides, Select, Symbol, conj, disj, exists, forall, sym, var
from repro.solver.interface import Solver, default_solver
from repro.solver.lia import Status


@pytest.fixture(scope="module")
def solver():
    return Solver()


class TestValidity:
    def test_simple_valid_entailment(self, solver):
        formula = F.implies(F.lt(var("x"), var("y")), F.le(var("x") + 1, var("y")))
        assert solver.check_valid(formula).is_valid

    def test_invalid_with_counterexample(self, solver):
        formula = F.implies(F.lt(var("x"), var("y")), F.le(var("x") + 2, var("y")))
        result = solver.check_valid(formula)
        assert result.status is Status.INVALID
        assert result.model is not None
        # The counterexample really falsifies the formula.
        assert evaluate(formula, Valuation(scalars=dict(result.model))) is False

    def test_case_split_over_disjunction(self, solver):
        formula = F.implies(
            F.disj(F.eq(var("x"), 0), F.eq(var("x"), 1)), F.le(var("x"), Const(1))
        )
        assert solver.is_valid(formula)

    def test_transitivity(self, solver):
        formula = F.implies(
            conj(F.le(var("a"), var("b")), F.le(var("b"), var("c"))),
            F.le(var("a"), var("c")),
        )
        assert solver.is_valid(formula)

    def test_min_max_reasoning(self, solver):
        formula = F.le(F.Min(var("x"), var("y")), F.Max(var("x"), var("y")))
        assert solver.is_valid(formula)

    def test_max_lipschitz_property(self, solver):
        # |max(m1,a1) - max(m2,a2)| <= e  when  |m1-m2| <= e and |a1-a2| <= e
        m1, m2, a1, a2, e = var("m1"), var("m2"), var("a1"), var("a2"), var("e")
        hyp = conj(
            F.le(m1 - m2, e), F.le(m2 - m1, e), F.le(a1 - a2, e), F.le(a2 - a1, e),
            F.ge(e, Const(0)),
        )
        lhs = F.Max(m1, a1)
        rhs = F.Max(m2, a2)
        goal = conj(F.le(lhs - rhs, e), F.le(rhs - lhs, e))
        assert solver.is_valid(F.implies(hyp, goal))

    def test_swish_post_loop_case_analysis(self, solver):
        """Section 5.1's post-loop case analysis as one entailment: the
        formatting loop's result counts under the original and relaxed
        caps satisfy the paper's relate property."""
        n, max_o, max_r, num_o, num_r = (
            var("N"), var("max_o"), var("max_r"), var("num_o"), var("num_r"),
        )

        def characterise(num, cap):
            return conj(
                F.ge(num, Const(0)),
                F.le(num, n),
                F.implies(F.le(n, cap), F.eq(num, n)),
                F.implies(conj(F.ge(cap, Const(0)), F.le(cap, n)), F.eq(num, cap)),
                F.implies(F.le(cap, Const(0)), F.eq(num, Const(0))),
            )

        hypothesis = conj(
            F.ge(n, Const(0)),
            F.disj(
                conj(F.le(max_o, Const(10)), F.eq(max_r, max_o)),
                conj(F.gt(max_o, Const(10)), F.ge(max_r, Const(10))),
            ),
            characterise(num_o, max_o),
            characterise(num_r, max_r),
        )
        conclusion = F.disj(
            conj(F.lt(num_o, Const(10)), F.eq(num_o, num_r)),
            conj(F.ge(num_o, Const(10)), F.ge(num_r, Const(10))),
        )
        assert solver.check_valid(F.implies(hypothesis, conclusion)).is_valid

    def test_division_validity(self, solver):
        formula = F.implies(
            F.ge(var("x"), Const(0)),
            F.le(F.Div(var("x"), Const(2)) * Const(2), var("x")),
        )
        assert solver.is_valid(formula)

    def test_div_mod_identity(self, solver):
        formula = F.eq(
            F.Div(var("x"), Const(3)) * Const(3) + F.Mod(var("x"), Const(3)), var("x")
        )
        assert solver.is_valid(formula)

    def test_quantified_hypothesis(self, solver):
        formula = F.implies(
            exists(sym("k"), F.eq(var("x"), var("k") * Const(2))),
            F.ne(var("x"), Const(3)),
        )
        assert solver.is_valid(formula)

    def test_universal_statement_via_cooper(self, solver):
        formula = forall(sym("x"), exists(sym("y"), F.gt(var("y"), var("x"))))
        assert solver.is_valid(formula)

    def test_parity_covering(self, solver):
        formula = forall(
            sym("x"), F.disj(Divides(2, var("x")), Divides(2, var("x") + Const(1)))
        )
        assert solver.is_valid(formula)


class TestExistentialBelowUniversal:
    """An existential below a universal is not a constant: skolemising it
    as one decided these wrongly (VALID, UNSAT)."""

    def test_exists_forall_is_invalid(self, solver):
        # exists x. forall y. y != x + 1 is false: take y = x + 1.
        formula = exists(sym("x"), forall(sym("y"), F.ne(var("y"), var("x") + 1)))
        assert solver.check_valid(formula).status is Status.INVALID

    def test_forall_exists_is_sat(self, solver):
        formula = forall(sym("x"), exists(sym("y"), F.eq(var("y"), var("x") + 1)))
        assert solver.check_sat(formula).status is Status.SAT

    def test_forall_exists_is_valid(self, solver):
        formula = forall(sym("x"), exists(sym("y"), F.eq(var("y"), var("x") + 1)))
        assert solver.check_valid(formula).status is Status.VALID


class TestSatisfiability:
    def test_sat_with_model(self, solver):
        formula = conj(F.gt(var("x"), Const(3)), F.lt(var("x"), Const(6)))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert 3 < result.model[sym("x")] < 6

    def test_unsat(self, solver):
        formula = conj(F.gt(var("x"), Const(3)), F.lt(var("x"), Const(3)))
        assert solver.check_sat(formula).is_unsat

    def test_unsat_by_parity(self, solver):
        formula = conj(Divides(2, var("x")), Divides(2, var("x") + Const(1)))
        assert solver.check_sat(formula).is_unsat

    def test_equality_chain_model(self, solver):
        formula = conj(
            F.eq(var("x"), var("y") + 1), F.eq(var("y"), var("z") + 1), F.eq(var("z"), 5)
        )
        model = solver.find_model(formula)
        assert model[sym("x")] == 7

    def test_true_and_false(self, solver):
        assert solver.check_sat(F.TRUE).is_sat
        assert solver.check_sat(F.FALSE).is_unsat

    def test_model_satisfies_formula(self, solver):
        formula = conj(
            F.le(Const(0), var("a")),
            F.le(var("a"), var("b")),
            F.eq(var("b") + var("c"), Const(10)),
            F.gt(var("c"), Const(2)),
        )
        model = solver.find_model(formula)
        assert evaluate(formula, Valuation(scalars=dict(model))) is True

    def test_nonlinear_falls_back_to_bounded_search(self, solver):
        formula = F.eq(var("x") * var("x"), Const(4))
        result = solver.check_sat(formula)
        assert result.is_sat
        assert abs(result.model[sym("x")]) == 2

    def test_nonlinear_unsat_is_unknown_not_wrong(self, solver):
        # x*x == -1 has no integer solution; the bounded fallback cannot prove
        # that, so the answer must be UNKNOWN (conservative), never SAT.
        formula = F.eq(var("x") * var("x"), Const(-1))
        result = solver.check_sat(formula)
        assert result.status in (Status.UNKNOWN, Status.UNSAT)


class TestArrays:
    def test_functional_consistency(self, solver):
        array = Symbol("A")
        formula = F.implies(
            F.eq(var("i"), var("j")),
            F.eq(Select(array, var("i")), Select(array, var("j"))),
        )
        assert solver.is_valid(formula)

    def test_distinct_indices_unconstrained(self, solver):
        array = Symbol("A")
        formula = F.eq(Select(array, var("i")), Select(array, var("j")))
        assert solver.check_valid(formula).status is Status.INVALID

    def test_array_with_quantified_hypothesis_index(self, solver):
        array = Symbol("A")
        formula = F.implies(
            exists(sym("k"), conj(F.eq(var("i"), var("k")), F.eq(var("j"), var("k")))),
            F.eq(Select(array, var("i")), Select(array, var("j"))),
        )
        assert solver.is_valid(formula)


class TestStatisticsAndDefaults:
    def test_statistics_accumulate(self):
        solver = Solver()
        solver.check_valid(F.le(var("x"), var("x")))
        solver.check_sat(F.lt(var("x"), Const(0)))
        stats = solver.statistics.as_dict()
        assert stats["validity_queries"] == 1
        assert stats["sat_queries"] >= 2  # check_valid issues a sat query internally

    def test_default_solver_is_shared(self):
        assert default_solver() is default_solver()

    def test_unknown_validity_counted_once(self):
        solver = Solver()
        # x*x != 2 holds for every integer, but no procedure can prove it.
        result = solver.check_valid(F.neg(F.eq(var("x") * var("x"), Const(2))))
        assert result.status is Status.UNKNOWN
        assert solver.statistics.unknown_results == 1


def _parity_wave(width=12):
    """2x == 2y + 1 under ``width`` two-way splits: 2**width cubes, none of
    which the box refutes, and each of which the cube solver refutes."""
    x, y = var("x"), var("y")
    parity = F.eq(x * Const(2), y * Const(2) + Const(1))
    splits = [
        disj(F.le(var(f"z{i}"), Const(0)), F.ge(var(f"z{i}"), Const(1))) for i in range(width)
    ]
    return conj(parity, *splits)


class TestBudget:
    def test_unbudgeted_wave_runs_to_the_end(self):
        solver = Solver()
        assert solver.check_sat(_parity_wave()).status is Status.UNSAT
        assert solver.statistics.cube_count == 4096
        assert solver.statistics.prefiltered_cubes == 0

    def test_cube_loop_honours_the_budget(self):
        budget = 0.01
        solver = Solver(budget_seconds=budget)
        result = solver.check_sat(_parity_wave())
        assert result.status is Status.UNKNOWN
        assert result.reason == "per-obligation budget of 0.01s exhausted (last: cube search)"
        assert result.elapsed_seconds < 2 * budget
        assert solver.statistics.cube_count < 4096
        assert solver.statistics.bounded_fallbacks == 0

    def test_budget_exhausted_wave_is_not_cached(self):
        collector = ObligationCollector(ProofSystem.ORIGINAL)
        collector.add(
            _parity_wave(), ObligationKind.SATISFIABILITY,
            rule="parity", description="2x == 2y + 1 under 12 splits",
        )
        engine = ObligationEngine(budget_seconds=0.01)
        (result,) = engine.discharge_all(collector.obligations)
        assert result.status is Status.UNKNOWN
        assert result.reason.endswith("exhausted (last: cube search)")
        assert len(engine.cache) == 0
