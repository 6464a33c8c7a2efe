"""Tests for the cube solver (Fourier–Motzkin + branch-and-bound core)
and the interval-box prefilter that runs before it."""

from collections import Counter
from fractions import Fraction
from math import ceil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic import formula as F
from repro.logic.formula import Atom, Const, Divides, Not, Rel, conj, disj, sym, var
from repro.solver.interface import Solver
from repro.solver.lia import (
    CubeSolver,
    Divisibility,
    Inequality,
    Status,
    cube_inequality_rows,
    prefilter_unsat_cubes,
)
from repro.solver.linear import LinearTerm, NonLinearError


def atom(rel, left, right):
    return Atom(rel, left, right)


class TestInequalityTighten:
    def test_divides_by_gcd(self):
        ineq = Inequality(LinearTerm.of({sym("x"): 2, sym("y"): 4}, 3)).tighten()
        assert ineq.term.coefficient(sym("x")) == 1
        assert ineq.term.coefficient(sym("y")) == 2
        assert ineq.term.constant == 2  # ceil(3/2)

    def test_unit_content_unchanged(self):
        ineq = Inequality(LinearTerm.of({sym("x"): 1}, 3))
        assert ineq.tighten() == ineq

    @pytest.mark.parametrize("content", [2, 3, 5, 7])
    def test_integer_ceiling_matches_fraction(self, content):
        for constant in range(-25, 26):
            term = LinearTerm.of({sym("x"): content, sym("y"): -2 * content}, constant)
            tightened = Inequality(term).tighten().term
            assert tightened.constant == ceil(Fraction(constant, content)), constant
            assert tightened == LinearTerm.of({sym("x"): 1, sym("y"): -2}, tightened.constant)


class TestCubeSolver:
    def test_feasible_box(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.GE, var("x"), Const(2)),
            atom(Rel.LE, var("x"), Const(5)),
            atom(Rel.EQ, var("y"), var("x") + 1),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert 2 <= result.model[sym("x")] <= 5
        assert result.model[sym("y")] == result.model[sym("x")] + 1

    def test_infeasible_bounds(self):
        solver = CubeSolver()
        cube = [atom(Rel.GT, var("x"), Const(5)), atom(Rel.LT, var("x"), Const(3))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_integer_gap_detected(self):
        # 2x == 2y + 1 has no integer solutions.
        solver = CubeSolver()
        cube = [atom(Rel.EQ, var("x") * Const(2), var("y") * Const(2) + Const(1))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_gcd_test_on_equalities(self):
        solver = CubeSolver()
        cube = [atom(Rel.EQ, var("x") * Const(6) + var("y") * Const(4), Const(3))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_disequality_split(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.LE, var("x"), Const(1)),
            atom(Rel.NE, var("x"), Const(0)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 1

    def test_divisibility_constraint(self):
        solver = CubeSolver()
        cube = [
            Divides(3, var("x")),
            atom(Rel.GE, var("x"), Const(4)),
            atom(Rel.LE, var("x"), Const(8)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 6

    def test_negated_divisibility(self):
        solver = CubeSolver()
        cube = [
            Not(Divides(2, var("x"))),
            atom(Rel.GE, var("x"), Const(4)),
            atom(Rel.LE, var("x"), Const(5)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 5

    def test_conflicting_divisibility(self):
        solver = CubeSolver()
        cube = [Divides(2, var("x")), Not(Divides(2, var("x")))]
        assert solver.solve(cube).status is Status.UNSAT

    def test_unbounded_variable_gets_some_value(self):
        solver = CubeSolver()
        result = solver.solve([atom(Rel.GE, var("x"), var("y"))])
        assert result.status is Status.SAT

    def test_nonlinear_literal_raises(self):
        solver = CubeSolver()
        with pytest.raises(NonLinearError):
            solver.solve([atom(Rel.EQ, var("x") * var("y"), Const(1))])

    def test_statistics_populated(self):
        solver = CubeSolver()
        solver.solve([atom(Rel.LE, var("x"), Const(0))])
        assert solver.statistics["cubes"] == 1
        assert solver.statistics["branch_nodes"] >= 1

    def test_equality_without_unit_coefficient(self):
        # 2x == 6 is satisfiable with x == 3 even though no unit coefficient exists.
        solver = CubeSolver()
        result = solver.solve([atom(Rel.EQ, var("x") * Const(2), Const(6))])
        assert result.status is Status.SAT
        assert result.model[sym("x")] == 3

    def test_large_coefficient_system(self):
        solver = CubeSolver()
        cube = [
            atom(Rel.EQ, var("x") * Const(7) + var("y") * Const(5), Const(41)),
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.GE, var("y"), Const(0)),
        ]
        result = solver.solve(cube)
        assert result.status is Status.SAT
        model = result.model
        assert 7 * model[sym("x")] + 5 * model[sym("y")] == 41


@st.composite
def linear_terms(draw):
    """``sum(c*x) + k`` over a three-symbol pool with small coefficients."""
    term = Const(draw(st.integers(min_value=-6, max_value=6)))
    for name in ("x", "y", "z"):
        coeff = draw(st.integers(min_value=-3, max_value=3))
        if coeff:
            term = F.Add(term, F.Mul(Const(coeff), var(name)))
    return term


@st.composite
def cube_literals(draw):
    """Linear comparisons (often unit bounds, which feed the box), plus the
    disequality and divisibility literals the prefilter ignores."""
    choice = draw(st.integers(min_value=0, max_value=9))
    if choice == 9:
        return Divides(draw(st.sampled_from([2, 3])), draw(linear_terms()))
    rel = draw(st.sampled_from([Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ, Rel.NE]))
    if choice < 5:
        left = F.Mul(Const(draw(st.sampled_from([-2, -1, 1, 2, 3]))), var(draw(st.sampled_from("xyz"))))
    else:
        left = draw(linear_terms())
    return Atom(rel, left, Const(draw(st.integers(min_value=-6, max_value=6))))


class TestBoxPrefilter:
    def test_constant_row_refutes(self):
        assert prefilter_unsat_cubes([[atom(Rel.GT, Const(0), Const(1))]]) == [True]

    def test_crossed_unit_bounds_refute(self):
        # 2x >= 3 and 2x <= 3: x >= 2 and x <= 1 over the integers.
        cube = [
            atom(Rel.GE, var("x") * Const(2), Const(3)),
            atom(Rel.LE, var("x") * Const(2), Const(3)),
        ]
        assert prefilter_unsat_cubes([cube]) == [True]
        assert CubeSolver().solve(cube).status is Status.UNSAT

    def test_wide_row_minimum_refutes(self):
        # x, y in [0, 2] but x + y >= 5.
        cube = [
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.LE, var("x"), Const(2)),
            atom(Rel.GE, var("y"), Const(0)),
            atom(Rel.LE, var("y"), Const(2)),
            atom(Rel.GE, var("x") + var("y"), Const(5)),
        ]
        assert prefilter_unsat_cubes([cube]) == [True]

    def test_no_proof_without_bounds(self):
        cubes = [
            [atom(Rel.GE, var("x") + var("y"), Const(5))],  # unbounded box
            [atom(Rel.GE, var("x"), Const(0)), atom(Rel.LE, var("x"), Const(0))],
            [atom(Rel.NE, var("x"), var("x"))],  # no one-sided content
        ]
        assert prefilter_unsat_cubes(cubes) == [False, False, False]

    def test_prefilter_skips_infeasible_cubes(self):
        x, y = var("x"), var("y")
        parts = [conj(F.ge(x, Const(i + 100)), F.lt(x, Const(i))) for i in range(10)]
        parts.append(conj(F.ge(x, Const(1)), F.lt(x, Const(3)), F.eq(y, Const(5))))
        solver = Solver()
        result = solver.check_sat(disj(*parts))
        assert result.status is Status.SAT
        assert result.model == {sym("x"): 1, sym("y"): 5}
        assert solver.statistics.prefiltered_cubes == 10
        assert solver.statistics.cube_count == 11

    def test_small_waves_skip_the_prefilter(self):
        x = var("x")
        parts = [conj(F.ge(x, Const(i + 100)), F.lt(x, Const(i))) for i in range(3)]
        solver = Solver()
        assert solver.check_sat(disj(*parts)).status is Status.UNSAT
        assert solver.statistics.prefiltered_cubes == 0

    def test_shared_rows_are_read_only(self):
        # x, y in [0, 2] but x + y >= 5: refuted by the box.
        cube = [
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.LE, var("x"), Const(2)),
            atom(Rel.EQ, var("y"), Const(1)),
            atom(Rel.GE, var("x") + var("y"), Const(5)),
        ]
        assert prefilter_unsat_cubes([cube]) == [True]
        rows = cube_inequality_rows(cube)
        snapshot = list(rows)
        for row in rows:
            with pytest.raises(TypeError):
                row.coeffs[0] = (sym("x"), 0)
            with pytest.raises(AttributeError):
                row.constant = -100
        rows.clear()  # the list itself is the caller's own
        assert cube_inequality_rows(cube) == snapshot
        assert prefilter_unsat_cubes([cube]) == [True]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(cube_literals(), min_size=1, max_size=6))
    def test_rows_match_cube_solver_translation(self, cube):
        """The prefilter's rows are ``_translate``'s inequalities plus both
        sides of its equalities."""
        inequalities, equalities, _, _ = CubeSolver()._translate(cube)
        expected = [ineq.term for ineq in inequalities]
        for equality in equalities:
            expected += [equality.term, equality.term.negate()]
        assert Counter(cube_inequality_rows(cube)) == Counter(expected)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.lists(cube_literals(), min_size=1, max_size=5), min_size=1, max_size=6))
    def test_prefiltered_cubes_are_not_sat(self, cubes):
        """Every prefilter refutation is confirmed by the cube solver."""
        verdicts = prefilter_unsat_cubes(cubes)
        assert len(verdicts) == len(cubes)
        for cube, infeasible in zip(cubes, verdicts):
            if infeasible:
                assert CubeSolver().solve(cube).status is not Status.SAT, cube
