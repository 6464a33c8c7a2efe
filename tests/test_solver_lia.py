"""Tests for the cube solver (Fourier–Motzkin + branch-and-bound core)
and the interval box that prunes the DNF walk before it."""

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
    CubeResult,
    CubeSolver,
    Divisibility,
    IntervalBox,
    Status,
    cube_inequality_rows,
    prefilter_unsat_cubes,
    tighten,
)
from repro.solver.linear import ONE, LinearTerm, NonLinearError, atom_linear


def atom(rel, left, right):
    return Atom(rel, left, right)


def _translate(literals):
    """A cube's atoms as the cube solver reads them: the inequality rows
    ``t <= 0``, the equality terms ``t == 0`` and the disequality terms
    ``t != 0``; divisibility literals are left out."""
    inequalities, equalities, disequalities = [], [], []
    for literal in literals:
        if not isinstance(literal, Atom):
            continue
        form = atom_linear(literal)
        if literal.rel is Rel.EQ:
            equalities.append(form.term)
        elif literal.rel is Rel.NE:
            disequalities.append(form.term)
        else:
            inequalities.append(form.rows[0])
    return inequalities, equalities, disequalities


class TestTighten:
    def test_divides_by_gcd(self):
        row = tighten(LinearTerm.of({sym("x"): 2, sym("y"): 4}, 3))
        assert row.coefficient(sym("x")) == 1
        assert row.coefficient(sym("y")) == 2
        assert row.constant == 2  # ceil(3/2)

    def test_unit_content_unchanged(self):
        row = LinearTerm.of({sym("x"): 1}, 3)
        assert tighten(row) == row

    @pytest.mark.parametrize("content", [2, 3, 5, 7])
    def test_integer_ceiling_matches_fraction(self, content):
        for constant in range(-25, 26):
            term = LinearTerm.of({sym("x"): content, sym("y"): -2 * content}, constant)
            tightened = tighten(term)
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


@st.composite
def boxed_cubes(draw):
    """A few :func:`cube_literals` among bounds on ``x``, ``y`` and ``z``,
    in any order: wide rows whose minimum over the box is defined, and
    bounds that arrive before or after the rows that read them."""
    literals = draw(st.lists(cube_literals(), min_size=1, max_size=4))
    for name in "xyz":
        for rel in (Rel.GE, Rel.LE):
            if draw(st.integers(min_value=0, max_value=3)):
                bound = Const(draw(st.integers(min_value=-3, max_value=3)))
                literals.append(atom(rel, var(name), bound))
    return draw(st.permutations(literals))


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
        """The prefilter's rows are the cube solver's inequality rows plus
        both sides of its equalities."""
        inequalities, equalities, _ = _translate(cube)
        expected = list(inequalities)
        for equality in equalities:
            expected += [equality, equality.negate()]
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

    def test_tightened_bound_rechecks_earlier_wide_rows(self):
        # x + y >= 5 arrives first; only the last bound makes its minimum positive.
        cube = [
            atom(Rel.GE, var("x") + var("y"), Const(5)),
            atom(Rel.GE, var("x"), Const(0)),
            atom(Rel.LE, var("x"), Const(2)),
            atom(Rel.GE, var("y"), Const(0)),
            atom(Rel.LE, var("y"), Const(2)),
        ]
        box = IntervalBox()
        assert [box.push(literal) for literal in cube] == [False] * 4 + [True]

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.lists(cube_literals(), min_size=1, max_size=8), boxed_cubes()))
    def test_incremental_box_matches_the_whole_cube_check(self, cube):
        """Pushing a cube's literals one at a time refutes it exactly when
        the bounds of all its unit rows refute one of its rows."""
        assert prefilter_unsat_cubes([cube]) == [_box_refutes(cube_inequality_rows(cube))]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(cube_literals(), min_size=1, max_size=6), st.data())
    def test_refutation_ignores_order_and_survives_undo(self, cube, data):
        """The box's verdict on a row set does not depend on the order the
        rows arrive in, and undoing a detour leaves the box as if the
        detour's literals had never been pushed."""
        (expected,) = prefilter_unsat_cubes([cube])
        shuffled = data.draw(st.permutations(cube))
        detour = data.draw(st.lists(cube_literals(), max_size=4))
        box = IntervalBox()
        refuted = False
        for index, literal in enumerate(shuffled):
            mark = box.mark()
            for other in detour[index:index + 1]:
                box.push(other)  # refuted or not, undone before the next push
            box.undo(mark)
            if box.push(literal):
                refuted = True
                break
        assert refuted == expected


def _box_refutes(rows):
    """The whole-cube box check: bounds from every unit row at once, then
    a constant row, crossed bounds or a wide row's minimum refute."""
    lower, upper, wide = {}, {}, []
    for row in rows:
        if not row.coeffs:
            if row.constant > 0:
                return True
        elif len(row.coeffs) >= 2:
            wide.append(row)
        else:
            ((symbol, coeff),) = row.coeffs
            if coeff > 0:
                bound = -row.constant // coeff
                upper[symbol] = min(upper.get(symbol, bound), bound)
            else:
                bound = -(-row.constant // -coeff)
                lower[symbol] = max(lower.get(symbol, bound), bound)
    if any(symbol in upper and lower[symbol] > upper[symbol] for symbol in lower):
        return True
    for row in wide:
        bounds = [(lower if coeff > 0 else upper).get(symbol) for symbol, coeff in row.coeffs]
        if None not in bounds:
            minimum = row.constant + sum(c * b for (_, c), b in zip(row.coeffs, bounds))
            if minimum > 0:
                return True
    return False


# -- the split-then-eliminate reference -------------------------------------------
#
# The cube solver eliminates a cube's equalities once and then tries each
# disequality branch.  The reference below is the older recursion: split
# the disequalities first, then eliminate the equalities afresh in every
# branch, substituting each elimination eagerly.  Both must agree on status
# and model.


def _reference_solve(literals):
    assert all(isinstance(literal, Atom) for literal in literals)
    inequalities, equalities, disequalities = _translate(literals)
    return _reference_split(CubeSolver(), inequalities, equalities, disequalities)


def _reference_split(solver, inequalities, equalities, disequalities):
    if not disequalities:
        return _reference_core(solver, inequalities, equalities)
    first, rest = disequalities[0], disequalities[1:]
    saw_unknown = False
    for branch_term in (first.add(ONE), first.negate().add(ONE)):
        branch = inequalities + [branch_term]
        result = _reference_split(solver, branch, equalities, rest)
        if result.status is Status.SAT:
            return result
        saw_unknown = saw_unknown or result.status is Status.UNKNOWN
    return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)


def _reference_core(solver, inequalities, equalities):
    terms = list(inequalities)
    pending = list(equalities)
    eliminations = []
    while pending:
        term = pending.pop()
        if term.is_constant():
            if term.constant != 0:
                return CubeResult(Status.UNSAT)
            continue
        units = [(s, c) for s, c in term.coeffs if abs(c) == 1]
        if not units:
            if term.constant % term.content() != 0:
                return CubeResult(Status.UNSAT)
            terms += [term, term.negate()]
            continue
        symbol, coeff = units[0]
        rest = term.drop(symbol)
        replacement = rest.negate() if coeff == 1 else rest
        eliminations.append((symbol, replacement))
        pending = [t.substitute(symbol, replacement) for t in pending]
        terms = [t.substitute(symbol, replacement) for t in terms]
    result = solver._solve_inequalities([tighten(t) for t in terms], 0)
    if result.status is not Status.SAT:
        return result
    model = dict(result.model)
    for symbol, replacement in reversed(eliminations):
        for s in replacement.symbols():
            model.setdefault(s, 0)
        model[symbol] = replacement.evaluate(model)
    return CubeResult(Status.SAT, model)


@st.composite
def linear_cubes(draw):
    """Comparisons and equalities over ``x, y, z``, plus 0-3 disequalities."""
    rels = st.sampled_from([Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ, Rel.EQ])
    hard = draw(st.lists(st.tuples(rels, linear_terms()), min_size=1, max_size=6))
    soft = draw(st.lists(linear_terms(), max_size=3))
    literals = [Atom(rel, term, Const(0)) for rel, term in hard]
    literals += [Atom(Rel.NE, term, Const(0)) for term in soft]
    return draw(st.permutations(literals))


class TestEliminateOnce:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(linear_cubes())
    def test_matches_split_then_eliminate(self, cube):
        result = CubeSolver().solve(cube)
        reference = _reference_solve(cube)
        assert (result.status, result.model) == (reference.status, reference.model)

    def test_refuted_equalities_settle_every_branch(self):
        # 2x == 2y + 1 has no integer solution, whatever x != 0 and y != 0 say.
        cube = [
            atom(Rel.EQ, var("x") * Const(2), var("y") * Const(2) + Const(1)),
            atom(Rel.NE, var("x"), Const(0)),
            atom(Rel.NE, var("y"), Const(0)),
        ]
        assert CubeSolver().solve(cube).status is Status.UNSAT
        assert _reference_solve(cube).status is Status.UNSAT

    def test_branches_share_the_eliminated_model(self):
        # x is eliminated as y + 1, once; x != 1 rules out the first branch's
        # zero-preferring model y = 0.
        cube = [
            atom(Rel.EQ, var("x"), var("y") + Const(1)),
            atom(Rel.GE, var("y"), Const(0)),
            atom(Rel.LE, var("y"), Const(3)),
            atom(Rel.NE, var("x"), Const(1)),
        ]
        result = CubeSolver().solve(cube)
        assert result.status is Status.SAT
        assert result.model[sym("x")] == result.model[sym("y")] + 1 != 1
        assert result.model == _reference_solve(cube).model


# -- one solver per query ----------------------------------------------------------
#
# The solver builds one CubeSolver per query and feeds it every surviving
# cube of the DNF walk.  Those cubes share equality sets, disequalities
# and literals, so whatever the solver keeps from one cube to the next
# must leave each cube's answer as a fresh solver gives it.


def _outcome(solver, cube):
    """Status and model (aux symbols, numbered per solver, left out), or
    the error's message."""
    try:
        result = solver.solve(cube)
    except NonLinearError as error:
        return ("error", str(error))
    model = {s: v for s, v in (result.model or {}).items() if "_aux" not in s.name}
    return (result.status, model)


@st.composite
def shared_cube_sequences(draw):
    """Cubes drawn from one pool of literals: equalities, bounds,
    disequalities, divisibilities and two non-linear literals, so the
    cubes repeat equality sets and literals in varying orders."""
    equality = st.builds(lambda term: Atom(Rel.EQ, term, Const(0)), linear_terms())
    equalities = draw(st.lists(equality, min_size=1, max_size=3))
    others = draw(st.lists(cube_literals(), min_size=2, max_size=6))
    nonlinear = [
        atom(Rel.EQ, var("x") * var("y"), Const(1)),
        atom(Rel.LE, var("y") * var("z"), Const(2)),
    ]
    pool = equalities + others + nonlinear
    # Linear literals four times as likely as the non-linear ones.
    literal = st.sampled_from(pool[: len(pool) - 2] * 4 + nonlinear)
    return draw(st.lists(st.lists(literal, min_size=1, max_size=6), min_size=2, max_size=8))


class TestOneSolverPerQuery:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(shared_cube_sequences())
    def test_shared_solver_answers_as_fresh_ones(self, cubes):
        shared = CubeSolver()
        for cube in cubes:
            assert _outcome(shared, cube) == _outcome(CubeSolver(), cube)

    def test_first_nonlinear_literal_names_the_error(self):
        first = atom(Rel.EQ, var("x") * var("y"), Const(1))
        second = atom(Rel.LE, var("y") * var("z"), Const(2))
        solver = CubeSolver()
        equality = atom(Rel.EQ, var("x"), var("z") + Const(1))
        assert solver.solve([equality, atom(Rel.GE, var("z"), Const(0))]).status is Status.SAT
        cases = (([equality, first, second], first), ([second, equality, first], second))
        for cube, culprit in cases:
            with pytest.raises(NonLinearError) as caught:
                solver.solve(cube)
            with pytest.raises(NonLinearError) as fresh:
                CubeSolver().solve([culprit])
            assert str(caught.value) == str(fresh.value)
