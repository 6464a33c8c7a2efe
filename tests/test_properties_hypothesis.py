"""Property-based tests (hypothesis) for core data structures and invariants."""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lang import builder as b
from repro.lang.parser import parse_statement
from repro.lang.pretty import pretty_stmt
from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import Const, conj, disj, neg, sym, var
from repro.solver.interface import Solver
from repro.solver.lia import CubeSolver, Status
from repro.solver.linear import LinearTerm, NonLinearError, atom_linear, linearize
from repro.solver.normalize import to_dnf, to_nnf
from repro.semantics.interpreter import run_original, run_relaxed
from repro.semantics.state import State, Terminated

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

names = st.sampled_from(["x", "y", "z"])
small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def linear_terms(draw):
    coeffs = {sym(name): draw(small_ints) for name in draw(st.sets(names, max_size=3))}
    return LinearTerm.of(coeffs, draw(small_ints))


@st.composite
def atoms(draw):
    rel = draw(st.sampled_from([F.lt, F.le, F.gt, F.ge, F.eq, F.ne]))
    left = var(draw(names)) * draw(st.integers(min_value=-3, max_value=3)) + Const(draw(small_ints))
    right = var(draw(names)) + Const(draw(small_ints))
    return rel(left, right)


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=3))
    if choice == 0:
        return draw(atoms())
    if choice == 1:
        return neg(draw(formulas(depth=depth - 1)))
    if choice == 2:
        return conj(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))
    return disj(draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1)))


def random_valuation(draw):
    return Valuation(scalars={sym(name): draw(small_ints) for name in ["x", "y", "z"]})


# ---------------------------------------------------------------------------
# LinearTerm algebraic properties
# ---------------------------------------------------------------------------


class TestLinearTermProperties:
    @given(linear_terms(), linear_terms())
    def test_add_commutes(self, a, b_):
        assert a.add(b_) == b_.add(a)

    @given(linear_terms())
    def test_negate_is_involution(self, term):
        assert term.negate().negate() == term

    @given(linear_terms(), linear_terms(), st.dictionaries(names, small_ints, min_size=3))
    def test_add_is_pointwise(self, a, b_, assignment):
        values = {sym(name): value for name, value in assignment.items()}
        assert a.add(b_).evaluate(values) == a.evaluate(values) + b_.evaluate(values)

    @given(linear_terms(), small_ints, st.dictionaries(names, small_ints, min_size=3))
    def test_scale_is_pointwise(self, term, factor, assignment):
        values = {sym(name): value for name, value in assignment.items()}
        assert term.scale(factor).evaluate(values) == factor * term.evaluate(values)

    @given(linear_terms(), st.dictionaries(names, small_ints, min_size=3))
    def test_linearize_to_term_roundtrip(self, term, assignment):
        values = {sym(name): value for name, value in assignment.items()}
        roundtripped = linearize(term.to_term())
        assert roundtripped.evaluate(values) == term.evaluate(values)

    @given(linear_terms(), linear_terms(), small_ints, names)
    def test_operations_keep_terms_canonical(self, a, b_, factor, name):
        """Every result is sorted and zero-free, i.e. equal to its own
        re-canonicalisation, so structural equality stays semantic."""
        symbol = sym(name)
        results = [
            a.negate(),
            a.scale(factor),
            a.drop(symbol),
            a.add(b_),
            a.subtract(b_),
            a.substitute(symbol, b_),
        ]
        for result in results:
            assert result == LinearTerm.of(result.as_dict(), result.constant)

    @given(atoms())
    def test_memoized_atom_form_matches_fresh_linearization(self, atom):
        assert atom_linear(atom).term == linearize(atom.left).subtract(linearize(atom.right))

    @given(names, names, small_ints)
    def test_non_linear_atom_raises_same_error_twice(self, left, right, constant):
        atom = F.lt(var(left) * var(right), Const(constant))
        messages = []
        for _ in range(2):
            with pytest.raises(NonLinearError) as error:
                CubeSolver().solve([atom])
            messages.append(str(error.value))
        assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# Normalisation preserves semantics
# ---------------------------------------------------------------------------


class TestNormalisationProperties:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_nnf_preserves_semantics(self, data):
        formula = data.draw(formulas())
        valuation = random_valuation(data.draw)
        assert evaluate(to_nnf(formula), valuation) == evaluate(formula, valuation)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_dnf_preserves_semantics(self, data):
        formula = data.draw(formulas())
        valuation = random_valuation(data.draw)
        cubes = to_dnf(to_nnf(formula))
        dnf_value = any(
            all(evaluate(literal, valuation) for literal in cube) for cube in cubes
        )
        assert dnf_value == evaluate(formula, valuation)


# ---------------------------------------------------------------------------
# Solver soundness against brute-force evaluation
# ---------------------------------------------------------------------------


class TestSolverProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_validity_agrees_with_bounded_refutation(self, data):
        solver = Solver()
        formula = data.draw(formulas())
        result = solver.check_valid(formula)
        if result.status is Status.VALID:
            # No counterexample may exist in a small box.
            import itertools

            for values in itertools.product(range(-4, 5), repeat=3):
                valuation = Valuation(
                    scalars={sym("x"): values[0], sym("y"): values[1], sym("z"): values[2]}
                )
                assert evaluate(formula, valuation)
        elif result.status is Status.INVALID:
            assert result.model is not None
            filled = {s: result.model.get(s, 0) for s in F.free_symbols(formula)}
            assert evaluate(formula, Valuation(scalars=filled)) is False

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_sat_models_are_models(self, data):
        solver = Solver()
        formula = data.draw(formulas())
        result = solver.check_sat(formula)
        if result.status is Status.SAT and result.model is not None:
            filled = {s: result.model.get(s, 0) for s in F.free_symbols(formula)}
            assert evaluate(formula, Valuation(scalars=filled)) is True

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(atoms(), min_size=1, max_size=4))
    def test_cube_solver_sound_on_unsat(self, cube):
        solver = CubeSolver()
        result = solver.solve(cube)
        if result.status is Status.UNSAT:
            import itertools

            for values in itertools.product(range(-3, 4), repeat=3):
                valuation = Valuation(
                    scalars={sym("x"): values[0], sym("y"): values[1], sym("z"): values[2]}
                )
                assert not all(evaluate(literal, valuation) for literal in cube)


# ---------------------------------------------------------------------------
# Parser / pretty-printer round trip
# ---------------------------------------------------------------------------


@st.composite
def statements(draw, depth=2):
    choice = draw(st.integers(min_value=0, max_value=6 if depth > 0 else 3))
    name = draw(names)
    value = draw(small_ints)
    if choice == 0:
        return b.assign(name, b.add(name, value))
    if choice == 1:
        return b.assert_(b.le(name, value))
    if choice == 2:
        return b.assume(b.ge(name, value))
    if choice == 3:
        return b.relax(name, b.and_(b.le(value, name), b.le(name, value + 2)))
    if choice == 4:
        return b.block(draw(statements(depth=depth - 1)), draw(statements(depth=depth - 1)))
    if choice == 5:
        return b.if_(
            b.lt(name, value),
            draw(statements(depth=depth - 1)),
            draw(statements(depth=depth - 1)),
        )
    return b.relate(f"l{draw(st.integers(0, 99))}", b.same(name))


def _flatten(stmt):
    """Flatten nested sequences: the printer loses Seq association, which is
    semantically irrelevant, so round-trip equality is checked modulo it."""
    from repro.lang.ast import Seq, If, While

    if isinstance(stmt, Seq):
        return _flatten(stmt.first) + _flatten(stmt.second)
    if isinstance(stmt, If):
        return [
            (
                "if",
                stmt.condition,
                tuple(_flatten(stmt.then_branch)),
                tuple(_flatten(stmt.else_branch)),
            )
        ]
    if isinstance(stmt, While):
        return [
            ("while", stmt.condition, stmt.invariant, stmt.rel_invariant, tuple(_flatten(stmt.body)))
        ]
    return [stmt]


class TestRoundTripProperties:
    @settings(max_examples=80)
    @given(statements())
    def test_parse_pretty_roundtrip(self, stmt):
        reparsed = parse_statement(pretty_stmt(stmt))
        assert _flatten(reparsed) == _flatten(stmt)
        # A second round trip is a fixpoint.
        assert pretty_stmt(reparsed) == pretty_stmt(parse_statement(pretty_stmt(reparsed)))


# ---------------------------------------------------------------------------
# Dynamic semantics invariants
# ---------------------------------------------------------------------------


class TestSemanticsProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=0, max_value=4))
    def test_original_execution_is_a_relaxed_execution(self, x, e):
        """The original execution's result is always allowed by the relaxed
        semantics run with the minimal-change strategy."""
        program = parse_statement(
            "y = x; relax (x) st (y - e <= x && x <= y + e); d = x - y;"
        )
        state = State.of({"x": x, "e": e})
        original = run_original(program, state)
        from repro.semantics.choosers import MinimalChangeChooser

        relaxed = run_relaxed(program, state, chooser=MinimalChangeChooser())
        assert isinstance(original, Terminated) and isinstance(relaxed, Terminated)
        assert original.state == relaxed.state
        assert original.state.scalar("d") == 0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-5, max_value=5), st.integers(min_value=0, max_value=3), st.integers())
    def test_relaxed_execution_respects_relax_predicate(self, x, e, seed):
        from repro.semantics.choosers import RandomChooser

        program = parse_statement("y = x; relax (x) st (y - e <= x && x <= y + e);")
        state = State.of({"x": x, "e": e})
        outcome = run_relaxed(program, state, chooser=RandomChooser(seed=seed % 1000))
        assert isinstance(outcome, Terminated)
        assert abs(outcome.state.scalar("x") - x) <= e

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=8))
    def test_state_update_is_functional(self, value):
        state = State.of({"x": 0})
        updated = state.set_scalar("x", value)
        assert state.scalar("x") == 0
        assert updated.scalar("x") == value


# ---------------------------------------------------------------------------
# Relax witnesses: interval solving versus the enumerate_models sweep
# ---------------------------------------------------------------------------

coefficients = st.integers(min_value=-3, max_value=3)
comparisons = st.sampled_from([b.lt, b.le, b.gt, b.ge, b.eq, b.ne])


@st.composite
def linear_exprs(draw, pinned):
    """``c*t + sum(ci*pi) + k`` with ``t`` always present (``c`` may be 0)."""
    expr = b.mul(draw(coefficients), "t")
    for name in pinned:
        if draw(st.booleans()):
            expr = b.add(expr, b.mul(draw(coefficients), name))
    return b.add(expr, draw(small_ints))


@st.composite
def linear_predicates(draw, pinned, depth=3):
    """Comparisons of linear expressions under nested ``&&``/``||``/``!``."""
    if depth == 0 or draw(st.booleans()):
        right = draw(st.one_of(st.sampled_from(pinned), small_ints, linear_exprs(pinned)))
        return draw(comparisons)(draw(linear_exprs(pinned)), right)
    kind = draw(st.sampled_from(["and", "or", "not"]))
    if kind == "not":
        return b.not_(draw(linear_predicates(pinned, depth - 1)))
    operands = draw(st.lists(linear_predicates(pinned, depth - 1), min_size=2, max_size=3))
    return b.and_(*operands) if kind == "and" else b.or_(*operands)


@st.composite
def witness_problems(draw):
    """A one-target relax whose other variables are all pinned in the state."""
    pinned = draw(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=3, unique=True))
    statement = b.relax("t", draw(linear_predicates(pinned)))
    scalars = {name: draw(st.integers(min_value=-20, max_value=20)) for name in pinned}
    # Unread scalars still move the spread's centres.
    for name in draw(st.lists(st.sampled_from(["t", "w"]), unique=True)):
        scalars[name] = draw(st.integers(min_value=-30, max_value=30))
    radius = draw(st.integers(min_value=0, max_value=6))
    limit = draw(st.integers(min_value=1, max_value=12))
    return statement, State.of(scalars), radius, limit


def _sweep_witnesses(statement, state, radius, limit):
    from repro.semantics.choosers import _candidate_values_map, _predicate_formula
    from repro.solver.models import enumerate_models

    models = enumerate_models(
        _predicate_formula(statement, state),
        radius=radius,
        limit=limit,
        candidates=_candidate_values_map(statement, state, radius),
    )
    return [{"t": model[sym("t")]} for model in models]


def _witnesses_and_path(statement, state, radius, limit):
    from repro import telemetry
    from repro.semantics.choosers import relax_witnesses
    from repro.telemetry import TelemetrySession

    with telemetry.activated(TelemetrySession()) as session:
        witnesses = relax_witnesses(statement, state, radius, limit)
    paths = {
        path
        for path in ("interval", "sweep")
        if session.counters.get(f"semantics.choose.{path}")
    }
    assert len(paths) == 1
    return witnesses, paths.pop()


class TestRelaxWitnessProperties:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_problems())
    def test_interval_path_equals_enumerate_models(self, problem):
        statement, state, radius, limit = problem
        witnesses, path = _witnesses_and_path(statement, state, radius, limit)
        assert path == "interval"
        assert witnesses == _sweep_witnesses(statement, state, radius, limit)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(witness_problems(), st.sampled_from(["mul", "div", "mod", "min", "implies"]))
    def test_non_linear_predicates_take_the_sweep(self, problem, kind):
        statement, state, radius, limit = problem
        outside = {
            "mul": b.le(b.mul("t", "p"), 4),
            "div": b.eq(b.div("t", 2), "p"),
            "mod": b.eq(b.mod("t", 3), 1),
            "min": b.ge(b.min_("t", "p"), -2),
            "implies": b.implies(b.ge("t", 0), b.le("t", "p")),
        }[kind]
        statement = b.relax("t", b.and_(statement.predicate, outside))
        state = state.set_scalar("p", state.scalar("p") if state.has_scalar("p") else 1)
        witnesses, path = _witnesses_and_path(statement, state, radius, limit)
        assert path == "sweep"
        assert witnesses == _sweep_witnesses(statement, state, radius, limit)

    @settings(max_examples=60, deadline=None)
    @given(witness_problems(), st.sampled_from(["divides", "exists", "forall", "iff"]))
    def test_divisibility_and_quantifiers_have_no_interval_solver(self, problem, kind):
        from repro.logic.translate import formula_of_bool
        from repro.semantics.choosers import _interval_solver

        statement, _state, _radius, _limit = problem
        formula = formula_of_bool(statement.predicate)
        t, k = sym("t"), sym("k")
        outside = {
            "divides": F.Divides(2, var("t")),
            "exists": F.exists(k, F.eq(var("t"), var("k") * 2)),
            "forall": F.forall(k, F.le(var("k"), var("t"))),
            "iff": F.iff(F.ge(var("t"), 0), F.le(var("t"), 3)),
        }[kind]
        assert _interval_solver(formula, t) is not None
        assert _interval_solver(conj(formula, outside), t) is None
        assert _interval_solver(disj(outside, formula), t) is None
