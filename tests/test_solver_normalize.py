"""Tests for the normalisation passes: term elimination, NNF, DNF, Ackermann."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.logic import formula as F
from repro.logic.formula import (
    And,
    Atom,
    Const,
    Divides,
    Exists,
    Forall,
    Ite,
    Max,
    Min,
    Not,
    Or,
    Rel,
    Select,
    Symbol,
    conj,
    disj,
    exists,
    forall,
    free_symbols,
    implies,
    neg,
    sym,
    var,
)
from repro.logic.evaluate import Valuation, evaluate
from repro.solver.lia import IntervalBox, prefilter_unsat_cubes
from repro.solver.normalize import (
    DnfWalk,
    FormulaTooLargeError,
    UnsupportedFormulaError,
    ackermannize,
    eliminate_compound_terms,
    has_universal,
    strip_positive_existentials,
    to_dnf,
    to_nnf,
)


def assert_equivalent_on_box(original, transformed, names, radius=3):
    """Check semantic equivalence of two formulas over a small box."""
    import itertools

    domain = range(-radius - 2, radius + 3)
    for values in itertools.product(range(-radius, radius + 1), repeat=len(names)):
        valuation = Valuation(scalars={sym(name): value for name, value in zip(names, values)})
        assert evaluate(original, valuation, domain) == evaluate(
            transformed, valuation, domain
        ), f"differ at {dict(zip(names, values))}"


class TestCompoundTermElimination:
    def test_min_elimination_preserves_semantics(self):
        formula = F.le(Min(var("x"), var("y")), var("x"))
        transformed = eliminate_compound_terms(formula)
        assert "min" not in str(transformed)
        assert_equivalent_on_box(formula, transformed, ["x", "y"])

    def test_max_elimination_preserves_semantics(self):
        formula = F.eq(Max(var("x"), var("y")), var("y"))
        transformed = eliminate_compound_terms(formula)
        assert_equivalent_on_box(formula, transformed, ["x", "y"])

    def test_ite_elimination(self):
        formula = F.gt(Ite(F.lt(var("x"), Const(0)), Const(-1), Const(1)), Const(0))
        transformed = eliminate_compound_terms(formula)
        assert "ite" not in str(transformed)
        assert_equivalent_on_box(formula, transformed, ["x"])

    def test_div_elimination_introduces_quantifier(self):
        formula = F.eq(F.Div(var("x"), Const(2)), Const(1))
        transformed = eliminate_compound_terms(formula)
        assert "exists" in str(transformed)
        assert_equivalent_on_box(formula, transformed, ["x"], radius=5)

    def test_mod_elimination_preserves_semantics(self):
        formula = F.eq(F.Mod(var("x"), Const(3)), Const(2))
        transformed = eliminate_compound_terms(formula)
        assert_equivalent_on_box(formula, transformed, ["x"], radius=7)

    def test_division_by_variable_unsupported(self):
        with pytest.raises(UnsupportedFormulaError):
            eliminate_compound_terms(F.eq(F.Div(var("x"), var("y")), Const(0)))

    def test_division_by_zero_unsupported(self):
        with pytest.raises(UnsupportedFormulaError):
            eliminate_compound_terms(F.eq(F.Div(var("x"), Const(0)), Const(0)))


class TestNNF:
    def test_negated_comparison_flips_relation(self):
        formula = neg(F.lt(var("x"), Const(0)))
        assert str(to_nnf(formula)) == "(x >= 0)"

    def test_implication_expansion(self):
        formula = implies(F.lt(var("x"), 0), F.lt(var("y"), 0))
        nnf = to_nnf(formula)
        assert "==>" not in str(nnf)

    def test_negation_of_conjunction(self):
        formula = neg(conj(F.lt(var("x"), 0), F.gt(var("y"), 0)))
        nnf = to_nnf(formula)
        assert isinstance(nnf, Or)

    def test_quantifier_duality(self):
        formula = neg(forall(sym("x"), F.ge(var("x"), 0)))
        nnf = to_nnf(formula)
        assert isinstance(nnf, Exists)

    def test_iff_expansion_semantics(self):
        formula = F.iff(F.gt(var("x"), 0), F.gt(var("y"), 0))
        assert_equivalent_on_box(formula, to_nnf(formula), ["x", "y"])

    def test_negated_divides_kept(self):
        formula = neg(Divides(2, var("x")))
        nnf = to_nnf(formula)
        assert isinstance(nnf, Not)


class TestSkolemisation:
    def test_positive_existentials_removed(self):
        formula = exists(sym("k"), F.eq(var("x"), var("k") * Const(2)))
        stripped = strip_positive_existentials(to_nnf(formula))
        assert "exists" not in str(stripped)
        assert len(free_symbols(stripped)) == 2

    def test_universals_left_in_place(self):
        formula = forall(sym("k"), F.ge(var("k"), var("x")))
        stripped = strip_positive_existentials(to_nnf(formula))
        assert has_universal(stripped)

    def test_has_universal_false_for_qf(self):
        assert not has_universal(to_nnf(F.lt(var("x"), 0)))


class TestDNF:
    def test_simple_distribution(self):
        formula = conj(disj(F.lt(var("x"), 0), F.gt(var("x"), 5)), F.eq(var("y"), 1))
        cubes = to_dnf(to_nnf(formula))
        assert len(cubes) == 2
        assert all(len(cube) == 2 for cube in cubes)

    def test_true_and_false(self):
        assert to_dnf(F.TRUE) == [()]
        assert to_dnf(F.FALSE) == []

    def test_size_cap(self):
        disjuncts = [disj(F.eq(var(f"x{i}"), 0), F.eq(var(f"x{i}"), 1)) for i in range(12)]
        with pytest.raises(FormulaTooLargeError):
            to_dnf(conj(*disjuncts), max_cubes=64)


@st.composite
def walk_literals(draw):
    """Literals of the DNF walk's box: mostly unit bounds over a small
    symbol pool, so random prefixes do get refuted, plus wide rows,
    disequalities and (negated) divisibility, which push no rows."""
    choice = draw(st.integers(min_value=0, max_value=9))
    x, y = var(draw(st.sampled_from("xy"))), var(draw(st.sampled_from("yz")))
    if choice == 9:
        divides = Divides(draw(st.sampled_from([2, 3])), x)
        return divides if draw(st.booleans()) else Not(divides)
    rel = draw(st.sampled_from([Rel.LT, Rel.LE, Rel.GT, Rel.GE, Rel.EQ, Rel.NE]))
    left = x * Const(draw(st.sampled_from([-2, -1, 1, 3]))) if choice < 6 else x + y
    return Atom(rel, left, Const(draw(st.integers(min_value=-3, max_value=3))))


def nnf_formulas():
    """NNF formulas built from raw ``And``/``Or`` nodes (nested, unflattened,
    possibly empty) over :func:`walk_literals` and the constants, and
    conjunctions of such disjunctions, whose DNF waves are wide and share
    long prefixes."""
    leaves = st.one_of(walk_literals(), st.sampled_from([F.TRUE, F.FALSE]))
    nested = st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(lambda ops: And(tuple(ops))),
            st.lists(children, max_size=4).map(lambda ops: Or(tuple(ops))),
        ),
        max_leaves=12,
    )
    clause = st.lists(st.one_of(walk_literals(), nested), min_size=1, max_size=3)
    products = st.lists(clause.map(lambda ops: Or(tuple(ops))), min_size=1, max_size=6)
    return st.one_of(nested, products.map(lambda ops: And(tuple(ops))))


def _dnf_or_overflow(formula, max_cubes):
    try:
        return to_dnf(formula, max_cubes)
    except FormulaTooLargeError:
        return None


class TestDnfWalk:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(nnf_formulas())
    def test_walk_yields_the_unrefuted_cubes_of_to_dnf_in_order(self, formula):
        cubes = to_dnf(formula, max_cubes=10**6)
        walk = DnfWalk(formula, max_cubes=10**6)
        assert walk.size == len(cubes)
        assert list(walk.cubes()) == cubes and walk.pruned == 0

        refuted = prefilter_unsat_cubes(cubes)
        expected = [cube for cube, infeasible in zip(cubes, refuted) if not infeasible]
        walk = DnfWalk(formula, max_cubes=10**6)
        yielded = []
        for cube in walk.cubes(IntervalBox()):
            yielded.append(cube)
            # Every pruned cube comes before the one just yielded.
            assert cubes[walk.pruned + len(yielded) - 1] == cube
        assert yielded == expected
        assert walk.pruned + len(yielded) == len(cubes)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(nnf_formulas(), st.integers(min_value=0, max_value=12))
    def test_walk_overflows_exactly_where_to_dnf_does(self, formula, max_cubes):
        cubes = _dnf_or_overflow(formula, max_cubes)
        if cubes is None:
            with pytest.raises(FormulaTooLargeError, match=f"exceeded {max_cubes} cubes"):
                DnfWalk(formula, max_cubes)
        else:
            assert list(DnfWalk(formula, max_cubes).cubes()) == cubes

    def test_false_operand_after_an_overflowing_prefix(self):
        pair = [Or((F.eq(var(name), 0), F.eq(var(name), 1))) for name in "abc"]
        # 2 * 2 * 2 cubes exceed the cap before FALSE empties the product ...
        late = And((*pair, F.FALSE))
        assert _dnf_or_overflow(late, 4) is None
        with pytest.raises(FormulaTooLargeError):
            DnfWalk(late, 4)
        # ... but FALSE first keeps every later product at zero.
        early = And((F.FALSE, *pair))
        assert _dnf_or_overflow(early, 4) == []
        walk = DnfWalk(early, 4)
        assert walk.size == 0 and list(walk.cubes(IntervalBox())) == []

    def test_a_refuted_prefix_prunes_its_whole_subtree(self):
        x = var("x")
        wide = And(tuple(Or((F.eq(var(f"y{i}"), 0), F.eq(var(f"y{i}"), 1))) for i in range(5)))
        formula = Or((And((F.ge(x, 1), F.le(x, 0), wide)), F.eq(x, 7)))
        walk = DnfWalk(formula)
        assert list(walk.cubes(IntervalBox())) == [(F.eq(x, 7),)]
        assert walk.pruned == 32

    def test_non_nnf_input_is_rejected(self):
        with pytest.raises(AssertionError):
            DnfWalk(neg(F.eq(var("x"), 0)))


class TestAckermann:
    def test_no_arrays_is_identity(self):
        formula = F.lt(var("x"), 0)
        result = ackermannize(formula)
        assert result.formula == formula
        assert result.constraints == F.TRUE

    def test_consistency_constraints_generated(self):
        array = Symbol("A")
        formula = conj(
            F.eq(Select(array, var("i")), Const(1)),
            F.eq(Select(array, var("j")), Const(2)),
        )
        result = ackermannize(formula)
        assert len(result.select_map) == 2
        assert "==>" in str(result.constraints)

    def test_quantified_index_rejected(self):
        array = Symbol("A")
        formula = exists(sym("i"), F.eq(Select(array, var("i")), Const(0)))
        with pytest.raises(UnsupportedFormulaError):
            ackermannize(formula)
