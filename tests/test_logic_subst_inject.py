"""Tests for substitution, injections, projections and translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import NAMES, array_formulas, formulas, terms

from repro import telemetry
from repro.lang import builder as b
from repro.logic import subst
from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate
from repro.logic.formula import (
    Const,
    Exists,
    Forall,
    Select,
    Store,
    Symbol,
    SymTerm,
    Tag,
    conj,
    exists,
    free_symbols,
    sym,
    sym_o,
    sym_r,
    var,
)
from repro.logic.inject import (
    inj_o,
    inj_r,
    pair,
    projection_entails,
    projection_formula,
    relational_frame,
    strip_o,
    strip_r,
)
from repro.logic.subst import rename_arrays, rename_symbols, substitute, substitute_term
from repro.logic.translate import (
    formula_of_bool,
    formula_of_rel_bool,
    term_of_expr,
)
from repro.logic.traverse import iter_nodes
from repro.solver.interface import Solver
from repro.telemetry import TelemetrySession


class TestSubstitution:
    def test_simple_substitution(self):
        formula = F.lt(var("x"), var("y"))
        result = substitute(formula, {sym("x"): Const(5)})
        assert str(result) == "(5 < y)"

    def test_substitution_leaves_other_symbols(self):
        formula = F.eq(var("x") + var("y"), Const(0))
        result = substitute(formula, {sym("z"): Const(1)})
        assert result == formula

    def test_substitution_under_quantifier_ignores_bound(self):
        formula = exists(sym("x"), F.lt(var("x"), var("y")))
        result = substitute(formula, {sym("x"): Const(5)})
        assert result == formula

    def test_capture_avoiding_substitution(self):
        # [y := x] in (exists x . x < y) must rename the bound x.
        formula = exists(sym("x"), F.lt(var("x"), var("y")))
        result = substitute(formula, {sym("y"): SymTerm(sym("x"))})
        assert isinstance(result, Exists)
        assert result.symbol != sym("x")
        assert sym("x") in free_symbols(result)

    def test_substitute_term_into_select_index(self):
        term = Select(Symbol("A"), var("i"))
        result = substitute_term(term, {sym("i"): Const(3)})
        assert str(result) == "A[3]"

    def test_array_substitution_expands_store(self):
        # Q[store(A, i, v)/A] turns A[j] into ite(i == j, v, A[j]).
        formula = F.eq(Select(Symbol("A"), var("j")), Const(0))
        result = substitute(
            formula, {}, arrays={Symbol("A"): Store(Symbol("A"), var("i"), Const(7))}
        )
        assert "ite" in str(result)

    def test_array_substitution_avoids_capture(self):
        # [store(A, i, 5)/A] in (forall i . A[0] > i) brings a free i into
        # the body, so the bound i must be renamed.
        formula = Forall(sym("i"), F.gt(Select(Symbol("A"), Const(0)), var("i")))
        store = Store(Symbol("A"), var("i"), Const(5))
        result = substitute(formula, {}, arrays={Symbol("A"): store})
        assert isinstance(result, Forall)
        assert result.symbol != sym("i")
        assert free_symbols(result) == {sym("i")}

    def test_binder_not_renamed_without_capture(self):
        # Only y<o> is free under the binder, and its replacement does not
        # mention x: the replacement of x<o>, which does, never reaches it.
        formula = F.conj(
            F.gt(var("x", Tag.ORIGINAL), 0),
            Forall(sym("x"), F.lt(var("x"), var("y", Tag.ORIGINAL))),
        )
        result = substitute(
            formula, {sym_o("x"): SymTerm(sym("x")), sym_o("y"): SymTerm(sym("y"))}
        )
        assert result == F.conj(F.gt(var("x"), 0), Forall(sym("x"), F.lt(var("x"), var("y"))))

    def test_rename_symbols(self):
        formula = F.lt(var("x"), Const(0))
        renamed = rename_symbols(formula, {sym("x"): sym_o("x")})
        assert free_symbols(renamed) == {sym_o("x")}

    def test_rename_arrays(self):
        formula = F.eq(Select(Symbol("A", Tag.RELAXED), var("i")), Const(0))
        renamed = rename_arrays(formula, {Symbol("A", Tag.RELAXED): Symbol("A")})
        assert "A[" in str(renamed) and "<r>[" not in str(renamed)


class TestInjections:
    def test_inj_o_tags_symbols(self):
        formula = F.lt(var("x"), var("y"))
        assert free_symbols(inj_o(formula)) == {sym_o("x"), sym_o("y")}

    def test_inj_r_tags_symbols(self):
        formula = F.lt(var("x"), var("y"))
        assert free_symbols(inj_r(formula)) == {sym_r("x"), sym_r("y")}

    def test_strip_o_inverts_inj_o(self):
        formula = F.lt(var("x"), Const(1))
        assert strip_o(inj_o(formula)) == formula

    @settings(max_examples=3000, deadline=None)
    @given(formulas(), array_formulas())
    def test_strip_inverts_inject_exactly(self, formula, array_formula):
        unary = conj(formula, array_formula)
        assert strip_o(inj_o(unary)) is unary
        assert strip_r(inj_r(unary)) is unary

    def test_pair_combines_both_sides(self):
        combined = pair(F.lt(var("x"), 0), F.gt(var("x"), 0))
        symbols = free_symbols(combined)
        assert sym_o("x") in symbols and sym_r("x") in symbols

    def test_relational_frame(self):
        frame = relational_frame(["x", "y"])
        symbols = free_symbols(frame)
        assert {sym_o("x"), sym_r("x"), sym_o("y"), sym_r("y")} == symbols

    def test_projection_formula_strips_tags(self):
        relation = conj(F.eq(SymTerm(sym_o("x")), SymTerm(sym_r("x"))),
                        F.ge(SymTerm(sym_o("x")), Const(0)))
        projected = projection_formula(relation, Tag.ORIGINAL)
        assert sym("x") in free_symbols(projected)
        assert sym_o("x") not in free_symbols(projected)

    def test_projection_entails_is_checked_by_solver(self):
        relation = conj(
            F.eq(SymTerm(sym_o("x")), SymTerm(sym_r("x"))),
            F.ge(SymTerm(sym_o("x")), Const(0)),
        )
        obligation = projection_entails(relation, F.ge(var("x"), Const(0)), Tag.RELAXED)
        assert Solver().check_valid(obligation).is_valid


class TestTranslation:
    def test_term_of_expr_plain(self):
        term = term_of_expr(b.add("x", 3))
        assert free_symbols(F.eq(term, Const(0))) == {sym("x")}

    def test_term_of_expr_tagged(self):
        term = term_of_expr(b.add("x", 3), Tag.ORIGINAL)
        assert free_symbols(F.eq(term, Const(0))) == {sym_o("x")}

    def test_formula_of_bool_matches_evaluation(self):
        condition = b.and_(b.lt("x", 5), b.or_(b.eq("y", 0), b.gt("y", 2)))
        formula = formula_of_bool(condition)
        valuation = Valuation(scalars={sym("x"): 3, sym("y"): 4})
        assert evaluate(formula, valuation) is True

    def test_formula_of_bool_array_read(self):
        condition = b.lt(b.aread("A", "i"), "cut")
        formula = formula_of_bool(condition, Tag.RELAXED)
        assert Symbol("A", Tag.RELAXED) in F.formula_arrays(formula)

    def test_formula_of_rel_bool(self):
        condition = b.within("x", 2)
        formula = formula_of_rel_bool(condition)
        assert {sym_o("x"), sym_r("x")} <= free_symbols(formula)

    def test_formula_of_rel_bool_array(self):
        formula = formula_of_rel_bool(b.eq(b.oread("A", b.o("i")), 0))
        assert "A<o>" in str(formula)

    def test_min_max_translation(self):
        formula = formula_of_bool(b.eq(b.max_("x", "y"), "x"))
        assert "max" in str(formula)


# ---------------------------------------------------------------------------
# The rewrite memo: results kept across calls are the results of a fresh pass
# ---------------------------------------------------------------------------


@st.composite
def capturing_substitutions(draw):
    """A formula and a mapping that exercise both binder cases.

    ``shadowed`` is bound by an ``exists`` and is in the mapping's domain, so
    the pass below that binder uses the narrowed mapping; the replacement of
    ``free`` mentions ``captured``, which a ``forall`` binds above a free
    occurrence of ``free``, so that binder must be renamed.
    """
    shadowed, captured, free = draw(st.permutations(NAMES))
    formula = F.conj(
        Exists(
            sym(shadowed),
            F.conj(F.le(var(shadowed), var(free)), draw(formulas(depth=1))),
        ),
        Forall(
            sym(captured),
            F.conj(F.lt(var(captured), var(free)), draw(formulas(depth=2))),
        ),
        draw(formulas(depth=2)),
    )
    mapping = {
        sym(shadowed): draw(terms()),
        sym(free): F.Add(var(captured), draw(terms())),
    }
    return formula, mapping, sym(captured)


@st.composite
def relational_formulas(draw):
    """A relation over both executions, arrays included."""
    return F.conj(
        inj_o(draw(formulas(depth=2))),
        inj_r(draw(formulas(depth=2))),
        inj_r(draw(array_formulas())),
        draw(formulas(depth=1)),
    )


def warm_matches_cold(rewrite, formula, *others):
    """``rewrite(formula)`` through a memo warmed by rewriting every
    sub-formula, with ``rewrite`` and with the ``others`` (other mappings
    over the same nodes), is the very node a cleared memo gives."""
    subst.clear_rewrite_memo()
    cold = rewrite(formula)
    subst.clear_rewrite_memo()
    for node in iter_nodes(formula):
        if isinstance(node, F.Formula):
            for warm_up in (*others, rewrite):
                warm_up(node)
    warm = rewrite(formula)
    assert warm is cold
    assert rewrite(formula) is cold
    return cold


class TestRewriteMemo:
    @settings(max_examples=150, deadline=None)
    @given(capturing_substitutions())
    def test_substitute_with_capture_and_shadowing(self, case):
        formula, mapping, captured = case
        shifted = {key: F.Add(value, Const(1)) for key, value in mapping.items()}
        result = warm_matches_cold(
            lambda f: substitute(f, mapping), formula, lambda f: substitute(f, shifted)
        )
        # The replacement brings the captured name in free; the binder of that
        # name was renamed rather than capturing it.
        assert captured in free_symbols(result)

    @settings(max_examples=100, deadline=None)
    @given(formulas(depth=3), st.dictionaries(st.sampled_from(NAMES), terms(), max_size=3))
    def test_substitute_any_mapping(self, formula, drawn):
        mapping = {sym(name): term for name, term in drawn.items()}
        shifted = {key: F.Add(value, Const(1)) for key, value in mapping.items()}
        warm_matches_cold(
            lambda f: substitute(f, mapping), formula, lambda f: substitute(f, shifted)
        )

    @settings(max_examples=100, deadline=None)
    @given(array_formulas(depth=2), st.permutations([Symbol("B"), Symbol("A", Tag.RELAXED)]))
    def test_rename_arrays(self, formula, targets):
        target, other = targets
        renamed = warm_matches_cold(
            lambda f: rename_arrays(f, {Symbol("A"): target}),
            formula,
            lambda f: rename_arrays(f, {Symbol("A"): other}),
            lambda f: substitute(f, {}, {Symbol("A"): Store(Symbol("A"), Const(0), Const(1))}),
        )
        assert F.formula_arrays(renamed) == {target}

    @settings(max_examples=100, deadline=None)
    @given(formulas(depth=3), array_formulas())
    def test_injections(self, formula, array_formula):
        unary = F.conj(formula, array_formula)
        rewrites = (inj_o, inj_r, strip_o, strip_r)
        for inject, strip in ((inj_o, strip_o), (inj_r, strip_r)):
            injected = warm_matches_cold(inject, unary, *rewrites)
            warm_matches_cold(strip, injected, *rewrites)

    @settings(max_examples=100, deadline=None)
    @given(relational_formulas())
    def test_projection(self, relation):
        projections = [
            lambda f, keep=keep: projection_formula(f, keep)
            for keep in (Tag.ORIGINAL, Tag.RELAXED)
        ]
        for projection in projections:
            warm_matches_cold(projection, relation, *projections, inj_o, strip_r)

    def test_table_is_cleared_at_its_limit(self, monkeypatch):
        monkeypatch.setattr(subst, "_MEMO_LIMIT", 8)
        subst.clear_rewrite_memo()
        formula = F.conj(*(F.lt(var("x"), var("y") + Const(k)) for k in range(10)))
        first = substitute(formula, {sym("x"): Const(1)})
        full = subst.rewrite_memo_stats()
        assert full["entries"] >= 8 and full["passes"] == 1
        # The next top-level call finds the table full and starts it afresh:
        # it then holds that call's pass alone, as after an explicit clear.
        second = substitute(formula, {sym("y"): Const(1)})
        after = subst.rewrite_memo_stats()
        assert after["passes"] == 1
        subst.clear_rewrite_memo()
        assert substitute(formula, {sym("y"): Const(1)}) is second
        assert subst.rewrite_memo_stats()["entries"] == after["entries"]
        assert substitute(formula, {sym("x"): Const(1)}) is first

    def test_top_level_hits_are_counted(self):
        subst.clear_rewrite_memo()
        formula = exists(sym("y"), F.lt(var("x"), var("y")))
        with telemetry.activated(TelemetrySession()) as session:
            first = substitute(formula, {sym("x"): Const(2)})
            again = substitute(formula, {sym("x"): Const(2)})
            untouched = substitute(formula, {sym("z"): Const(2)})
        assert again is first and untouched is formula
        assert session.counters["logic.rewrite.misses"] == 1
        assert session.counters["logic.rewrite.hits"] == 1
