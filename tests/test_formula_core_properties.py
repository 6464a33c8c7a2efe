"""Property-based tests (hypothesis) for the interned formula core.

The central property is the **substitution lemma**: for capture-avoiding
substitution, evaluating ``P[t/x]`` under a valuation ``v`` agrees with
evaluating ``P`` under ``v[x := eval(t, v)]`` — including under ``exists`` /
``forall`` binders that shadow or would capture the substituted variable.
A second group checks array-store substitution (the weakest precondition of
array assignment) against direct evaluation over updated array valuations,
a third pins the cached structural queries (``free_symbols``, ``size``)
against reference recursions after transforms, and a fourth pins the IR's
shape — ``node_children``, ``rebuild`` and all four cached queries — over
formulas built from every interned class.

The formula generators and reference recursions live in the shared
``tests/strategies.py`` module (also consumed by the relaxation-transform
and fuzz-synthesizer suites).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from strategies import (
    DOMAIN,
    EVERY_CLASS_FORMULA,
    NAMES,
    array_formulas,
    formulas,
    full_valuation,
    names,
    ref_arrays,
    ref_children,
    ref_free,
    ref_qdepth,
    ref_size,
    small_ints,
    terms,
    wide_formulas,
)

from repro.logic import formula as F
from repro.logic.evaluate import Valuation, evaluate, evaluate_term
from repro.logic.formula import (
    Const,
    Exists,
    Forall,
    Formula,
    Store,
    formula_arrays,
    formula_size,
    free_symbols,
    quantifier_depth,
    sym,
    term_symbols,
    var,
)
from repro.logic.subst import substitute
from repro.logic.traverse import iter_nodes, node_children, rebuild
from repro.solver.normalize import to_nnf


# -- capture-avoiding substitution under quantifiers --------------------------


class TestSubstitutionLemma:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_substitution_commutes_with_evaluation(self, data):
        formula = data.draw(formulas())
        target = sym(data.draw(names))
        replacement = data.draw(terms())
        valuation = full_valuation(data.draw)

        substituted = substitute(formula, {target: replacement})
        value = evaluate_term(replacement, valuation, DOMAIN)
        expected = evaluate(formula, valuation.with_scalar(target, value), DOMAIN)
        assert evaluate(substituted, valuation, DOMAIN) == expected

    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_free_symbol_equation(self, data):
        formula = data.draw(formulas())
        target = sym(data.draw(names))
        replacement = data.draw(terms())

        substituted = substitute(formula, {target: replacement})
        before = free_symbols(formula)
        expected = before - {target}
        if target in before:
            expected |= term_symbols(replacement)
        assert free_symbols(substituted) == expected

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_substituting_absent_symbol_is_identity(self, data):
        formula = data.draw(formulas())
        target = sym("absent")
        assert substitute(formula, {target: data.draw(terms())}) is formula

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_shadowed_binder_blocks_substitution(self, data):
        """``(Qx. P)[t/x]`` is ``Qx. P`` — the bound occurrence shadows."""
        name = data.draw(names)
        body = data.draw(formulas(depth=1))
        quantifier = Exists if data.draw(st.booleans()) else Forall
        formula = quantifier(sym(name), body)
        substituted = substitute(formula, {sym(name): data.draw(terms())})
        assert isinstance(substituted, quantifier)
        valuation = full_valuation(data.draw)
        assert evaluate(substituted, valuation, DOMAIN) == evaluate(formula, valuation, DOMAIN)


# -- array-store substitution -------------------------------------------------


class TestArrayStoreSubstitution:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_store_substitution_matches_array_update(self, data):
        """``P[store(A,i,v)/A]`` under ``V`` == ``P`` under ``V[A[i] := v]``."""
        formula = data.draw(array_formulas())
        index_term = var(data.draw(names))
        value_term = data.draw(terms())
        scalars = {sym(name): data.draw(small_ints) for name in NAMES}
        array = {cell: data.draw(small_ints) for cell in range(-9, 10)}

        substituted = substitute(
            formula, {}, arrays={sym("A"): Store(sym("A"), index_term, value_term)}
        )

        valuation = Valuation(scalars=dict(scalars), arrays={sym("A"): dict(array)})
        index = evaluate_term(index_term, valuation, DOMAIN)
        value = evaluate_term(value_term, valuation, DOMAIN)
        updated_array = dict(array)
        updated_array[index] = value
        updated = Valuation(scalars=dict(scalars), arrays={sym("A"): updated_array})

        assert evaluate(substituted, valuation, DOMAIN) == evaluate(
            formula, updated, DOMAIN
        )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_store_substitution_free_variables(self, data):
        """Free variables grow by at most the store's index/value symbols and
        never lose the formula's own scalars."""
        formula = data.draw(array_formulas())
        index_term = var(data.draw(names))
        value_term = data.draw(terms())
        substituted = substitute(
            formula, {}, arrays={sym("A"): Store(sym("A"), index_term, value_term)}
        )
        before = free_symbols(formula)
        after = free_symbols(substituted)
        assert before <= after
        assert after <= before | term_symbols(index_term) | term_symbols(value_term)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_store_substitution_roundtrip_without_array_reads(self, data):
        """A formula that never reads ``A`` is untouched by a store to ``A``."""
        formula = data.draw(formulas())
        substituted = substitute(
            formula, {}, arrays={sym("A"): Store(sym("A"), var("x"), Const(1))}
        )
        assert substituted is formula


# -- cached queries survive transforms ---------------------------------------


class TestCachePinning:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_free_and_size_caches_after_transforms(self, data):
        formula = data.draw(formulas())
        transformed = to_nnf(substitute(formula, {sym("x"): data.draw(terms())}))
        assert free_symbols(transformed) == ref_free(transformed)
        assert formula_size(transformed) == ref_size(transformed)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_interning_of_generated_formulas(self, data):
        formula = data.draw(formulas())
        # Rebuilding the exact same structure must produce the same object.
        rebuilt = (
            type(formula)(formula.symbol, formula.body)
            if isinstance(formula, (Exists, Forall))
            else formula
        )
        assert rebuilt is formula


# -- the IR's shape over every interned class ---------------------------------


def _concrete_classes(base=F._Interned):
    found = set()
    for cls in base.__subclasses__():
        found |= _concrete_classes(cls) if cls.__subclasses__() else {cls}
    return found


def _other(child):
    """A node of the same sort as ``child`` (formula, store or term), but not it."""
    if isinstance(child, Formula):
        return F.FALSE if child is F.TRUE else F.TRUE
    if isinstance(child, Store):
        other = Store(sym("C"), Const(0), Const(0))
    else:
        other = Const(99)
    return other if other is not child else Const(98)


def _assert_shape(formula):
    assert free_symbols(formula) == ref_free(formula)
    assert formula_arrays(formula) == ref_arrays(formula)
    assert formula_size(formula) == ref_size(formula)
    assert quantifier_depth(formula) == ref_qdepth(formula)
    for node in iter_nodes(formula):
        children = node_children(node)
        assert children == ref_children(node)
        assert rebuild(node, children) is node
        for position, child in enumerate(children):
            replaced = children[:position] + (_other(child),) + children[position + 1:]
            rebuilt = rebuild(node, replaced)
            assert type(rebuilt) is type(node)
            assert ref_children(rebuilt) == replaced
            # The non-child fields (relation, divisor, binder, array) survive.
            assert rebuild(rebuilt, children) is node


class TestShape:
    def test_every_class_formula_covers_every_class(self):
        classes = {type(node) for node in iter_nodes(EVERY_CLASS_FORMULA)}
        assert classes == _concrete_classes()

    def test_every_class_formula_shape(self):
        _assert_shape(EVERY_CLASS_FORMULA)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(wide_formulas(depth=3))
    def test_shape_and_cached_queries_match_reference(self, formula):
        _assert_shape(formula)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(wide_formulas(depth=3), st.sampled_from(NAMES), terms())
    def test_cached_queries_after_substitution(self, formula, name, replacement):
        _assert_shape(substitute(formula, {sym(name): replacement}))
