"""Tests for the interned formula core and the shared traversal framework.

Covers:

* hash-consing invariants (structural equality == identity, pickling
  re-interns),
* correctness of the cached structural queries (``free_symbols``,
  ``formula_size``, ``formula_arrays``, ``quantifier_depth``) against
  independent reference recursions — including *after* transforms,
* the identity-preserving behaviour of substitution and the traversal
  helpers (untouched subtrees come back as the same object),
* ``with_tag`` / ``with_scalar`` returning ``self`` when nothing changes.
"""

import pickle

import pytest

from repro.engine.batch import case_study_items
from repro.engine.fingerprint import _CANON_CACHE, fingerprint
from repro.hoare.verifier import AcceptabilityVerifier
from repro.logic import formula as F
from repro.logic.evaluate import Valuation
from repro.logic.formula import (
    And,
    Atom,
    Const,
    Divides,
    Exists,
    Forall,
    Formula,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Rel,
    Select,
    Store,
    SymTerm,
    Symbol,
    Tag,
    Term,
    conj,
    disj,
    exists,
    forall,
    formula_arrays,
    formula_size,
    free_symbols,
    quantifier_depth,
    sym,
    sym_r,
    var,
)
from repro.logic.subst import rename_arrays, substitute
from repro.logic.traverse import (
    TypeDispatcher,
    iter_nodes,
    node_children,
    rebuild,
    replace_node,
)
from repro.solver.models import _subformulas
from repro.solver.normalize import to_nnf
from strategies import ref_arrays, ref_free, ref_qdepth, ref_size


def _study_corpus():
    """(kind, formula) for every obligation of every registered study."""
    corpus = []
    for item in case_study_items():
        bundle = AcceptabilityVerifier().collect(item.program, item.spec)
        for collector in (bundle.original, bundle.relaxed):
            corpus.extend((o.kind.value, o.formula) for o in collector.obligations)
    return corpus


# -- interning ----------------------------------------------------------------


class TestInterning:
    def test_equal_construction_is_identical(self):
        a = conj(F.lt(var("x"), 3), F.gt(var("y"), 0))
        b = conj(F.lt(var("x"), 3), F.gt(var("y"), 0))
        assert a is b

    def test_equality_is_identity(self):
        a = F.eq(var("x"), 1)
        b = F.eq(var("x"), 2)
        assert a != b
        assert a == F.eq(var("x"), 1)

    def test_distinct_classes_do_not_collide(self):
        assert F.Add(var("x"), var("y")) is not F.Sub(var("x"), var("y"))
        assert And((F.TRUE,)) is not Or((F.TRUE,))

    def test_hash_is_precomputed_and_stable(self):
        a = exists(sym("x"), F.lt(var("x"), var("y")))
        assert hash(a) == hash(exists(sym("x"), F.lt(var("x"), var("y"))))
        assert len({a, exists(sym("x"), F.lt(var("x"), var("y")))}) == 1

    def test_nodes_are_immutable(self):
        atom = F.lt(var("x"), 0)
        with pytest.raises(AttributeError):
            atom.rel = Rel.GT

    def test_pickle_reinterns(self):
        original = forall(sym("k"), Implies(F.ge(var("k"), 0), F.ge(var("k") + 1, 1)))
        clone = pickle.loads(pickle.dumps(original))
        assert clone is original

    def test_recollected_study_corpus_is_shared(self):
        """Re-collecting every study's obligations rebuilds the very same
        objects, so the rebuild runs on intern-table hits."""
        first = _study_corpus()
        second = _study_corpus()
        assert len(second) == len(first) > 0
        assert all(a is b for (_, a), (_, b) in zip(first, second))
        # What makes the no-op substitution and the warm fingerprint pass
        # cheap on this corpus: a disjoint substitution returns each
        # obligation itself, and a second fingerprint pass is answered by
        # the canonical strings cached on the interned nodes.
        absent = {sym("__absent__"): Const(0)}
        assert all(substitute(formula, absent) is formula for _, formula in first)
        _CANON_CACHE.clear()
        cold = [fingerprint(formula, kind) for kind, formula in first]
        assert all(formula in _CANON_CACHE for _, formula in first)
        cached = len(_CANON_CACHE)
        assert [fingerprint(formula, kind) for kind, formula in first] == cold
        assert len(_CANON_CACHE) == cached

    def test_repr_is_constructor_like(self):
        assert repr(Const(3)) == "Const(value=3)"
        assert "Atom(" in repr(F.lt(var("x"), 0))


# -- cached structural queries ------------------------------------------------


SAMPLE_FORMULAS = [
    F.TRUE,
    F.lt(var("x") + var("y") * 2, 7),
    Divides(3, var("n")),
    exists(sym("x"), conj(F.gt(var("x"), 0), F.lt(var("x"), var("y")))),
    forall([sym("a"), sym("b")], Iff(F.eq(var("a"), var("b")), F.le(var("a"), var("b")))),
    F.eq(Select(sym("A"), var("i")), Ite(F.gt(var("j"), 0), Const(1), Select(sym("A"), var("j")))),
    F.eq(Select(Store(sym("A"), var("i"), Const(3)), var("k")), Const(0)),
    Not(Implies(F.gt(var("x"), 0), exists(sym("z"), F.eq(var("z"), var("x"))))),
]


class TestCachedQueries:
    @pytest.mark.parametrize("formula", SAMPLE_FORMULAS, ids=str)
    def test_free_symbols_matches_reference(self, formula):
        assert free_symbols(formula) == ref_free(formula)

    @pytest.mark.parametrize("formula", SAMPLE_FORMULAS, ids=str)
    def test_quantifier_depth_matches_reference(self, formula):
        assert quantifier_depth(formula) == ref_qdepth(formula)

    @pytest.mark.parametrize("formula", SAMPLE_FORMULAS, ids=str)
    def test_formula_arrays_matches_reference(self, formula):
        assert formula_arrays(formula) == ref_arrays(formula)

    @pytest.mark.parametrize("formula", SAMPLE_FORMULAS, ids=str)
    def test_formula_size_matches_reference(self, formula):
        assert formula_size(formula) == ref_size(formula)

    def test_select_over_store_reads_the_store(self):
        # A read of an unexpanded store mentions the store's index and value
        # and reads the store's array, never the store term itself.
        formula = F.eq(Select(Store(sym("A"), var("i"), var("v")), var("k")), Const(0))
        assert free_symbols(formula) == {sym("i"), sym("v"), sym("k")}
        assert formula_arrays(formula) == {sym("A")}

    def test_formula_size_counts_nodes(self):
        # Size counts terms and connectives but not array symbols, exactly
        # like the historical recursion it replaced.
        assert formula_size(F.lt(var("x"), 0)) == 3
        assert formula_size(conj(F.lt(var("x"), 0), F.gt(var("y"), 1))) == 7
        assert formula_size(exists(sym("x"), F.lt(var("x"), 0))) == 4

    def test_caches_stay_correct_after_substitute(self):
        formula = exists(sym("x"), conj(F.lt(var("x"), var("y")), F.gt(var("z"), 0)))
        result = substitute(formula, {sym("y"): var("w") + 1})
        assert free_symbols(result) == ref_free(result)
        assert formula_size(result) == ref_size(result)
        assert quantifier_depth(result) == ref_qdepth(result)

    def test_caches_stay_correct_after_nnf(self):
        formula = Not(Implies(F.gt(var("x"), 0), forall(sym("k"), F.le(var("k"), var("x")))))
        result = to_nnf(formula)
        assert free_symbols(result) == ref_free(result)
        assert formula_size(result) == ref_size(result)
        assert quantifier_depth(result) == ref_qdepth(result)

    def test_caches_stay_correct_after_rename_arrays(self):
        formula = F.eq(Select(sym("A"), var("i")), Const(0))
        renamed = rename_arrays(formula, {sym("A"): sym("B")})
        assert formula_arrays(renamed) == {sym("B")}
        assert free_symbols(renamed) == {sym("i")}


# -- identity preservation ----------------------------------------------------


class TestIdentityPreservation:
    def test_substitute_with_disjoint_domain_returns_same_object(self):
        formula = conj(F.lt(var("x"), 3), exists(sym("y"), F.gt(var("y"), var("x"))))
        assert substitute(formula, {sym("unrelated"): Const(1)}) is formula

    def test_substitute_shares_untouched_subtrees(self):
        left = F.lt(var("x"), 3)
        right = F.gt(var("y"), 0)
        result = substitute(conj(left, right), {sym("y"): Const(5)})
        assert isinstance(result, And)
        assert result.operands[0] is left

    def test_rename_arrays_without_match_returns_same_object(self):
        formula = F.eq(Select(sym("A"), var("i")), Const(0))
        assert rename_arrays(formula, {sym("Z"): sym("W")}) is formula

    def test_rebuild_identity(self):
        formula = conj(F.lt(var("x"), 3), F.gt(var("y"), 0))
        assert rebuild(formula, node_children(formula)) is formula

    def test_with_tag_returns_self_when_unchanged(self):
        plain = sym("x")
        tagged = sym_r("x")
        assert plain.with_tag(None) is plain
        assert tagged.with_tag(Tag.RELAXED) is tagged
        assert plain.with_tag(Tag.RELAXED) == tagged

    def test_with_scalar_returns_self_when_unchanged(self):
        valuation = Valuation(scalars={sym("x"): 3})
        assert valuation.with_scalar(sym("x"), 3) is valuation
        assert valuation.with_scalar(sym("x"), 4) is not valuation


# -- traversal framework ------------------------------------------------------


class TestTraversals:
    def test_iter_nodes_is_postorder_and_deduplicated(self):
        shared = F.lt(var("x"), 0)
        formula = conj(shared, disj(shared, F.gt(var("y"), 1)))
        nodes = list(iter_nodes(formula))
        assert nodes.count(shared) == 1
        assert nodes.index(shared) < nodes.index(formula)
        # children come before parents
        for parent in nodes:
            for child in node_children(parent):
                assert nodes.index(child) < nodes.index(parent)

    def test_replace_node_replaces_all_occurrences(self):
        target = var("x")
        formula = conj(F.lt(target, 3), F.gt(target + 1, 0))
        replaced = replace_node(formula, target, var("z"))
        assert free_symbols(replaced) == {sym("z")}

    def test_replace_node_does_not_enter_ite_conditions_from_terms(self):
        target = var("x")
        term = Ite(F.gt(target, 0), target, Const(0))
        replaced = replace_node(term, target, var("z"))
        assert isinstance(replaced, Ite)
        assert replaced.condition is term.condition  # condition untouched
        assert replaced.then_term == var("z")

    def test_model_search_subformulas_skip_terms(self):
        formula = Implies(F.lt(var("x"), 0), F.TRUE)
        assert _subformulas(formula) == [formula.antecedent, formula.consequent]
        assert _subformulas(F.lt(var("x"), 0)) == []

    def test_type_dispatcher_dispatches_and_rejects(self):
        dispatch = TypeDispatcher("demo")

        @dispatch.register(Atom, Divides)
        def _atomic(node):
            return "atomic"

        assert dispatch(F.lt(var("x"), 0)) == "atomic"
        with pytest.raises(TypeError, match="unknown demo node"):
            dispatch(F.TRUE)
        with pytest.raises(ValueError, match="duplicate handler"):
            dispatch.register(Atom)(lambda node: None)
