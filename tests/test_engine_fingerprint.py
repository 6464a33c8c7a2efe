"""Tests for canonical obligation fingerprinting.

The cache key must identify obligations up to presentation — alpha-renaming
of bound variables, conjunct/disjunct order, symmetric-atom orientation —
while never conflating semantically different queries or query kinds.
"""

import pytest

from repro.engine.fingerprint import canonical_form, fingerprint
from repro.logic.formula import (
    Add,
    Const,
    Divides,
    Iff,
    Ite,
    Select,
    Store,
    conj,
    disj,
    eq,
    exists,
    forall,
    ge,
    gt,
    iff,
    implies,
    le,
    lt,
    ne,
    neg,
    sym,
    sym_o,
    sym_r,
    var,
)


def fp(formula, kind="validity"):
    return fingerprint(formula, kind)


class TestAlphaEquivalence:
    def test_renamed_bound_variable_hashes_identically(self):
        left = exists(sym("x"), gt(var("x"), 0))
        right = exists(sym("fresh_99"), gt(var("fresh_99"), 0))
        assert fp(left) == fp(right)

    def test_renamed_forall_hashes_identically(self):
        left = forall(sym("k"), implies(ge(var("k"), 0), ge(var("k") + 1, 1)))
        right = forall(sym("m"), implies(ge(var("m"), 0), ge(var("m") + 1, 1)))
        assert fp(left) == fp(right)

    def test_nested_quantifiers_with_swapped_names(self):
        left = exists(sym("a"), forall(sym("b"), lt(var("a"), var("b"))))
        right = exists(sym("b"), forall(sym("a"), lt(var("b"), var("a"))))
        assert fp(left) == fp(right)

    def test_shadowing_is_respected(self):
        # exists x. (x > 0 && exists x. x < 0) versus two distinct binders.
        inner = exists(sym("x"), lt(var("x"), 0))
        left = exists(sym("x"), conj(gt(var("x"), 0), inner))
        right = exists(sym("y"), conj(gt(var("y"), 0), exists(sym("z"), lt(var("z"), 0))))
        assert fp(left) == fp(right)

    def test_free_symbols_are_not_renamed(self):
        assert fp(gt(var("x"), 0)) != fp(gt(var("y"), 0))

    def test_tagged_symbols_are_distinct(self):
        left = eq(Select(sym_o("A"), var("i")), Const(0))
        right = eq(Select(sym_r("A"), var("i")), Const(0))
        assert fp(left) != fp(right)


class TestReorderingAndOrientation:
    def test_conjunct_order_is_canonical(self):
        a, b, c = gt(var("x"), 0), lt(var("y"), 5), eq(var("z"), 1)
        assert fp(conj(a, b, c)) == fp(conj(c, a, b))

    def test_disjunct_order_is_canonical(self):
        a, b = gt(var("x"), 0), lt(var("y"), 5)
        assert fp(disj(a, b)) == fp(disj(b, a))

    def test_duplicate_conjuncts_collapse(self):
        a = gt(var("x"), 0)
        assert fp(conj(a, a)) == fp(a)

    def test_gt_is_flipped_lt(self):
        assert canonical_form(gt(var("x"), var("y"))) == canonical_form(
            lt(var("y"), var("x"))
        )

    def test_ge_is_flipped_le(self):
        assert canonical_form(ge(var("x"), var("y"))) == canonical_form(
            le(var("y"), var("x"))
        )

    def test_equality_is_symmetric(self):
        assert fp(eq(var("x"), var("y"))) == fp(eq(var("y"), var("x")))
        assert fp(ne(var("x"), var("y"))) == fp(ne(var("y"), var("x")))

    def test_iff_is_symmetric(self):
        a, b = gt(var("x"), 0), lt(var("y"), 5)
        assert fp(iff(a, b)) == fp(iff(b, a))

    def test_commutative_terms_are_sorted(self):
        assert fp(eq(var("x") + var("y"), 3)) == fp(eq(var("y") + var("x"), 3))

    def test_subtraction_is_not_commutative(self):
        assert fp(eq(var("x") - var("y"), 0)) != fp(eq(var("y") - var("x"), 0))


class TestSemanticDiscrimination:
    def test_strict_vs_nonstrict(self):
        assert fp(gt(var("x"), 0)) != fp(ge(var("x"), 0))

    def test_different_constants(self):
        assert fp(gt(var("x"), 0)) != fp(gt(var("x"), 1))

    def test_negation_matters(self):
        formula = gt(var("x"), 0)
        assert fp(formula) != fp(neg(formula))

    def test_quantifier_kind_matters(self):
        assert fp(exists(sym("x"), gt(var("x"), 0))) != fp(
            forall(sym("x"), gt(var("x"), 0))
        )

    def test_kind_separates_validity_from_satisfiability(self):
        formula = gt(var("x"), 0)
        assert fp(formula, "validity") != fp(formula, "satisfiability")

    def test_implication_direction_matters(self):
        a, b = gt(var("x"), 0), lt(var("y"), 5)
        assert fp(implies(a, b)) != fp(implies(b, a))

    def test_divides_atoms(self):
        assert fp(Divides(2, var("x"))) != fp(Divides(3, var("x")))


class TestTermCoverage:
    def test_store_select_and_ite_serialize(self):
        array = sym("A")
        formula = eq(
            Select(array, var("i")),
            Ite(gt(var("j"), 0), Const(1), Select(array, var("j"))),
        )
        text = canonical_form(formula)
        assert "sel" in text and "ite" in text
        assert fp(formula) == fp(formula)

    def test_store_serializes_structurally(self):
        array = sym("A")
        one = eq(Select(Store(array, var("i"), Const(3)), var("k")), Const(0))
        other = eq(Select(Store(array, var("i"), Const(4)), var("k")), Const(0))
        assert "(st " in canonical_form(one)
        assert fp(one) != fp(other)

    def test_select_over_store_is_not_cached_under_a_binder_of_its_index(self):
        # The store's index is free in the read, so the read's canonical
        # text where the index is free and under a binder of it must differ,
        # whichever is computed (and cached) first.
        atom = eq(Select(Store(sym("A"), var("i"), Const(3)), var("k")), Const(0))
        assert "s:i" not in canonical_form(exists(sym("i"), atom))
        assert "s:i" in canonical_form(atom)
        assert "s:i" not in canonical_form(exists(sym("i"), atom))

    def test_quantified_array_symbol_does_not_collide_with_free_array(self):
        # The proof rules never quantify arrays, but the fingerprint must
        # stay sound if such a formula ever reaches the cache: binding the
        # array symbol is not the same query as reading a free array.
        bound = exists(sym("a"), lt(Const(5), Select(sym("a"), var("i"))))
        free = exists(sym("y"), lt(Const(5), Select(sym("a"), var("i"))))
        assert fp(bound) != fp(free)

    def test_bound_variable_inside_term(self):
        left = exists(sym("x"), eq(Add(var("x"), var("c")), 5))
        right = exists(sym("q"), eq(Add(var("q"), var("c")), 5))
        assert fp(left) == fp(right)

    def test_fingerprint_is_hex_sha256(self):
        digest = fp(gt(var("x"), 0))
        assert len(digest) == 64
        int(digest, 16)  # parses as hex
