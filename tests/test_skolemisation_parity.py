"""One-pass skolemisation returns the node the sequential version built.

Every call the solver makes to
:func:`~repro.solver.normalize.strip_positive_existentials` during a cold
studies batch and a batch of the first three corpus programs is checked
against :func:`reference_skolemisation.sequential_strip` on the same
input: the two must return the identical interned node, so the fresh
names, their order and the formula's shape are all unchanged.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference_skolemisation import sequential_strip
from repro.engine import case_study_items, program_items, verify_batch
from repro.fuzz.generator import synthesize_corpus
from repro.hoare.verifier import AcceptabilitySpec
from repro.logic import formula as F
from repro.logic.formula import Exists, Forall, Symbol, SymTerm, Tag, exists, forall, sym, var
from repro.solver import interface
from repro.solver.normalize import strip_positive_existentials, to_nnf


def _corpus_items():
    programs = synthesize_corpus(0, 3)
    return program_items(
        [(item.name, item.program, AcceptabilitySpec.of(item.program)) for item in programs],
        study="fuzz",
    )


RUNS = {
    "studies": lambda: case_study_items(None),
    "corpus": _corpus_items,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_one_pass_matches_sequential(monkeypatch, run):
    calls = []

    def checked(formula):
        result = strip_positive_existentials(formula)
        calls.append((formula, result, sequential_strip(formula)))
        return result

    monkeypatch.setattr(interface, "strip_positive_existentials", checked)
    verify_batch(RUNS[run]())
    assert any(formula is not result for formula, result, _ in calls)
    mismatched = [formula for formula, result, expected in calls if result is not expected]
    assert not mismatched, f"{len(mismatched)} of {len(calls)} inputs differ"


@pytest.mark.parametrize(
    "formula",
    [
        # nested and shadowing binders, a binder shared by two disjuncts
        exists(sym("x"), exists(sym("y"), F.conj(
            F.lt(var("x"), var("y")),
            exists(sym("x"), F.gt(var("x"), var("y") + var("z"))),
        ))),
        F.disj(
            exists(sym("k"), F.eq(var("n"), var("k") * F.Const(2))),
            exists(sym("k"), F.eq(var("n"), var("k") * F.Const(2) + 1)),
        ),
        # a universal keeps its body; the outer renaming reaches into it
        exists(sym("x"), forall(sym("y"), exists(sym("w"), F.le(var("x"), var("y") + var("w"))))),
        # x's constant is x_f1, the name of a binder below that mentions x:
        # substituting renames that binder, and its constant follows suit
        exists(sym("x"), exists(sym("x_f1"), F.lt(var("x"), var("x_f1")))),
        exists(sym("x"), F.conj(
            forall(sym("x_f1"), F.lt(var("x"), var("x_f1"))),
            exists(sym("y"), exists(sym("x_f1"), F.le(var("x") + var("y"), var("x_f1")))),
        )),
        # a renamed binder over a universal of the same name, which keeps
        # the constant of y apart from the renamed binder's
        exists(sym("y"), exists(sym("y_f1"), forall(
            sym("y_f1"), F.le(var("y") + var("x_f1"), -2),
        ))),
        # the captured binder shadows an outer one of its name
        exists(sym("y_f2"), exists(sym("y"), exists(sym("y_f2"), F.le(var("y_f2") + var("y"), 0)))),
    ],
)
def test_one_pass_matches_sequential_on_binder_shapes(formula):
    nnf = to_nnf(formula)
    assert strip_positive_existentials(nnf) is sequential_strip(nnf)


#: Binder and free names that collide with the fresh names the walk draws.
_NAMES = ["x", "y", "x_f1", "y_f1", "y_f2", "x_f1_f1", "y_f1_f1"]


def _nnf_quantified():
    symbols = st.builds(Symbol, st.sampled_from(_NAMES), st.sampled_from([None, Tag.ORIGINAL]))
    atoms = st.builds(
        lambda a, b, c: F.le(SymTerm(a) + SymTerm(b), F.Const(c)),
        symbols, symbols, st.integers(-2, 2),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda fs: F.conj(*fs), st.lists(children, min_size=2, max_size=3)),
            st.builds(lambda fs: F.disj(*fs), st.lists(children, min_size=2, max_size=3)),
            st.builds(Exists, symbols, children),
            st.builds(Forall, symbols, children),
        )

    return st.recursive(atoms, extend, max_leaves=16)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_nnf_quantified())
def test_one_pass_matches_sequential_on_colliding_names(formula):
    assert strip_positive_existentials(formula) is sequential_strip(formula)
