"""Tests for the relational proof system ⊢r (Figure 8)."""

from pathlib import Path

import pytest

from repro.lang import builder as b
from repro.lang.ast import While
from repro.lang.parser import parse_program
from repro.hoare.relational import RelationalProver, prove_relaxed
from repro.hoare.verifier import AcceptabilitySpec, AcceptabilityVerifier
from repro.engine import ObligationEngine
from repro.hoare.obligations import ObligationKind
from repro.logic.formula import TRUE
from repro.solver.interface import Solver, SolverResult
from repro.solver.lia import Status


SPECS = Path(__file__).parent / "fixtures" / "specs"


def _prove_source(source):
    """The ⊢r report of a source program against the spec it states."""
    program = parse_program(source)
    return AcceptabilityVerifier().verify(program, AcceptabilitySpec.of(program)).relaxed


class TestLockstepRules:
    def test_skip_and_assign(self):
        program = b.block(b.assign("y", b.add("x", 1)), b.skip)
        report = prove_relaxed(program, b.same("x"), b.same("y"))
        assert report.verified

    def test_relate_requires_relation(self):
        program = b.relate("l", b.same("x"))
        assert prove_relaxed(program, b.same("x"), TRUE).verified
        assert not prove_relaxed(program, b.rle(b.o("x"), b.r("x")), TRUE).verified

    def test_relax_constrains_only_relaxed_side(self):
        program = b.block(
            b.relax("x", b.and_(b.ge("x", 0), b.le("x", 2))),
            b.relate("l", b.rand(b.rge(b.r("x"), 0), b.rle(b.r("x"), 2), b.req(b.o("x"), 1))),
        )
        report = prove_relaxed(program, b.rand(b.same("x"), b.req(b.o("x"), 1)), TRUE)
        assert report.verified

    def test_relax_emits_satisfiability_obligation(self):
        program = b.relax("x", b.ge("x", 0))
        report = prove_relaxed(program, b.same("x"), TRUE)
        kinds = {result.obligation.kind for result in report.results}
        assert ObligationKind.SATISFIABILITY in kinds
        assert report.verified

    def test_unsatisfiable_relax_fails(self):
        program = b.relax("x", b.false)
        report = prove_relaxed(program, b.same("x"), TRUE)
        assert not report.verified

    def test_assert_transferred_by_noninterference(self):
        program = b.block(b.assert_(b.ge("x", 0)), b.relate("l", b.same("x")))
        assert prove_relaxed(program, b.same("x"), TRUE).verified

    def test_assert_not_transferred_without_relation(self):
        program = b.assert_(b.ge("x", 0))
        report = prove_relaxed(program, b.rbl(True), TRUE)
        assert not report.verified

    def test_assume_transfer_mirrors_assert(self):
        program = b.assume(b.lt("k", "n"))
        assert prove_relaxed(program, b.all_same("k", "n"), TRUE).verified
        assert not prove_relaxed(program, b.same("k"), TRUE).verified

    def test_havoc_lockstep_breaks_equality(self):
        program = b.block(b.havoc("x", b.and_(b.ge("x", 0), b.le("x", 1))))
        # After an independent havoc on both sides, x<o> == x<r> is NOT provable.
        report = prove_relaxed(program, b.same("x"), b.same("x"))
        assert not report.verified
        # ... but the havoc predicate holds on both sides.
        report_ok = prove_relaxed(
            program, b.same("x"), b.rand(b.rge(b.r("x"), 0), b.rge(b.o("x"), 0))
        )
        assert report_ok.verified


class TestControlFlow:
    def test_convergent_if(self):
        program = b.if_(b.ge("x", 0), b.assign("y", "x"), b.assign("y", b.sub(0, "x")))
        report = prove_relaxed(program, b.same("x"), b.same("y"))
        assert report.verified
        assert "if-convergent" in report.rule_applications

    def test_divergent_if_uses_diverge_rule(self):
        # The branch depends on a relaxed variable, so control flow diverges;
        # the postcondition about the unmodified variable still holds (frame).
        program = b.block(
            b.relax("x", b.and_(b.ge("x", 0), b.le("x", 1))),
            b.if_(b.gt("x", 0), b.assign("y", 1), b.assign("y", 2)),
        )
        report = prove_relaxed(program, b.all_same("x", "z"), b.same("z"))
        assert report.verified
        assert "diverge" in report.rule_applications

    def test_divergent_if_loses_modified_relation_without_spec(self):
        program = b.block(
            b.relax("x", b.and_(b.ge("x", 0), b.le("x", 1))),
            b.if_(b.gt("x", 0), b.assign("y", 1), b.assign("y", 2)),
        )
        report = prove_relaxed(program, b.all_same("x", "y"), b.same("y"))
        assert not report.verified

    def test_divergence_spec_restores_postcondition(self):
        annotated = (SPECS / "diverge_annotated.rlx").read_text()
        report = _prove_source(annotated)
        assert report.verified
        assert "diverge" in report.rule_applications
        unannotated = (SPECS / "diverge_unannotated.rlx").read_text()
        assert parse_program(unannotated).body == parse_program(
            annotated.replace(" diverge (y == 1) (y == 1)", "")
        ).body
        assert not _prove_source(unannotated).verified

    def test_diverge_annotation_is_ignored_by_convergent_rules(self):
        # y is equal on both sides, so the branch converges and its
        # annotation (which would lose every fact about x) plays no part.
        report = _prove_source(
            "vars x, y; rel_ensures (x<o> == x<r>);"
            "if (y > 0) diverge (true) (true) { x = 1; } else { x = 2; }"
        )
        assert report.verified
        assert "diverge" not in report.rule_applications

    def test_diverge_rule_rejects_relate_inside(self):
        program = b.block(
            b.relax("x", b.and_(b.ge("x", 0), b.le("x", 1))),
            b.if_(b.gt("x", 0), b.relate("inside", b.same("y")), b.skip),
        )
        report = prove_relaxed(program, b.all_same("x", "y"), TRUE)
        assert not report.verified
        assert any("no_rel" in error for error in report.errors)

    def test_convergent_while_with_relational_invariant(self):
        loop = While(
            condition=b.lt("i", "n"),
            body=b.assign("i", b.add("i", 1)),
            invariant=b.le("i", "n"),
            rel_invariant=b.all_same("i", "n"),
        )
        report = prove_relaxed(loop, b.all_same("i", "n"), b.same("i"))
        assert report.verified
        assert "while-convergent" in report.rule_applications

    def test_while_without_rel_invariant_diverges(self):
        loop = While(
            condition=b.lt("i", "n"),
            body=b.assign("i", b.add("i", 1)),
            invariant=b.true,
        )
        report = prove_relaxed(loop, b.all_same("i", "n"), TRUE)
        assert report.verified
        assert "diverge" in report.rule_applications

    def test_bad_relational_invariant_rejected(self):
        # The invariant converges (i and n stay equal) but its d<o> == 0 part is
        # destroyed by the body, so invariant preservation must fail.
        loop = While(
            condition=b.lt("i", "n"),
            body=b.block(b.assign("i", b.add("i", 1)), b.assign("d", b.add("d", 1))),
            invariant=b.true,
            rel_invariant=b.rand(b.all_same("i", "n"), b.req(b.o("d"), 0)),
        )
        precondition = b.rand(b.all_same("i", "n", "d"), b.req(b.o("d"), 0))
        report = prove_relaxed(loop, precondition, TRUE)
        assert not report.verified
        failing = {result.obligation.rule for result in report.undischarged()}
        assert "while-preserve" in failing


def _raise(self, formula):
    raise RecursionError("maximum recursion depth exceeded")


def _unknown(self, formula):
    return SolverResult(Status.UNKNOWN, reason="budget")


class TestConvergencePremises:
    """Premises are decided through the engine; anything short of VALID
    means the sound diverge rule."""

    BRANCH = b.if_(b.ge("x", 0), b.assign("y", 1), b.assign("y", 2))

    def _collect(self, engine):
        prover = RelationalProver(engine=engine)
        collector, _ = prover.collect(self.BRANCH, b.all_same("x", "y"), b.same("y"))
        return collector

    def test_valid_premise_is_cached_and_converges(self):
        engine = ObligationEngine()
        assert "if-convergent" in self._collect(engine).rule_applications
        assert "if-convergent" in self._collect(engine).rule_applications
        stats = engine.statistics
        assert (stats.premise_solver_calls, stats.premise_cache_hits) == (1, 1)
        # Premises never move the obligation counters.
        assert (stats.obligations, stats.solver_calls, stats.cache_misses) == (0, 0, 0)
        assert engine.cache.stats()["misses"] == 0

    @pytest.mark.parametrize("check_valid", [_raise, _unknown], ids=["raises", "unknown"])
    def test_inconclusive_premise_takes_the_diverge_rule(self, monkeypatch, check_valid):
        monkeypatch.setattr(Solver, "check_valid", check_valid)
        engine = ObligationEngine()
        collector = self._collect(engine)
        assert "diverge" in collector.rule_applications
        assert "if-convergent" not in collector.rule_applications
        assert not collector.errors
        assert engine.statistics.premise_solver_calls == 1
        assert len(engine.cache) == 0  # an inconclusive premise is never cached


class TestSharedArrays:
    READ = """
    vars v, i;
    arrays A;
    shared A;
    rel_requires (i<o> == i<r>);
    v = A[i];
    relate l: (v<o> == v<r>);
    """

    def test_shared_array_read_gives_noninterference(self):
        assert _prove_source(self.READ).verified

    def test_unshared_array_read_does_not(self):
        unshared = self.READ.replace("shared A;", "")
        assert unshared != self.READ
        assert not _prove_source(unshared).verified

    def test_array_relax_forgets_relational_facts(self):
        report = _prove_source(
            "arrays RS; rel_requires (RS<o>[0] == RS<r>[0]);"
            "relax (RS) st (true); relate l: (RS<o>[0] == RS<r>[0]);"
        )
        assert not report.verified
