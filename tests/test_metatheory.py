"""Tests for the executable metatheory checks (Section 4)."""

import pytest

from repro.lang import builder as b
from repro.hoare.verifier import AcceptabilitySpec, verify_acceptability
from repro.metatheory import (
    check_all,
    check_original_is_relaxed_execution,
    check_original_progress,
    check_relational_assertions,
    check_relative_relaxed_progress,
    check_relaxed_progress,
    check_relaxed_progress_modulo_assumptions,
)
from repro.semantics.enumerate import EnumerationConfig
from repro.semantics.state import State


@pytest.fixture(scope="module")
def verified_program():
    """A small relaxed program verified under both proof systems."""
    program = b.program(
        "bounded-error",
        b.assume(b.ge("e", 0)),
        b.assign("y", "x"),
        b.relax("x", b.and_(b.le(b.sub("y", "e"), "x"), b.le("x", b.add("y", "e")))),
        b.relate("acc", b.within("x", b.r("e"))),
        b.assert_(b.le("x", b.add("y", "e"))),
        variables=("x", "y", "e"),
    )
    spec = AcceptabilitySpec(
        precondition=b.true,
        rel_precondition=b.and_(b.all_same("x", "e"), b.ge(b.r("e"), 0)),
    )
    report = verify_acceptability(program, spec)
    assert report.verified
    return program, report


STATES = [State.of({"x": value, "y": 0, "e": bound}) for value in (0, 3) for bound in (0, 2)]
CONFIG = EnumerationConfig(value_radius=3, max_choices_per_statement=12)
#: The wider Section 4 validation grid: more start states and more relax
#: choices per statement.
WIDE_STATES = [
    State.of({"x": value, "y": 0, "e": bound}) for value in (-2, 0, 3) for bound in (0, 1, 2)
]
WIDE_CONFIG = EnumerationConfig(value_radius=3, max_choices_per_statement=16)


class TestChecksOnVerifiedProgram:
    def test_original_progress(self, verified_program):
        program, report = verified_program
        check = check_original_progress(program, STATES, report.original.verified, CONFIG)
        assert check.holds and check.executions_checked > 0

    def test_relational_assertions(self, verified_program):
        program, report = verified_program
        check = check_relational_assertions(program, STATES, report.relaxed.verified, CONFIG)
        assert check.holds and check.executions_checked > 0

    def test_relative_relaxed_progress(self, verified_program):
        program, report = verified_program
        check = check_relative_relaxed_progress(program, STATES, report.relaxed.verified, CONFIG)
        assert check.holds

    def test_relaxed_progress_and_corollary(self, verified_program):
        program, report = verified_program
        assert check_relaxed_progress(
            program, STATES, report.original.verified, report.relaxed.verified, CONFIG
        ).holds
        assert check_relaxed_progress_modulo_assumptions(
            program, STATES, report.original.verified, report.relaxed.verified, CONFIG
        ).holds

    def test_original_subsumed_by_relaxed(self, verified_program):
        program, _report = verified_program
        assert check_original_is_relaxed_execution(program, STATES, CONFIG).holds

    def test_check_all_report(self, verified_program):
        program, report = verified_program
        for states, config in ((STATES, CONFIG), (WIDE_STATES, WIDE_CONFIG)):
            metatheory = check_all(
                program, states, report.original.verified, report.relaxed.verified, config
            )
            assert metatheory.all_hold
            assert "metatheory checks" in metatheory.summary()
            # Not vacuous: the checks really ran executions.
            exercised = [c for c in metatheory.checks if c.executions_checked > 0]
            assert len(exercised) >= 3


class TestChecksDetectViolations:
    def test_unverified_assert_can_go_wrong(self):
        # An unverifiable program really does produce wr executions; if we lie
        # and claim it was verified, the check must catch the violation.
        program = b.program(
            "broken",
            b.relax("x", b.and_(b.le(0, "x"), b.le("x", 1))),
            b.assert_(b.eq("x", 0)),
            variables=("x",),
        )
        states = [State.of({"x": 0})]
        check = check_relative_relaxed_progress(program, states, True, CONFIG)
        assert not check.holds
        assert "errs" in check.counterexample

    def test_relate_violation_detected(self):
        program = b.program(
            "broken-relate",
            b.relax("x", b.and_(b.le(0, "x"), b.le("x", 1))),
            b.relate("l", b.same("x")),
            variables=("x",),
        )
        states = [State.of({"x": 0})]
        for config in (CONFIG, WIDE_CONFIG):
            check = check_relational_assertions(program, states, True, config)
            assert not check.holds

    def test_not_applicable_when_unverified(self):
        program = b.program("p", b.assert_(b.false), variables=())
        check = check_original_progress(program, [State.of({})], False, CONFIG)
        assert check.holds and "not applicable" in check.counterexample
