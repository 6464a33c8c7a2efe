"""Executable statements of the paper's metatheory (Section 4).

The original artifact proves Lemmas 1–5, Theorems 6–8 and Corollary 9 in
Coq.  Without a proof assistant we cannot mechanise the induction proofs,
but every statement is a universally quantified property over executions,
so it can be *checked* on concrete programs by bounded exhaustive
differential execution: enumerate the (box-bounded) executions of the
original and relaxed semantics and test the property on every pair.  The
executions come from :func:`~repro.semantics.enumerate.enumerate_executions`,
which runs the compiled interpreter down every path of the choice tree, so
the checks test the same statement closures that scoring and simulation
run.  An enumeration over budget raises ``EnumerationBudgetError``.

A check that passes is evidence (not proof); a check that fails is a real
counterexample — which is exactly what the test suite uses these functions
for (they must never fail on programs the proof systems verified).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..lang.analysis import gamma as build_gamma
from ..lang.ast import Program, Stmt
from ..semantics.enumerate import EnumerationConfig, enumerate_executions
from ..semantics.observation import check_compatibility
from ..semantics.state import (
    Outcome,
    State,
    Terminated,
    is_bad_assume,
    is_error,
    is_wrong,
)


@dataclass
class PropertyCheck:
    """The result of checking one metatheory property on one program."""

    name: str
    holds: bool
    executions_checked: int
    counterexample: str = ""

    def __bool__(self) -> bool:
        return self.holds


@dataclass
class MetatheoryReport:
    """Results of checking every property over a set of initial states."""

    program_name: str
    checks: List[PropertyCheck] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    def summary(self) -> str:
        lines = [f"metatheory checks for {self.program_name}:"]
        for check in self.checks:
            verdict = "holds" if check.holds else f"FAILS ({check.counterexample})"
            lines.append(
                f"  {check.name}: {verdict} [{check.executions_checked} executions]"
            )
        return "\n".join(lines)


def _outcomes(
    program: Union[Program, Stmt],
    state: State,
    relaxed: bool,
    config: Optional[EnumerationConfig],
) -> List[Outcome]:
    return enumerate_executions(program, state, relaxed=relaxed, config=config)


def check_original_progress(
    program: Program,
    initial_states: Sequence[State],
    original_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """Lemma 2 (Original Progress Modulo Assumptions).

    If the program verifies under ⊢o, then no original execution evaluates
    to ``wr`` (it may still evaluate to ``ba``).
    """
    checked = 0
    if not original_verified:
        return PropertyCheck("original-progress-modulo-assumptions", True, 0,
                             "not applicable: program not verified under the original semantics")
    for state in initial_states:
        for outcome in _outcomes(program, state, relaxed=False, config=config):
            checked += 1
            if is_wrong(outcome):
                return PropertyCheck(
                    "original-progress-modulo-assumptions",
                    False,
                    checked,
                    f"original execution from {state} evaluated to wr: {outcome}",
                )
    return PropertyCheck("original-progress-modulo-assumptions", True, checked)


def check_relational_assertions(
    program: Program,
    initial_states: Sequence[State],
    relaxed_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """Theorem 6 (Soundness of Relational Assertions).

    If the program verifies under ⊢r, then for every pair of successfully
    terminating original/relaxed executions from related initial states the
    observation lists are observationally compatible (``Γ ⊢ ψ1 ∼ ψ2``).
    """
    if not relaxed_verified:
        return PropertyCheck("soundness-of-relational-assertions", True, 0,
                             "not applicable: program not verified under the relaxed semantics")
    gamma = build_gamma(program)
    checked = 0
    for state in initial_states:
        original_outcomes = _outcomes(program, state, relaxed=False, config=config)
        relaxed_outcomes = _outcomes(program, state, relaxed=True, config=config)
        for original in original_outcomes:
            if not isinstance(original, Terminated):
                continue
            for relaxed in relaxed_outcomes:
                if not isinstance(relaxed, Terminated):
                    continue
                checked += 1
                result = check_compatibility(
                    gamma, original.observations, relaxed.observations
                )
                if not result:
                    return PropertyCheck(
                        "soundness-of-relational-assertions",
                        False,
                        checked,
                        f"from {state}: {result.reason}",
                    )
    return PropertyCheck("soundness-of-relational-assertions", True, checked)


def check_relative_relaxed_progress(
    program: Program,
    initial_states: Sequence[State],
    relaxed_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """Theorem 7 (Relative Relaxed Progress).

    If the program verifies under ⊢r and no original execution from a given
    initial state errs, then no relaxed execution from that state errs.
    """
    if not relaxed_verified:
        return PropertyCheck("relative-relaxed-progress", True, 0,
                             "not applicable: program not verified under the relaxed semantics")
    checked = 0
    for state in initial_states:
        original_outcomes = _outcomes(program, state, relaxed=False, config=config)
        if any(is_error(outcome) for outcome in original_outcomes):
            continue  # the theorem's hypothesis fails for this state
        for outcome in _outcomes(program, state, relaxed=True, config=config):
            checked += 1
            if is_error(outcome):
                return PropertyCheck(
                    "relative-relaxed-progress",
                    False,
                    checked,
                    f"relaxed execution from {state} errs ({outcome}) although no "
                    "original execution errs",
                )
    return PropertyCheck("relative-relaxed-progress", True, checked)


def check_relaxed_progress(
    program: Program,
    initial_states: Sequence[State],
    original_verified: bool,
    relaxed_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """Theorem 8 (Relaxed Progress).

    With both proofs, if no original execution from a state violates an
    assumption, then no relaxed execution from that state errs at all.
    """
    if not (original_verified and relaxed_verified):
        return PropertyCheck("relaxed-progress", True, 0,
                             "not applicable: program not verified under both semantics")
    checked = 0
    for state in initial_states:
        original_outcomes = _outcomes(program, state, relaxed=False, config=config)
        if any(is_bad_assume(outcome) for outcome in original_outcomes):
            continue
        for outcome in _outcomes(program, state, relaxed=True, config=config):
            checked += 1
            if is_error(outcome):
                return PropertyCheck(
                    "relaxed-progress",
                    False,
                    checked,
                    f"relaxed execution from {state} errs ({outcome}) although "
                    "original executions violate no assumption",
                )
    return PropertyCheck("relaxed-progress", True, checked)


def check_relaxed_progress_modulo_assumptions(
    program: Program,
    initial_states: Sequence[State],
    original_verified: bool,
    relaxed_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """Corollary 9 (Relaxed Progress Modulo Original Assumptions).

    With both proofs, an error in a relaxed execution implies some original
    execution from the same initial state violates an assumption.
    """
    if not (original_verified and relaxed_verified):
        return PropertyCheck("relaxed-progress-modulo-original-assumptions", True, 0,
                             "not applicable: program not verified under both semantics")
    checked = 0
    for state in initial_states:
        relaxed_outcomes = _outcomes(program, state, relaxed=True, config=config)
        erring = [outcome for outcome in relaxed_outcomes if is_error(outcome)]
        if not erring:
            continue
        checked += len(erring)
        original_outcomes = _outcomes(program, state, relaxed=False, config=config)
        if not any(is_bad_assume(outcome) for outcome in original_outcomes):
            return PropertyCheck(
                "relaxed-progress-modulo-original-assumptions",
                False,
                checked,
                f"relaxed executions from {state} err but no original execution "
                "violates an assumption",
            )
    return PropertyCheck("relaxed-progress-modulo-original-assumptions", True, checked)


def check_original_is_relaxed_execution(
    program: Program,
    initial_states: Sequence[State],
    config: Optional[EnumerationConfig] = None,
) -> PropertyCheck:
    """The relaxed semantics subsumes the original semantics.

    Every successfully terminating original execution's final state is also
    reachable by some relaxed execution (the paper's requirement that the
    original execution be one of the relaxed executions).
    """
    checked = 0
    for state in initial_states:
        relaxed_states = {
            outcome.state
            for outcome in _outcomes(program, state, relaxed=True, config=config)
            if isinstance(outcome, Terminated)
        }
        for outcome in _outcomes(program, state, relaxed=False, config=config):
            if not isinstance(outcome, Terminated):
                continue
            checked += 1
            if outcome.state not in relaxed_states:
                return PropertyCheck(
                    "original-subsumed-by-relaxed",
                    False,
                    checked,
                    f"original final state {outcome.state} unreachable in the "
                    f"relaxed semantics from {state}",
                )
    return PropertyCheck("original-subsumed-by-relaxed", True, checked)


def check_all(
    program: Program,
    initial_states: Sequence[State],
    original_verified: bool,
    relaxed_verified: bool,
    config: Optional[EnumerationConfig] = None,
) -> MetatheoryReport:
    """Run every metatheory check and collect the results."""
    report = MetatheoryReport(program_name=program.name)
    report.checks.append(
        check_original_progress(program, initial_states, original_verified, config)
    )
    report.checks.append(
        check_relational_assertions(program, initial_states, relaxed_verified, config)
    )
    report.checks.append(
        check_relative_relaxed_progress(program, initial_states, relaxed_verified, config)
    )
    report.checks.append(
        check_relaxed_progress(
            program, initial_states, original_verified, relaxed_verified, config
        )
    )
    report.checks.append(
        check_relaxed_progress_modulo_assumptions(
            program, initial_states, original_verified, relaxed_verified, config
        )
    )
    report.checks.append(
        check_original_is_relaxed_execution(program, initial_states, config)
    )
    return report
