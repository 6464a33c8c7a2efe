"""Empirical scoring of verified candidates: distortion versus savings.

A candidate that survives the static gate is *acceptable*; whether it is
*worth deploying* is an empirical question.  This module answers it with
seeded Monte Carlo simulation: the candidate runs differentially (original
semantics versus relaxed semantics) over the case study's workload
generator, under the nondeterminism policies of
:mod:`repro.semantics.choosers` — ``random`` samples typical substrate
behaviour, ``adversarial`` drives the relaxation to its extremes.

Two scores come out of every candidate:

``distortion``
    The case study's accuracy-loss metric
    (:meth:`~repro.casestudies.base.CaseStudy.distortion`) — mean over
    random runs, max over every run.

``savings``
    An estimated resource saving in ``[0, 1]`` combining two measured
    signals: the fraction of interpreter steps the relaxed execution
    skipped (perforation, task skipping, knob-shortened loops) and the
    nondeterministic freedom exercised at ``relax`` statements (how wide an
    envelope the substrate may use — the proxy for cheaper memory, elided
    locks).  It is a *proxy*, not a measurement of wall-clock on a real
    substrate; its purpose is to rank sibling candidates consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..casestudies.base import CaseStudy
from ..lang.analysis import gamma as build_gamma
from ..lang.ast import Program
from ..semantics.choosers import make_chooser
from ..semantics.interpreter import Interpreter, NonTerminationError, precompile_program
from ..semantics.observation import check_compatibility
from ..semantics.state import State, Terminated, is_error

#: Default nondeterminism policies a candidate is scored under.
DEFAULT_POLICIES = ("random", "adversarial")


@dataclass
class CandidateScore:
    """Aggregate empirical metrics for one candidate."""

    samples: int = 0
    errors: int = 0
    relate_violations: int = 0
    distortion_mean: float = 0.0
    distortion_max: float = 0.0
    steps_saved_fraction: float = 0.0
    relax_freedom: float = 0.0
    savings: float = 0.0
    policies: Sequence[str] = DEFAULT_POLICIES

    def as_dict(self) -> Dict[str, object]:
        return {
            "samples": self.samples,
            "errors": self.errors,
            "relate_violations": self.relate_violations,
            "distortion_mean": self.distortion_mean,
            "distortion_max": self.distortion_max,
            "steps_saved_fraction": self.steps_saved_fraction,
            "relax_freedom": self.relax_freedom,
            "savings": self.savings,
            "policies": list(self.policies),
        }


def estimated_savings(steps_saved_fraction: float, mean_relax_deviation: float) -> float:
    """Fold the two measured signals into one ``[0, 1]`` savings score.

    The freedom term saturates (``d / (1 + d)``) so wide envelopes rank
    higher without drowning out measured step savings, and is weighted at
    half a step-fraction unit: skipping real work counts more than the
    option to approximate it.
    """
    freedom = mean_relax_deviation / (1.0 + mean_relax_deviation)
    return max(0.0, min(1.0, steps_saved_fraction + 0.5 * freedom))


def score_candidate(
    case_study: CaseStudy,
    program: Program,
    samples: int = 25,
    seed: int = 0,
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> CandidateScore:
    """Differentially simulate ``program`` and aggregate its scores.

    Runs every workload under every policy with per-run derived seeds, so
    the whole score is reproducible from ``(samples, seed, policies)``.
    Runs where either execution errs (or exceeds fuel) count as ``errors``
    and contribute no distortion; ``relate_violations`` counts dynamic
    observational-compatibility failures — for a statically verified
    candidate this must stay 0, so a nonzero value is a red flag worth
    surfacing in the report.
    """
    score = CandidateScore(policies=tuple(policies))
    # Compile the candidate's expressions once, up front: every sample of
    # every policy then runs on cached closures (the caches are keyed on the
    # AST nodes, which all runs of this program share).
    precompile_program(program)
    gamma = build_gamma(program)
    typical_distortions: List[float] = []  # non-adversarial policies only
    all_distortions: List[float] = []
    step_fractions: List[float] = []
    deviations: List[float] = []

    workloads = case_study.workloads(samples, seed=seed)
    for index, initial in enumerate(workloads):
        original_interp = Interpreter(relaxed=False)
        try:
            original = original_interp.run(program, initial)
            original_failed = is_error(original)
        except NonTerminationError:
            original_failed = True
        if original_failed:
            # The pair carries no information; skip the relaxed runs too.
            score.samples += len(policies)
            score.errors += len(policies)
            continue
        original_steps = original_interp.steps_executed
        for policy_index, policy in enumerate(policies):
            score.samples += 1
            telemetry.count("explore.samples")
            chooser = make_chooser(policy, seed=seed + index * len(policies) + policy_index)
            relaxed_interp = Interpreter(relaxed=True, chooser=chooser)
            try:
                relaxed = relaxed_interp.run(program, initial)
            except NonTerminationError:
                score.errors += 1
                continue
            if is_error(relaxed):
                score.errors += 1
                continue
            assert isinstance(original, Terminated) and isinstance(relaxed, Terminated)
            if not check_compatibility(
                gamma, original.observations, relaxed.observations
            ):
                score.relate_violations += 1
                telemetry.count("explore.relate_violations")
            distortion = case_study.distortion(initial, original, relaxed)
            if distortion is not None:
                all_distortions.append(distortion)
                if policy != "adversarial":
                    typical_distortions.append(distortion)
            if original_steps > 0:
                step_fractions.append(
                    max(0.0, 1.0 - relaxed_interp.steps_executed / original_steps)
                )
            deviations.append(float(relaxed_interp.relax_deviation))

    if all_distortions:
        # The mean characterises typical substrate behaviour, so it averages
        # the non-adversarial runs (falling back to everything when only
        # adversarial policies were requested); the max covers every run.
        mean_basis = typical_distortions or all_distortions
        score.distortion_mean = float(sum(mean_basis)) / len(mean_basis)
        score.distortion_max = float(max(all_distortions))
    if step_fractions:
        score.steps_saved_fraction = float(sum(step_fractions)) / len(step_fractions)
    if deviations:
        score.relax_freedom = float(sum(deviations)) / len(deviations)
    score.savings = estimated_savings(score.steps_saved_fraction, score.relax_freedom)
    return score


@dataclass(frozen=True)
class ScoreTask:
    """One survivor to score; pickles, so it can be scored in a worker."""

    case_study: CaseStudy
    name: str
    program: Program
    samples: int
    seed: int
    policies: Sequence[str]


def run_score_task(task: ScoreTask) -> CandidateScore:
    """Score one task under its own ``score`` span.

    The seeds are explicit, so the score is the same in every process.
    """
    with telemetry.span("score", candidate=task.name):
        return score_candidate(
            task.case_study,
            task.program,
            samples=task.samples,
            seed=task.seed,
            policies=task.policies,
        )
