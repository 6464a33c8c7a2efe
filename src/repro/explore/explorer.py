"""The relaxation-space explorer: verified autotuning over candidate programs.

The pipeline (one ``repro explore`` invocation) runs generation by
generation — depth 0 is the baseline, each later generation applies one
more site to the parents chosen by the frontier scheduler:

1. **Expand** — :mod:`repro.explore.candidates` applies every discoverable
   site to the selected parents, deduplicating by program fingerprint
   (:class:`~repro.explore.candidates.CandidateSpace`).
2. **Collect** — each candidate's obligations are collected and handed to
   the engine at once (:func:`repro.engine.collect_batch`), which with
   ``jobs > 1`` starts solving them on its worker pool while the next
   candidate is collected.
3. **Gate, incrementally** — the generation is booked as one pooled
   batch (:func:`repro.engine.finish_batch`) layered over a search-session
   verdict store (:class:`~repro.engine.incremental.VerdictStore`):
   obligations the search already settled — a child shares most of its
   parent's — are answered from the store by canonical fingerprint, and
   only the delta is discharged.  Sibling candidates still share the
   engine's in-wave dedup and the persistent cache underneath.
4. **Score** — candidates that pass the gate (and only those) are scored
   empirically by seeded Monte Carlo differential simulation
   (:mod:`repro.explore.scoring`).  Their tasks are submitted to the
   engine's worker pool (``jobs > 1``) when the generation is booked and
   joined only when a score is needed; every run's seed is explicit, so
   the scores do not depend on ``jobs``.
5. **Select** — the frontier scheduler (:mod:`repro.explore.frontier`)
   picks the next generation's parents: all of them (``--strategy
   exhaustive``) or the ``--beam-width`` most promising by score plus a
   learned site-kind reward prior (``--strategy beam``).  After the last
   generation, the Pareto frontier over (distortion, estimated savings)
   (:mod:`repro.explore.pareto`) plus a JSON/CSV report.

Only the beam needs scores to select, so it joins each generation's
scores before it expands the next.  Exhaustive selection keeps every
candidate, so the explorer expands and collects generation k+1 *before*
it books generation k — the workers solve both while the parent
collects — and joins every score after the last generation.  Either way
the frontier scheduler observes the outcomes in generation order, so its
reward table does not depend on when scores arrive.

Statically rejected candidates are *never* executed: the verdict is the
paper's acceptability guarantee, and the explorer treats it as a hard gate
rather than a soft ranking signal.  Both strategies settle each pooled
obligation exactly as the one-wave exhaustive gate did (the verdict store
replays verdicts — UNKNOWN included — just like in-wave dedup), so
obligation fingerprints and verdicts are byte-identical across strategies;
a beam wide enough to hold every generation *is* the exhaustive walk.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..analysis.metrics import ExploreRow, format_explore_table
from ..casestudies import resolve_case_study
from ..casestudies.base import CaseStudy
from ..diagnostics.report import attribute_report
from ..engine import (
    CollectedBatch,
    JoinHandle,
    ObligationEngine,
    VerdictStore,
    collect_batch,
    finish_batch,
    program_items,
)
from ..engine.batch import BatchProgramResult
from ..hoare.verifier import AcceptabilitySpec
from ..lang.ast import Program
from .candidates import Candidate, CandidateSpace
from .frontier import STRATEGIES, FrontierScheduler
from .pareto import pareto_flags
from .scoring import DEFAULT_POLICIES, CandidateScore, ScoreTask, run_score_task


@dataclass
class CandidateOutcome:
    """Everything the explorer learned about one candidate."""

    candidate: Candidate
    verified: bool = False
    error: str = ""
    obligations: int = 0
    discharged: int = 0
    score: Optional[CandidateScore] = None
    pareto: bool = False
    #: Compact failure attribution for rejected candidates: which proof
    #: rule failed, where in the candidate's source, under which model
    #: (:meth:`repro.diagnostics.FailureDiagnostic.attribution`).
    failures: List[Dict[str, object]] = field(default_factory=list)
    #: Incremental-gate accounting: how many of this candidate's pooled
    #: obligations were reused from the search session's verdict store vs
    #: discharged as fresh delta, plus the canonical fingerprint and
    #: verdict status of each obligation in pooled order.
    reused_obligations: int = 0
    delta_obligations: int = 0
    obligation_fingerprints: Tuple[str, ...] = ()
    obligation_statuses: Tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.candidate.name

    def obligations_digest(self) -> Optional[str]:
        """One hash over (fingerprint, verdict) pairs in pooled order.

        Byte-identical digests mean byte-identical obligation sets *and*
        verdicts — the parity currency the beam-vs-exhaustive guarantee is
        stated (and CI-gated) in.  ``None`` when the gate ran without a
        verdict store (fingerprints were not collected per candidate).
        """
        if not self.obligation_fingerprints:
            return None
        digest = hashlib.sha256()
        for key, status in zip(self.obligation_fingerprints, self.obligation_statuses):
            digest.update(f"{key}:{status}\n".encode("ascii"))
        return digest.hexdigest()[:16]

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.candidate.name,
            "fingerprint": self.candidate.fingerprint,
            "parent": self.candidate.parent_fingerprint,
            "depth": self.candidate.depth,
            "sites": list(self.candidate.site_ids),
            "description": self.candidate.describe(),
            "verified": self.verified,
            "obligations": self.obligations,
            "discharged": self.discharged,
            "reused_obligations": self.reused_obligations,
            "delta_obligations": self.delta_obligations,
            "obligations_digest": self.obligations_digest(),
            "pareto": self.pareto,
            "distortion": (
                self.score.distortion_mean if self.score is not None else None
            ),
            "score": self.score.as_dict() if self.score is not None else None,
        }
        if self.error:
            payload["error"] = self.error
        if self.failures:
            payload["failures"] = list(self.failures)
        return payload


@dataclass
class ExploreReport:
    """The structured outcome of one explorer invocation."""

    case_study: str
    depth: int
    samples: int
    seed: int
    jobs: int = 1
    policies: Sequence[str] = DEFAULT_POLICIES
    strategy: str = "exhaustive"
    beam_width: int = 8
    outcomes: List[CandidateOutcome] = field(default_factory=list)
    inapplicable_sites: int = 0
    capped_candidates: int = 0
    duplicate_candidates: int = 0
    #: Candidates dropped from the expansion frontier by beam truncation
    #: (always 0 for the exhaustive strategy).
    beam_pruned: int = 0
    #: True when ``search_budget_seconds`` stopped the search before the
    #: requested depth was reached.
    truncated: bool = False
    #: The search-session verdict store's counters
    #: (:meth:`repro.engine.incremental.VerdictStore.stats`).
    incremental: Dict[str, float] = field(default_factory=dict)
    #: The frontier scheduler's learned site-kind reward table.
    reward_table: Dict[str, Dict[str, float]] = field(default_factory=dict)
    enumerate_seconds: float = 0.0
    verify_seconds: float = 0.0
    #: Time spent waiting for scores: with ``jobs > 1`` the workers score
    #: while the parent gates, so this is the join wait only.
    score_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    engine_stats: Dict[str, float] = field(default_factory=dict)
    solver_stats: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def candidates(self) -> int:
        return len(self.outcomes)

    @property
    def survivors(self) -> List[CandidateOutcome]:
        return [outcome for outcome in self.outcomes if outcome.verified]

    @property
    def frontier(self) -> List[CandidateOutcome]:
        return [outcome for outcome in self.outcomes if outcome.pareto]

    @property
    def cache_hit_rate(self) -> float:
        return float(self.cache_stats.get("hit_rate", 0.0))

    @property
    def reuse_rate(self) -> float:
        """Fraction of pooled obligations answered by the session store."""
        return float(self.incremental.get("reuse_rate", 0.0))

    def as_dict(self) -> Dict[str, object]:
        return {
            "case_study": self.case_study,
            "depth": self.depth,
            "samples": self.samples,
            "seed": self.seed,
            "jobs": self.jobs,
            "policies": list(self.policies),
            "strategy": self.strategy,
            "beam_width": self.beam_width,
            "candidates": self.candidates,
            "verified_candidates": len(self.survivors),
            "pareto_candidates": [outcome.name for outcome in self.frontier],
            "inapplicable_sites": self.inapplicable_sites,
            "capped_candidates": self.capped_candidates,
            "duplicate_candidates": self.duplicate_candidates,
            "beam_pruned": self.beam_pruned,
            "truncated": self.truncated,
            "incremental": dict(self.incremental),
            "reward_table": {
                kind: dict(entry) for kind, entry in self.reward_table.items()
            },
            "timings": {
                "enumerate_seconds": self.enumerate_seconds,
                "verify_seconds": self.verify_seconds,
                "score_seconds": self.score_seconds,
                "elapsed_seconds": self.elapsed_seconds,
            },
            "engine": self.engine_stats,
            "solver": self.solver_stats,
            "cache": self.cache_stats,
            "results": [outcome.as_dict() for outcome in self.outcomes],
        }

    def to_csv(self) -> str:
        """The per-candidate table as CSV (one row per candidate)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(
            [
                "name",
                "depth",
                "sites",
                "verified",
                "pareto",
                "distortion_mean",
                "distortion_max",
                "savings",
                "steps_saved_fraction",
                "relax_freedom",
                "relate_violations",
                "error",
            ]
        )
        for outcome in self.outcomes:
            score = outcome.score
            writer.writerow(
                [
                    outcome.name,
                    outcome.candidate.depth,
                    "+".join(outcome.candidate.site_ids),
                    outcome.verified,
                    outcome.pareto,
                    f"{score.distortion_mean:.6g}" if score else "",
                    f"{score.distortion_max:.6g}" if score else "",
                    f"{score.savings:.6g}" if score else "",
                    f"{score.steps_saved_fraction:.6g}" if score else "",
                    f"{score.relax_freedom:.6g}" if score else "",
                    score.relate_violations if score else "",
                    outcome.error,
                ]
            )
        return buffer.getvalue()

    def summary(self) -> str:
        rows = []
        for outcome in self.outcomes:
            score = outcome.score
            rows.append(
                ExploreRow(
                    candidate=outcome.name,
                    depth=outcome.candidate.depth,
                    verified=outcome.verified,
                    pareto=outcome.pareto,
                    distortion=score.distortion_mean if score else None,
                    savings=score.savings if score else None,
                    error=outcome.error,
                )
            )
        lines = [format_explore_table(rows), ""]
        strategy_note = (
            f", strategy {self.strategy}"
            + (f" width {self.beam_width}" if self.strategy == "beam" else "")
        )
        lines.append(
            f"{self.case_study}: {self.candidates} candidates at depth "
            f"<= {self.depth}{strategy_note} ({len(self.survivors)} verified, "
            f"{len(self.frontier)} on the Pareto frontier)"
        )
        if self.duplicate_candidates:
            lines.append(
                f"dedup: {self.duplicate_candidates} structurally duplicate "
                "candidates folded by program fingerprint"
            )
        if self.inapplicable_sites:
            lines.append(
                f"inapplicable: {self.inapplicable_sites} site applications "
                "skipped (stale anchors after composition)"
            )
        if self.capped_candidates:
            lines.append(
                f"NOTE: candidate cap reached; {self.capped_candidates} site "
                "applications left unexplored (raise --max-candidates to try them)"
            )
        if self.beam_pruned:
            lines.append(
                f"beam: {self.beam_pruned} candidates pruned from the expansion "
                "frontier (raise --beam-width to widen the search)"
            )
        if self.truncated:
            lines.append(
                "NOTE: search budget exhausted before the requested depth "
                "was reached"
            )
        if self.incremental:
            lines.append(
                "incremental gate: "
                f"{self.incremental.get('reused', 0):.0f} of "
                f"{self.incremental.get('total_obligations', 0):.0f} obligations "
                f"reused from the search session (reuse rate {self.reuse_rate:.0%}), "
                f"{self.incremental.get('delta_obligations', 0):.0f} discharged "
                "as delta"
            )
        lines.append(
            "timings: "
            f"enumerate {self.enumerate_seconds:.3f}s, "
            f"verify {self.verify_seconds:.3f}s, "
            f"score {self.score_seconds:.3f}s, "
            f"total {self.elapsed_seconds:.3f}s"
        )
        if self.cache_stats:
            lines.append(
                "obligation cache: "
                f"{self.cache_stats.get('hits', 0):.0f} hits / "
                f"{self.cache_stats.get('misses', 0):.0f} misses "
                f"(hit rate {self.cache_hit_rate:.0%})"
            )
        return "\n".join(lines)


def explore(
    case_study: Union[str, CaseStudy],
    depth: int = 1,
    samples: int = 25,
    seed: int = 0,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    budget_seconds: Optional[float] = None,
    max_candidates: int = 48,
    policies: Sequence[str] = DEFAULT_POLICIES,
    strategy: str = "exhaustive",
    beam_width: int = 8,
    search_budget_seconds: Optional[float] = None,
) -> ExploreReport:
    """Run the full explorer pipeline for one case study.

    ``strategy`` selects the frontier scheduler: ``"exhaustive"`` expands
    every candidate of each generation (classic breadth-first), ``"beam"``
    expands only the ``beam_width`` most promising.  Both run the same
    generational, incrementally gated pipeline; ``search_budget_seconds``
    bounds the whole search's wall clock (the report is marked
    ``truncated`` when it bites).

    The search builds its own engine from ``jobs``, ``cache_dir`` and
    ``budget_seconds``; with ``jobs > 1`` its one worker pool gates and
    scores every generation and is shut down before this returns.  A
    search the budget stops reports only the generations it gated.
    """
    case = resolve_case_study(case_study)
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r} (expected one of {'/'.join(STRATEGIES)})"
        )
    start = time.perf_counter()
    engine = ObligationEngine.for_batch(
        jobs=jobs, cache_dir=cache_dir, budget_seconds=budget_seconds
    )
    store = VerdictStore()
    scheduler = FrontierScheduler(strategy=strategy, beam_width=beam_width)
    report = ExploreReport(
        case_study=case.name,
        depth=depth,
        samples=samples,
        seed=seed,
        jobs=jobs,
        policies=tuple(policies),
        strategy=strategy,
        beam_width=beam_width,
    )

    def budget_spent() -> bool:
        return (
            search_budget_seconds is not None
            and time.perf_counter() - start >= search_budget_seconds
        )

    # The root span every explorer event nests under (when no outer batch
    # span exists); the batch phases open their own "batch" children.
    explore_span = telemetry.span(
        "explore", case_study=case.name, depth=depth, jobs=jobs, strategy=strategy
    )
    with explore_span, engine:
        enumerate_start = time.perf_counter()
        base_program = case.build_program()
        space = CandidateSpace(
            base_program, case.relaxation_sites, max_candidates=max_candidates
        )
        report.enumerate_seconds += time.perf_counter() - enumerate_start

        def gather(parents: Sequence[Candidate], level: int) -> Optional[_CollectedWave]:
            """Expand and collect generation ``level`` (``None`` when empty)."""
            enumerate_start = time.perf_counter()
            with telemetry.span(
                "explore.enumerate",
                level=level,
                parents=len(parents),
                max_candidates=max_candidates,
            ):
                wave = space.expand(parents, level)
            report.enumerate_seconds += time.perf_counter() - enumerate_start
            return _collect_wave(case, wave, engine, store, report, level) if wave else None

        # Survivors whose scores are not joined yet, and the outcomes the
        # frontier scheduler has not observed yet, both in generation order.
        scoring: List[Tuple[CandidateOutcome, JoinHandle]] = []
        unobserved: List[CandidateOutcome] = []
        gated_counts: Optional[Tuple[int, int, int]] = None
        gate: Optional[_CollectedWave] = _collect_wave(
            case, [space.baseline], engine, store, report, 0
        )
        level = 0
        while gate is not None:
            ahead: Optional[_CollectedWave] = None
            before_ahead: Optional[Tuple[int, int, int]] = None
            if scheduler.expands_all and level < depth and not budget_spent():
                # Every candidate is a parent: collect the next generation
                # while the workers still solve this one.
                before_ahead = _space_counts(space)
                ahead = gather(gate.wave, level + 1)

            generation = _finish_wave(case, gate, report, level)
            unobserved.extend(generation)
            scoring.extend(
                _submit_scores(case, generation, engine, samples, seed, policies)
            )
            if not scheduler.expands_all:
                _join_scores(scoring, unobserved, scheduler, samples, report)

            if level == depth:
                break
            if budget_spent():
                report.truncated = True
                # A lookahead generation was never gated: drop its counts.
                gated_counts = before_ahead
                break
            if not scheduler.expands_all:
                parents = scheduler.select(generation)
                ahead = gather([outcome.candidate for outcome in parents], level + 1)
            gate = ahead
            level += 1
        _join_scores(scoring, unobserved, scheduler, samples, report)

        # The Pareto frontier over (distortion, savings), across the whole
        # search (scored candidates only — i.e. verified ones).
        scored = [outcome for outcome in report.outcomes if outcome.score is not None]
        flags = pareto_flags(
            [
                (outcome.score.distortion_mean, outcome.score.savings)
                for outcome in scored
            ]
        )
        for outcome, flag in zip(scored, flags):
            outcome.pareto = flag

    report.elapsed_seconds = time.perf_counter() - start
    (
        report.inapplicable_sites,
        report.capped_candidates,
        report.duplicate_candidates,
    ) = gated_counts or _space_counts(space)
    report.beam_pruned = scheduler.pruned
    report.incremental = store.stats()
    report.reward_table = scheduler.rewards.as_dict()
    report.engine_stats = engine.statistics.as_dict()
    report.solver_stats = engine.solver_statistics.as_dict()
    report.cache_stats = engine.cache.stats()
    return report


def _space_counts(space: CandidateSpace) -> Tuple[int, int, int]:
    """The space's (inapplicable, capped, duplicate) counts so far."""
    return space.inapplicable, space.capped, space.duplicates


@dataclass
class _CollectedWave:
    """One generation after its collect phase, awaiting its booking."""

    wave: Sequence[Candidate]
    spec_errors: Dict[str, str]
    batch: CollectedBatch


def _collect_wave(
    case: CaseStudy,
    wave: Sequence[Candidate],
    engine: ObligationEngine,
    store: VerdictStore,
    report: ExploreReport,
    level: int,
) -> _CollectedWave:
    """Collect one generation, prefetching each candidate's obligations."""
    verify_start = time.perf_counter()
    with telemetry.span(
        "explore.verify", candidates=len(wave), level=level, phase="collect"
    ):
        entries: List[
            Tuple[str, Optional[Program], AcceptabilitySpec, Tuple[str, ...]]
        ] = []
        spec_errors: Dict[str, str] = {}
        for candidate in wave:
            try:
                spec = case.acceptability_spec(candidate.program)
            except Exception as error:  # a spec that cannot be built is a rejection
                spec_errors[candidate.name] = f"spec construction failed: {error}"
                entries.append(
                    (candidate.name, None, AcceptabilitySpec(), candidate.site_ids)
                )
                continue
            entries.append(
                (candidate.name, candidate.program, spec, candidate.site_ids)
            )
        batch = collect_batch(program_items(entries, study=case.name), engine, store)
    report.verify_seconds += time.perf_counter() - verify_start
    return _CollectedWave(wave=wave, spec_errors=spec_errors, batch=batch)


def _finish_wave(
    case: CaseStudy,
    collected: _CollectedWave,
    report: ExploreReport,
    level: int,
) -> List[CandidateOutcome]:
    """Gate one collected generation through the incremental pooled wave."""
    wave = collected.wave
    verify_start = time.perf_counter()
    with telemetry.span(
        "explore.verify", candidates=len(wave), level=level, phase="finish"
    ):
        batch = finish_batch(collected.batch)
    report.verify_seconds += time.perf_counter() - verify_start
    telemetry.count("explore.candidates", len(wave))

    outcomes: List[CandidateOutcome] = []
    rejected: List[Tuple[CandidateOutcome, BatchProgramResult]] = []
    verdicts = {result.name: result for result in batch.programs}
    for candidate in wave:
        outcome = CandidateOutcome(candidate=candidate)
        result = verdicts.get(candidate.name)
        if candidate.name in collected.spec_errors:
            outcome.error = collected.spec_errors[candidate.name]
        elif result is None:
            outcome.error = "no batch verdict (internal error)"
        else:
            outcome.verified = result.verified
            outcome.error = result.error
            outcome.reused_obligations = result.reused_obligations
            outcome.delta_obligations = result.delta_obligations
            outcome.obligation_fingerprints = result.obligation_fingerprints
            outcome.obligation_statuses = result.obligation_statuses
            if result.report is not None:
                for layer in (result.report.original, result.report.relaxed):
                    outcome.obligations += len(layer.results)
                    outcome.discharged += sum(
                        1 for item in layer.results if item.discharged
                    )
                if not result.verified:
                    rejected.append((outcome, result))
        outcomes.append(outcome)
        report.outcomes.append(outcome)
    # Attribute each rejection from provenance and the solver's model alone:
    # which rule failed, where in the candidate's source, under which model.
    # Re-checking the model is left to `repro explain` on the row's sites.
    if rejected:
        with telemetry.span("explore.attribute", rejected=len(rejected)):
            for outcome, result in rejected:
                outcome.failures = [
                    diagnostic.attribution()
                    for diagnostic in attribute_report(
                        result.report, program=result.program
                    )
                ]
    telemetry.count(
        "explore.verified_candidates",
        sum(1 for outcome in outcomes if outcome.verified),
    )
    return outcomes


def _score_in_process(task: ScoreTask, _error: Exception) -> CandidateScore:
    """Score a survivor whose worker died (or whose task failed) here."""
    return run_score_task(task)


def _submit_scores(
    case: CaseStudy,
    outcomes: Sequence[CandidateOutcome],
    engine: ObligationEngine,
    samples: int,
    seed: int,
    policies: Sequence[str],
) -> List[Tuple[CandidateOutcome, JoinHandle]]:
    """Start scoring one generation's survivors (and only the survivors)."""
    return [
        (
            outcome,
            engine.scheduler.submit(
                run_score_task,
                ScoreTask(case, outcome.name, outcome.candidate.program, samples,
                          seed, tuple(policies)),
                on_error=_score_in_process,
            ),
        )
        for outcome in outcomes
        if outcome.verified
    ]


def _join_scores(
    scoring: List[Tuple[CandidateOutcome, JoinHandle]],
    unobserved: List[CandidateOutcome],
    scheduler: FrontierScheduler,
    samples: int,
    report: ExploreReport,
) -> None:
    """Join the submitted scores, then let ``scheduler`` observe the outcomes.

    Empties both lists.  The outcomes are observed in generation order,
    so the reward table is the same whenever the scores arrive.
    """
    score_start = time.perf_counter()
    with telemetry.span("explore.score", samples=samples):
        for outcome, handle in scoring:
            outcome.score = handle.join()
    report.score_seconds += time.perf_counter() - score_start
    for outcome in unobserved:
        scheduler.observe(outcome)
    scoring.clear()
    unobserved.clear()
