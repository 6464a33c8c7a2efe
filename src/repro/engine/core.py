"""The obligation engine: cached, parallel, portfolio-scheduled discharge.

:class:`ObligationEngine` sits between the Hoare layer (which *collects*
proof obligations) and the solver stack (which *decides* individual
queries).  For every batch of obligations it:

1. computes each obligation's canonical fingerprint
   (:mod:`repro.engine.fingerprint`);
2. answers fingerprint hits from the result cache
   (:mod:`repro.engine.cache`) without touching a solver;
3. discharges the remaining obligations either serially on a caller-provided
   :class:`~repro.solver.interface.Solver` (the seed-compatible path) or via
   the strategy portfolio (:mod:`repro.engine.portfolio`) on the parallel
   scheduler (:mod:`repro.engine.scheduler`);
4. stores conclusive verdicts back into the cache and credits the winning
   strategy so future obligations try it first.

The engine constructed by :func:`default_engine` — one solver, one job, no
cache, no portfolio — reproduces the seed's serial discharge loop exactly
(including its solver-statistics accounting), which is what the thin
:func:`repro.hoare.obligations.discharge` wrapper uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..hoare.obligations import (
    ObligationCollector,
    ObligationKind,
    ObligationResult,
    ProofObligation,
    VerificationReport,
)
from ..solver.interface import Solver, SolverResult, SolverStatistics
from ..solver.lia import Status
from .cache import ObligationCache
from .fingerprint import fingerprint
from .portfolio import Portfolio, is_conclusive
from .scheduler import DischargeScheduler, DischargeTask


@dataclass
class EngineStatistics:
    """Aggregate statistics over the lifetime of an engine instance."""

    obligations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0  # in-wave duplicates answered by a representative
    #: Obligations answered by a search-session verdict store before they
    #: reached the engine (the incremental gate; see engine/incremental.py),
    #: and the complement that was actually discharged as delta.  Both stay
    #: zero outside incremental searches; ``obligations`` above counts only
    #: what entered ``discharge_all``, i.e. the delta.
    incremental_reused: int = 0
    delta_obligations: int = 0
    solver_calls: int = 0
    strategy_attempts: int = 0
    parallel_batches: int = 0
    unknown_results: int = 0
    total_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "obligations": float(self.obligations),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "dedup_hits": float(self.dedup_hits),
            "incremental_reused": float(self.incremental_reused),
            "delta_obligations": float(self.delta_obligations),
            "solver_calls": float(self.solver_calls),
            "strategy_attempts": float(self.strategy_attempts),
            "parallel_batches": float(self.parallel_batches),
            "unknown_results": float(self.unknown_results),
            "total_seconds": self.total_seconds,
        }


class ObligationEngine:
    """Discharges proof obligations through cache, portfolio and scheduler.

    Parameters
    ----------
    solver:
        The solver used by the plain serial path (no portfolio, one job).
        Shared with the Hoare layer so its statistics keep accumulating
        exactly as in the seed.  Ignored when a portfolio is in play.
    jobs:
        Worker processes for parallel discharge.  ``jobs > 1`` implies the
        portfolio path (worker processes build their own solvers).
    cache / cache_dir:
        A result cache instance, or a directory to create a persistent one
        in.  ``None`` disables caching.
    portfolio:
        The strategy portfolio; created on demand when ``jobs > 1``.
    budget_seconds:
        Per-obligation wall-clock budget across portfolio strategies
        (implies the portfolio path, like ``jobs > 1``).
    """

    def __init__(
        self,
        solver: Optional[Solver] = None,
        jobs: int = 1,
        cache: Optional[ObligationCache] = None,
        cache_dir: Optional[str] = None,
        portfolio: Optional[Portfolio] = None,
        budget_seconds: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if cache is None and cache_dir is not None:
            cache = ObligationCache(cache_dir=cache_dir)
        # Parallelism and per-obligation budgets are portfolio-path features:
        # create the default portfolio rather than silently ignoring them.
        if portfolio is None and (jobs > 1 or budget_seconds is not None):
            portfolio = Portfolio()
        self.solver = solver
        self.jobs = jobs
        self.cache = cache
        self.portfolio = portfolio
        self.budget_seconds = budget_seconds
        self.statistics = EngineStatistics()
        #: Solver-level counters aggregated across every discharge this
        #: engine performed: the portfolio path merges worker statistics
        #: shipped back with each outcome, the serial path merges the shared
        #: solver's delta per wave (so queries the caller makes on that
        #: solver outside the engine are not attributed to it).
        self.solver_statistics = SolverStatistics()
        self._scheduler = DischargeScheduler(jobs=jobs)

    @classmethod
    def for_batch(
        cls,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        budget_seconds: Optional[float] = None,
    ) -> "ObligationEngine":
        """An engine configured for batch verification: cache + portfolio.

        When ``cache_dir`` is given, both the obligation cache and the
        portfolio win table persist across invocations.
        """
        portfolio = Portfolio()
        if cache_dir is not None:
            portfolio.load(cache_dir)
        return cls(
            jobs=jobs,
            cache=ObligationCache(cache_dir=cache_dir),
            portfolio=portfolio,
            budget_seconds=budget_seconds,
        )

    # -- discharge ---------------------------------------------------------------

    def discharge_all(
        self, obligations: Sequence[ProofObligation]
    ) -> List[ObligationResult]:
        """Discharge every obligation, in order, through cache and solvers."""
        start = time.perf_counter()
        results: List[Optional[ObligationResult]] = [None] * len(obligations)
        pending: List[int] = []
        keys: List[Optional[str]] = [None] * len(obligations)
        # Duplicate obligations inside one wave (e.g. the same entailment
        # arising in several programs of a batch) are solved once: later
        # occurrences wait for the representative's verdict.  Dedup applies
        # whenever fingerprints are computed — with a cache or on the
        # portfolio path; the plain serial path stays seed-identical (one
        # solver call per obligation, duplicates included).
        fingerprinting = self.cache is not None or self.portfolio is not None
        pending_by_key: Dict[str, int] = {}
        duplicates: Dict[int, List[int]] = {}
        self.statistics.obligations += len(obligations)

        wave_span = telemetry.span("discharge.wave", obligations=len(obligations))
        with wave_span:
            with telemetry.span("fingerprint", obligations=len(obligations)):
                for index, obligation in enumerate(obligations):
                    if fingerprinting:
                        key = fingerprint(obligation.formula, obligation.kind.value)
                        keys[index] = key
                        representative = pending_by_key.get(key)
                        if representative is not None:
                            duplicates.setdefault(representative, []).append(index)
                            continue
                        if self.cache is not None:
                            verdict = self.cache.get(key)
                            if verdict is not None:
                                self.statistics.cache_hits += 1
                                telemetry.count("engine.cache.hits." + verdict.origin)
                                results[index] = ObligationResult(
                                    obligation=obligation,
                                    status=verdict.status,
                                    counterexample=(
                                        dict(verdict.model)
                                        if verdict.model is not None
                                        else None
                                    ),
                                    elapsed_seconds=0.0,
                                    reason=verdict.reason,
                                )
                                continue
                            self.statistics.cache_misses += 1
                            telemetry.count("engine.cache.misses")
                        pending_by_key[key] = index
                    pending.append(index)

            if pending:
                with telemetry.span(
                    "dispatch", pending=len(pending), jobs=self.jobs
                ) as dispatch_span:
                    if self.portfolio is not None:
                        dispatch_span.set_attribute("path", "portfolio")
                        self._discharge_portfolio(obligations, pending, keys, results)
                    else:
                        dispatch_span.set_attribute("path", "serial")
                        self._discharge_serial(obligations, pending, keys, results)

        for representative, followers in duplicates.items():
            settled = results[representative]
            assert settled is not None
            for index in followers:
                self.statistics.dedup_hits += 1
                telemetry.count("engine.dedup.hits")
                results[index] = ObligationResult(
                    obligation=obligations[index],
                    status=settled.status,
                    counterexample=(
                        dict(settled.counterexample)
                        if settled.counterexample is not None
                        else None
                    ),
                    elapsed_seconds=0.0,
                    reason=settled.reason,
                )

        if self.cache is not None:
            self.cache.save()
        self.statistics.total_seconds += time.perf_counter() - start
        # Exactly one result per obligation, in input order — the batch
        # layer's offset-based scatter depends on it, so fail loudly rather
        # than silently shifting verdicts between programs.
        settled_results = [result for result in results if result is not None]
        if len(settled_results) != len(obligations):
            raise RuntimeError(
                f"discharge_all settled {len(settled_results)} of "
                f"{len(obligations)} obligations"
            )
        return settled_results

    def discharge_collected(
        self, collector: ObligationCollector, program_name: str
    ) -> VerificationReport:
        """Build a :class:`VerificationReport` for a collector's obligations."""
        start = time.perf_counter()
        report = VerificationReport(
            system=collector.system,
            program_name=program_name,
            rule_applications=dict(collector.rule_applications),
            errors=list(collector.errors),
        )
        report.results = self.discharge_all(collector.obligations)
        report.elapsed_seconds = time.perf_counter() - start
        return report

    # -- discharge paths ---------------------------------------------------------

    def _discharge_serial(
        self,
        obligations: Sequence[ProofObligation],
        pending: Sequence[int],
        keys: Sequence[Optional[str]],
        results: List[Optional[ObligationResult]],
    ) -> None:
        """The seed-compatible path: one shared solver, obligations in order."""
        solver = self.solver
        if solver is None:
            solver = self.solver = Solver()
        before = solver.statistics.as_dict()
        for index in pending:
            obligation = obligations[index]
            obligation_start = time.perf_counter()
            with telemetry.span(
                "discharge",
                index=index,
                kind=obligation.kind.value,
                rule=obligation.rule,
                strategy="serial",
            ) as discharge_span:
                provenance = obligation.provenance
                if provenance is not None:
                    if provenance.program:
                        discharge_span.set_attribute("program", provenance.program)
                    if provenance.study:
                        discharge_span.set_attribute("study", provenance.study)
                    if provenance.span is not None:
                        discharge_span.set_attribute(
                            "location", provenance.location()
                        )
                    if provenance.sites:
                        discharge_span.set_attribute(
                            "sites", ",".join(provenance.sites)
                        )
                if obligation.kind is ObligationKind.VALIDITY:
                    result: SolverResult = solver.check_valid(obligation.formula)
                else:
                    result = solver.check_sat(obligation.formula)
                discharge_span.set_attribute("status", result.status.value)
            self.statistics.solver_calls += 1
            if result.status is Status.UNKNOWN:
                self.statistics.unknown_results += 1
            results[index] = ObligationResult(
                obligation=obligation,
                status=result.status,
                counterexample=result.model,
                elapsed_seconds=time.perf_counter() - obligation_start,
                reason=result.reason,
            )
            self._store(keys[index], result.status, result.model, result.reason, "serial")
        after = solver.statistics.as_dict()
        self.solver_statistics.merge(
            {key: after[key] - before.get(key, 0) for key in after}
        )
        # The shared solver has no portfolio, so its wave delta is booked
        # under the pseudo-strategy "serial" — keeping the per-strategy
        # breakdown total-preserving on both discharge paths.
        self.solver_statistics.add_strategy_seconds(
            "serial", after["total_seconds"] - before.get("total_seconds", 0.0)
        )

    def _discharge_portfolio(
        self,
        obligations: Sequence[ProofObligation],
        pending: Sequence[int],
        keys: Sequence[Optional[str]],
        results: List[Optional[ObligationResult]],
    ) -> None:
        assert self.portfolio is not None
        collect_telemetry = telemetry.enabled()
        tasks = []
        for index in pending:
            obligation = obligations[index]
            kind = obligation.kind.value
            provenance = obligation.provenance
            label = ""
            if provenance is not None:
                parts = [provenance.program or provenance.study]
                if provenance.span is not None:
                    parts.append(provenance.location())
                label = " @ ".join(part for part in parts if part)
            tasks.append(
                DischargeTask(
                    index=index,
                    formula=obligation.formula,
                    kind=kind,
                    strategies=self.portfolio.order_for(kind),
                    budget_seconds=self.budget_seconds,
                    collect_telemetry=collect_telemetry,
                    label=label,
                )
            )
        if len(tasks) > 1 and self.jobs > 1:
            self.statistics.parallel_batches += 1
        for outcome in self._scheduler.run(tasks):
            obligation = obligations[outcome.index]
            self.statistics.solver_calls += outcome.attempts
            self.statistics.strategy_attempts += outcome.attempts
            if outcome.status is Status.UNKNOWN:
                self.statistics.unknown_results += 1
            if outcome.solver_stats is not None:
                self.solver_statistics.merge(outcome.solver_stats)
            if outcome.telemetry is not None:
                # Worker-process spans arrive as an exported session;
                # re-parent them under the open dispatch span so the
                # trace stays one tree across processes.
                telemetry.merge_exported(outcome.telemetry)
            if outcome.strategy and is_conclusive(obligation.kind.value, outcome.status):
                self.portfolio.record_win(obligation.kind.value, outcome.strategy)
                telemetry.count(
                    f"portfolio.wins.{obligation.kind.value}.{outcome.strategy}"
                )
            results[outcome.index] = ObligationResult(
                obligation=obligation,
                status=outcome.status,
                counterexample=outcome.model,
                elapsed_seconds=outcome.elapsed_seconds,
                reason=outcome.reason,
            )
            self._store(
                keys[outcome.index],
                outcome.status,
                outcome.model,
                outcome.reason,
                outcome.strategy,
            )

    def _store(
        self,
        key: Optional[str],
        status: Status,
        model,
        reason: str,
        strategy: str,
    ) -> None:
        if self.cache is not None and key is not None:
            self.cache.put(key, status, model=model, reason=reason, strategy=strategy)

    # -- persistence / reporting --------------------------------------------------

    def save(self) -> None:
        """Flush the cache and portfolio win table to their cache directory."""
        if self.cache is not None:
            self.cache.save()
            if self.portfolio is not None and self.cache.cache_dir is not None:
                self.portfolio.save(self.cache.cache_dir)

    def stats(self) -> Dict[str, Dict[str, float]]:
        report = {
            "engine": self.statistics.as_dict(),
            "solver": self.solver_statistics.as_dict(),
        }
        if self.cache is not None:
            report["cache"] = self.cache.stats()
        return report


def default_engine(solver: Optional[Solver] = None) -> ObligationEngine:
    """The engine behind the classic synchronous discharge path."""
    return ObligationEngine(solver=solver)
