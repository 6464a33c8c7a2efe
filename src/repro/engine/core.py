"""The obligation engine: the one path from a proof obligation to a verdict.

:class:`ObligationEngine` sits between the Hoare layer (which *collects*
proof obligations) and the solver stack (which *decides* individual
queries).  :meth:`ObligationEngine.discharge_all` settles every obligation
of a wave in five steps:

1. compute the obligation's canonical fingerprint, once
   (:mod:`repro.engine.fingerprint`);
2. replay a verdict from the search-session
   :class:`~repro.engine.incremental.VerdictStore`, when one is given
   (``UNKNOWN`` included);
3. wait on an earlier obligation of the same wave with the same
   fingerprint (in-wave dedup);
4. replay a conclusive verdict from the result cache
   (:mod:`repro.engine.cache`);
5. send the rest to the solver, one query per obligation, on the
   scheduler (:mod:`repro.engine.scheduler`), and record the new
   verdicts in the store and the cache.

Every caller takes this path: batch verification, the explorer and the
fuzz funnel with an engine of their own, and
:func:`repro.hoare.obligations.discharge` with a default
``ObligationEngine()`` when the caller passes none.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..hoare.obligations import (
    ObligationCollector,
    ObligationResult,
    ProofObligation,
    VerificationReport,
)
from ..solver.interface import SolverStatistics
from ..solver.lia import Status
from .cache import ObligationCache
from .fingerprint import fingerprint
from .incremental import VerdictStore
from .scheduler import DischargeScheduler, DischargeTask, raised_reason


@dataclass
class EngineStatistics:
    """Aggregate statistics over the lifetime of an engine instance."""

    #: Obligations that passed the session store, i.e. all of them when
    #: ``discharge_all`` ran without a store.
    obligations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    dedup_hits: int = 0  # in-wave duplicates answered by a representative
    #: Obligations the search-session verdict store answered (see
    #: engine/incremental.py), and the complement that was discharged as
    #: delta.  Both stay zero when ``discharge_all`` runs without a store.
    incremental_reused: int = 0
    delta_obligations: int = 0
    solver_calls: int = 0
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
            "parallel_batches": float(self.parallel_batches),
            "unknown_results": float(self.unknown_results),
            "total_seconds": self.total_seconds,
        }


def _result(
    obligation: ProofObligation,
    key: str,
    status: Status,
    model,
    reason: str,
    elapsed_seconds: float = 0.0,
    reused: bool = False,
) -> ObligationResult:
    return ObligationResult(
        obligation=obligation,
        status=status,
        counterexample=dict(model) if model is not None else None,
        elapsed_seconds=elapsed_seconds,
        reason=reason,
        fingerprint=key,
        reused=reused,
    )


class ObligationEngine:
    """Discharges proof obligations through store, cache and solver.

    Parameters
    ----------
    jobs:
        Worker processes for parallel discharge (``1`` runs in-process).
    cache_dir:
        A directory for the persistent result cache; ``None`` keeps the
        cache in memory.
    budget_seconds:
        Per-obligation wall-clock budget (see
        :class:`~repro.solver.interface.Solver`); must be positive.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        budget_seconds: Optional[float] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if budget_seconds is not None and budget_seconds <= 0:
            raise ValueError("budget must be a positive number of seconds")
        self.jobs = jobs
        self.cache = ObligationCache(cache_dir=cache_dir)
        self.budget_seconds = budget_seconds
        self.statistics = EngineStatistics()
        #: Solver-level counters of every discharge this engine performed,
        #: merged from the statistics each outcome ships back (from worker
        #: processes too).
        self.solver_statistics = SolverStatistics()
        self._scheduler = DischargeScheduler(jobs=jobs)

    @classmethod
    def for_batch(
        cls,
        jobs: int = 1,
        cache_dir: Optional[str] = None,
        budget_seconds: Optional[float] = None,
    ) -> "ObligationEngine":
        """The engine ``repro verify-batch`` and the explorer use."""
        return cls(jobs=jobs, cache_dir=cache_dir, budget_seconds=budget_seconds)

    # -- discharge ---------------------------------------------------------------

    def discharge_all(
        self,
        obligations: Sequence[ProofObligation],
        store: Optional[VerdictStore] = None,
    ) -> List[ObligationResult]:
        """Settle every obligation; one result per obligation, in order.

        Each result carries the obligation's ``fingerprint`` and whether
        ``store`` answered it (``reused``).  Without a store every
        obligation is discharged (or answered by dedup and the cache).
        """
        start = time.perf_counter()
        results: List[Optional[ObligationResult]] = [None] * len(obligations)
        keys: List[str] = []
        reused = 0
        pending: List[int] = []
        pending_by_key: Dict[str, int] = {}
        duplicates: Dict[int, List[int]] = {}

        with telemetry.span("discharge.wave", obligations=len(obligations)):
            with telemetry.span("fingerprint", obligations=len(obligations)):
                for index, obligation in enumerate(obligations):
                    try:
                        key = fingerprint(obligation.formula, obligation.kind.value)
                    except RecursionError as error:
                        # A formula nested past the recursion limit settles
                        # UNKNOWN without a key: never deduplicated, cached
                        # or stored.
                        keys.append("")
                        self.statistics.unknown_results += 1
                        results[index] = _result(
                            obligation, "", Status.UNKNOWN, None, raised_reason(error)
                        )
                        continue
                    keys.append(key)
                    if store is not None:
                        stored = store.get(key)
                        if stored is not None:
                            reused += 1
                            results[index] = _result(
                                obligation, key, stored.status, stored.model,
                                stored.reason, reused=True,
                            )
                            continue
                    representative = pending_by_key.get(key)
                    if representative is not None:
                        duplicates.setdefault(representative, []).append(index)
                        continue
                    cached = self.cache.get(key)
                    if cached is not None:
                        self.statistics.cache_hits += 1
                        telemetry.count("engine.cache.hits." + cached.origin)
                        results[index] = _result(
                            obligation, key, cached.status, cached.model, cached.reason
                        )
                        continue
                    self.statistics.cache_misses += 1
                    telemetry.count("engine.cache.misses")
                    pending_by_key[key] = index
                    pending.append(index)
            delta = len(obligations) - reused
            self.statistics.obligations += delta
            if store is not None:
                telemetry.count("engine.incremental.reused", reused)
                telemetry.count("engine.incremental.delta", delta)
                self.statistics.incremental_reused += reused
                self.statistics.delta_obligations += delta

            if pending:
                with telemetry.span("dispatch", pending=len(pending), jobs=self.jobs):
                    self._discharge(obligations, pending, keys, results)

        for representative, followers in duplicates.items():
            settled = results[representative]
            assert settled is not None
            for index in followers:
                self.statistics.dedup_hits += 1
                telemetry.count("engine.dedup.hits")
                results[index] = _result(
                    obligations[index], keys[index], settled.status,
                    settled.counterexample, settled.reason,
                )
        if store is not None:
            for key, result in zip(keys, results):
                if key and not result.reused:
                    store.record(key, result)

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

    def _discharge(
        self,
        obligations: Sequence[ProofObligation],
        pending: Sequence[int],
        keys: Sequence[str],
        results: List[Optional[ObligationResult]],
    ) -> None:
        """Solve every pending obligation and book the outcomes."""
        collect_telemetry = telemetry.enabled()
        tasks = []
        for index in pending:
            obligation = obligations[index]
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
                    kind=obligation.kind.value,
                    budget_seconds=self.budget_seconds,
                    collect_telemetry=collect_telemetry,
                    label=label,
                )
            )
        if len(tasks) > 1 and self.jobs > 1:
            self.statistics.parallel_batches += 1
        self.statistics.solver_calls += len(tasks)
        for outcome in self._scheduler.run(tasks):
            if outcome.status is Status.UNKNOWN:
                self.statistics.unknown_results += 1
            if outcome.solver_stats is not None:
                self.solver_statistics.merge(outcome.solver_stats)
            if outcome.telemetry is not None:
                # Worker-process spans arrive as an exported session;
                # re-parent them under the open dispatch span so the
                # trace stays one tree across processes.
                telemetry.merge_exported(outcome.telemetry)
            key = keys[outcome.index]
            results[outcome.index] = _result(
                obligations[outcome.index], key, outcome.status, outcome.model,
                outcome.reason, elapsed_seconds=outcome.elapsed_seconds,
            )
            self.cache.put(key, outcome.status, model=outcome.model, reason=outcome.reason)

    # -- persistence / reporting --------------------------------------------------

    def save(self) -> None:
        """Flush the cache to its cache directory."""
        self.cache.save()

    def stats(self) -> Dict[str, Dict[str, float]]:
        return {
            "engine": self.statistics.as_dict(),
            "solver": self.solver_statistics.as_dict(),
            "cache": self.cache.stats(),
        }
