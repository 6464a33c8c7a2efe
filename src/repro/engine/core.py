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

:meth:`ObligationEngine.prefetch` runs step 1 early, as soon as a
program's obligations are collected, and with ``jobs > 1`` already starts
step 5 on the worker pool for every obligation that neither the store, an
earlier prefetch nor the cache (peeked without counting) answers.  That
is speculation only: ``discharge_all`` still takes the five steps in
index order and alone decides which obligations reach the solver.  A
pending obligation joins its prefetched discharge instead of submitting
one; a prefetched discharge that the wave does not need (a convergence
premise put its verdict in the cache meanwhile) is cancelled and counted
as unused; and one lost to a pool that another task broke is run once
more, so that only a discharge submitted at booking settles as ``worker
died``.

Every caller takes this path: batch verification, the explorer and the
fuzz funnel with an engine of their own, and
:func:`repro.hoare.obligations.discharge` with a default
``ObligationEngine()`` when the caller passes none.

The relational prover's convergence premises, decided while obligations
are collected, go through :meth:`ObligationEngine.check_premise`: the same
fingerprint, cache and budget, solved in-process.

An engine with ``jobs > 1`` keeps one worker pool from its first parallel
wave until :meth:`ObligationEngine.close`; use it as a context manager
(``with engine: ...``) so that no worker outlives the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .. import telemetry
from ..hoare.obligations import (
    ObligationCollector,
    ObligationKind,
    ObligationResult,
    ProofObligation,
    VerificationReport,
)
from ..logic.formula import Formula
from ..solver.interface import Solver, SolverStatistics
from ..solver.lia import Status
from .cache import ObligationCache
from .fingerprint import fingerprint
from .incremental import VerdictStore
from .scheduler import (
    DischargeOutcome,
    DischargeScheduler,
    DischargeTask,
    JoinHandle,
    raised_reason,
)


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
    #: Proof-search premises (:meth:`ObligationEngine.check_premise`)
    #: answered from the cache, and those that took a solver call.  Kept
    #: apart from the obligation counters above, which they never move.
    premise_cache_hits: int = 0
    premise_solver_calls: int = 0
    parallel_batches: int = 0
    #: Discharges :meth:`ObligationEngine.prefetch` started on the pool,
    #: and those that no wave booked (cancelled, or left when the engine
    #: closed).  Every other prefetched discharge is one of the
    #: ``solver_calls``.
    prefetched: int = 0
    prefetch_unused: int = 0
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
            "premise_cache_hits": float(self.premise_cache_hits),
            "premise_solver_calls": float(self.premise_solver_calls),
            "parallel_batches": float(self.parallel_batches),
            "prefetched": float(self.prefetched),
            "prefetch_unused": float(self.prefetch_unused),
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


def _discharge_task(
    index: int, obligation: ProofObligation, budget_seconds: Optional[float]
) -> DischargeTask:
    provenance = obligation.provenance
    label = ""
    if provenance is not None:
        parts = [provenance.program or provenance.study]
        if provenance.span is not None:
            parts.append(provenance.location())
        label = " @ ".join(part for part in parts if part)
    return DischargeTask(
        index=index,
        formula=obligation.formula,
        kind=obligation.kind.value,
        budget_seconds=budget_seconds,
        label=label,
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
        #: Runs discharge waves, and the explorer's scoring, on one worker
        #: pool that lives until :meth:`close`.
        self.scheduler = DischargeScheduler(jobs=jobs)
        #: Prefetched discharges no wave has booked yet, by fingerprint.
        self._speculative: Dict[str, JoinHandle] = {}

    def __enter__(self) -> "ObligationEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool, if one was opened, and reap its workers.

        The engine stays usable: a later parallel wave opens a fresh pool.
        Prefetched discharges that no wave booked are cancelled.
        """
        for key in list(self._speculative):
            self._drop_speculation(key)
        self.scheduler.close()

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

    def prefetch(
        self,
        obligations: Sequence[ProofObligation],
        store: Optional[VerdictStore] = None,
    ) -> List[Optional[str]]:
        """Fingerprint obligations a later wave will book, and start solving them.

        Returns each obligation's fingerprint (``None`` when fingerprinting
        raised), to be handed to :meth:`discharge_all` as ``fingerprints``.
        With ``jobs > 1`` every obligation whose key ``store`` does not
        hold, no earlier prefetch took and the cache does not answer is
        submitted to the pool straight away; ``store`` should be the one
        the booking wave will use.  With ``jobs=1`` nothing is submitted.
        """
        keys: List[Optional[str]] = []
        submitted = 0
        with telemetry.span("prefetch", obligations=len(obligations)):
            for index, obligation in enumerate(obligations):
                try:
                    key = fingerprint(obligation.formula, obligation.kind.value)
                except RecursionError:
                    keys.append(None)  # discharge_all settles it UNKNOWN
                    continue
                keys.append(key)
                if (
                    self.jobs == 1
                    or key in self._speculative
                    or (store is not None and key in store)
                    or self.cache.get(key, counted=False) is not None
                ):
                    continue
                self._speculative[key] = self.scheduler.discharge(
                    _discharge_task(index, obligation, self.budget_seconds),
                    speculative=True,
                )
                submitted += 1
        if submitted:
            self.statistics.prefetched += submitted
            telemetry.count("engine.prefetch.submitted", submitted)
        return keys

    def _drop_speculation(self, key: str) -> None:
        """Cancel a prefetched discharge of ``key`` that no wave will book."""
        handle = self._speculative.pop(key, None)
        if handle is not None:
            handle.cancel()
            self.statistics.prefetch_unused += 1
            telemetry.count("engine.prefetch.unused")

    def discharge_all(
        self,
        obligations: Sequence[ProofObligation],
        store: Optional[VerdictStore] = None,
        fingerprints: Optional[Sequence[Optional[str]]] = None,
    ) -> List[ObligationResult]:
        """Settle every obligation; one result per obligation, in order.

        Each result carries the obligation's ``fingerprint`` and whether
        ``store`` answered it (``reused``).  Without a store every
        obligation is discharged (or answered by dedup and the cache).
        ``fingerprints`` are the keys :meth:`prefetch` returned for these
        obligations, so they are not computed again.
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
                        key = fingerprints[index] if fingerprints is not None else None
                        if key is None:
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
                            self._drop_speculation(key)
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
                        self._drop_speculation(key)
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
                with telemetry.span(
                    "dispatch", pending=len(pending), jobs=self.jobs
                ) as dispatch:
                    prefetched = self._discharge(obligations, pending, keys, results)
                    dispatch.set_attribute("prefetched", prefetched)

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
    ) -> int:
        """Solve every pending obligation and book the outcomes.

        Returns how many of them joined a prefetched discharge.
        """
        handles: List[JoinHandle] = []
        prefetched = 0
        for index in pending:
            handle = self._speculative.pop(keys[index], None)
            if handle is None:
                handle = self.scheduler.discharge(
                    _discharge_task(index, obligations[index], self.budget_seconds)
                )
            else:
                prefetched += 1
            handles.append(handle)
        if len(handles) > 1 and self.jobs > 1:
            self.statistics.parallel_batches += 1
        self.statistics.solver_calls += len(handles)
        # Worker-process spans come home with the outcomes and are
        # re-parented under the open dispatch span, so the trace stays one
        # tree across processes.
        outcomes: List[Optional[DischargeOutcome]] = [
            handle.join() for handle in handles
        ]
        lost = [position for position, outcome in enumerate(outcomes) if outcome is None]
        if lost:
            # Prefetched discharges lost to a pool another task broke run
            # once more, on a fresh pool: the current one first finishes
            # what is queued on it, so nothing queued ahead of them (a
            # dying scorer, say) can break the pool under them again.
            self.scheduler.close(cancel_futures=False)
            retries = [self.scheduler.discharge(handles[position].task) for position in lost]
            for position, retry in zip(lost, retries):
                outcomes[position] = retry.join()
        for index, outcome in zip(pending, outcomes):
            if outcome.status is Status.UNKNOWN:
                self.statistics.unknown_results += 1
            if outcome.solver_stats is not None:
                self.solver_statistics.merge(outcome.solver_stats)
            key = keys[index]
            results[index] = _result(
                obligations[index], key, outcome.status, outcome.model,
                outcome.reason, elapsed_seconds=outcome.elapsed_seconds,
            )
            self.cache.put(key, outcome.status, model=outcome.model, reason=outcome.reason)
        return prefetched

    def check_premise(self, formula: Formula) -> bool:
        """Whether the proof-search premise ``formula`` is valid.

        Premises (the relational prover's convergence checks) are decided
        while obligations are collected, not discharged, so they take a
        shorter path: the validity fingerprint, the result cache (in memory
        or on disk), else one in-process solve under ``budget_seconds``
        whose verdict is cached when conclusive.  An ``UNKNOWN`` verdict, or
        a premise that raises, answers ``False``: the prover then takes the
        sound diverge rule.  Premises never move the obligation counters or
        the cache's hit/miss counts.
        """
        try:
            key = fingerprint(formula, ObligationKind.VALIDITY.value)
            cached = self.cache.get(key, counted=False)
            if cached is not None:
                self.statistics.premise_cache_hits += 1
                telemetry.count("engine.premise.cache_hits")
                return cached.status is Status.VALID
            self.statistics.premise_solver_calls += 1
            telemetry.count("engine.premise.solver_calls")
            result = Solver(budget_seconds=self.budget_seconds).check_valid(formula)
        except Exception:
            return False
        self.cache.put(key, result.status, model=result.model, reason=result.reason)
        return result.status is Status.VALID

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
