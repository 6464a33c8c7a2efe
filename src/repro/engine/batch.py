"""Batch verification: many programs, one pooled discharge wave.

The batch layer is where the engine's concurrency pays off across *program*
boundaries: obligations are collected from every program first (VC
generation is cheap), pooled into a single :meth:`ObligationEngine.
discharge_all` wave — so independent obligations from different programs
prove concurrently and share one cache — and the verdicts are then scattered
back into per-program :class:`~repro.hoare.verifier.AcceptabilityReport`
objects identical in shape to :meth:`AcceptabilityVerifier.verify`'s.

:func:`verify_batch` is two phases, also callable apart.
:func:`collect_batch` collects each program and hands its obligations to
:meth:`ObligationEngine.prefetch` straight away, so that with ``jobs > 1``
the workers solve one program's obligations while the next is collected.
:func:`finish_batch` books the pooled wave through ``discharge_all`` and
scatters the verdicts.  The exhaustive explorer collects one generation before it
finishes the previous one.

Batch items come from the built-in case studies
(:func:`case_study_items`) or from a directory of ``.rlx`` sources
(:func:`directory_items`, each verified against the specification its own
header clauses and annotations state).  The resulting :class:`BatchReport`
renders both as a fixed-width table (via
:func:`repro.analysis.metrics.format_batch_table`) and as a structured
JSON document for downstream tooling.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..analysis.metrics import BatchRow, format_batch_table
from ..casestudies import all_case_studies
from ..hoare.obligations import ProofObligation
from ..hoare.verifier import (
    AcceptabilityReport,
    AcceptabilitySpec,
    AcceptabilityVerifier,
    CollectedAcceptability,
)
from ..lang.ast import Program
from ..lang.parser import parse_program
from .core import ObligationEngine
# Unused here since the engine fingerprints; kept because perfbench's tracer
# test probes this module's ``fingerprint`` binding.
from .fingerprint import fingerprint  # noqa: F401
from .incremental import VerdictStore


@dataclass
class BatchItem:
    """One program plus the specification to verify it against.

    ``program`` is ``None`` (with ``error`` set) for sources that failed to
    parse — one bad file must not sink the batch, so the failure is carried
    into the report instead of raised.
    """

    name: str
    program: Optional[Program]
    spec: AcceptabilitySpec
    error: str = ""
    #: Case-study name (when the item came from the registry) and applied
    #: relaxation-site identifiers — flow into obligation provenance.
    study: str = ""
    sites: Tuple[str, ...] = ()


def case_study_items(names: Optional[Sequence[str]] = None) -> List[BatchItem]:
    """Batch items for the registered case studies (all, or the named ones).

    Names resolve through the case-study registry, so anything
    :func:`repro.casestudies.get_case_study` accepts works here (registered
    names, unique prefixes); unknown names raise the registry's error,
    which lists every registered study.
    """
    from ..casestudies import get_case_study

    if names:
        # Dedup by resolved name (first mention wins): aliases of the same
        # study must not verify it twice or duplicate report rows.
        studies_by_name: Dict[str, object] = {}
        for name in names:
            study = get_case_study(name)
            studies_by_name.setdefault(study.name, study)
        studies = list(studies_by_name.values())
    else:
        studies = list(all_case_studies())
    items: List[BatchItem] = []
    for case_study in studies:
        program = case_study.build_program()
        items.append(
            BatchItem(
                name=case_study.name,
                program=program,
                spec=case_study.acceptability_spec(program),
                study=case_study.name,
            )
        )
    return items


def program_items(
    programs: Sequence[Tuple[str, Optional[Program], AcceptabilitySpec]],
    study: str = "",
) -> List[BatchItem]:
    """Batch items for an in-memory candidate stream.

    This is the entry point the relaxation-space explorer uses: each
    candidate relaxed program arrives as a ``(name, program, spec)`` triple
    — or a 4-tuple with the applied relaxation-site identifiers appended,
    which flow into obligation provenance along with the optional ``study``
    (case-study name shared by every candidate) — and the whole generation is
    verified as one pooled discharge wave — sibling candidates share most of
    their obligations, so the engine's in-wave dedup and cross-run cache do
    the heavy lifting.  A ``None`` program marks a candidate whose
    construction failed; it is carried into the report as an error entry
    rather than dropped.
    """
    items: List[BatchItem] = []
    for entry in programs:
        name, program, spec = entry[0], entry[1], entry[2]
        sites = tuple(entry[3]) if len(entry) > 3 else ()
        if program is None:
            items.append(
                BatchItem(
                    name=name,
                    program=None,
                    spec=spec,
                    error=f"candidate {name} could not be constructed",
                    study=study,
                    sites=sites,
                )
            )
        else:
            items.append(
                BatchItem(name=name, program=program, spec=spec, study=study, sites=sites)
            )
    return items


def directory_items(directory: str, pattern_suffix: str = ".rlx") -> List[BatchItem]:
    """Batch items for every ``*.rlx`` program in ``directory``.

    Each program is verified against the specification it states
    (:meth:`~repro.hoare.verifier.AcceptabilitySpec.of`): its header
    clauses, with the defaults (trivial unary pre/postconditions,
    noninterference as the relational precondition) for the ones it omits,
    and its ``diverge`` annotations.
    """
    if not os.path.isdir(directory):
        raise ValueError(f"not a directory: {directory!r}")
    items: List[BatchItem] = []
    for entry in sorted(os.listdir(directory)):
        if not entry.endswith(pattern_suffix):
            continue
        path = os.path.join(directory, entry)
        name = os.path.splitext(entry)[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                program = parse_program(handle.read(), name=name)
        except Exception as error:  # parse/IO failure becomes a report entry
            items.append(
                BatchItem(
                    name=name,
                    program=None,
                    spec=AcceptabilitySpec(),
                    error=f"failed to parse {entry}: {error}",
                )
            )
            continue
        items.append(
            BatchItem(name=program.name, program=program, spec=AcceptabilitySpec.of(program))
        )
    return items


@dataclass
class BatchProgramResult:
    """The verdict for one batch item.

    Everything per obligation — fingerprint, status, model, whether the
    search session's store answered it — is on ``report``'s results, and
    each obligation's provenance names its program and carries its source
    for forensics.
    """

    name: str
    report: Optional[AcceptabilityReport]
    error: str = ""
    elapsed_seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return self.report is not None and self.report.verified and not self.error

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "verified": self.verified,
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.error:
            payload["error"] = self.error
        if self.report is not None:
            payload["guarantees"] = self.report.guarantees()
            payload["layers"] = {
                "original": self.report.original.as_dict(),
                "relaxed": self.report.relaxed.as_dict(),
            }
        return payload


@dataclass
class BatchReport:
    """The structured outcome of one ``verify-batch`` invocation."""

    programs: List[BatchProgramResult] = field(default_factory=list)
    jobs: int = 1
    elapsed_seconds: float = 0.0
    engine_stats: Dict[str, float] = field(default_factory=dict)
    solver_stats: Dict[str, float] = field(default_factory=dict)
    cache_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def all_verified(self) -> bool:
        return bool(self.programs) and all(result.verified for result in self.programs)

    def as_dict(self) -> Dict[str, object]:
        return {
            "all_verified": self.all_verified,
            "jobs": self.jobs,
            "elapsed_seconds": self.elapsed_seconds,
            "programs": [result.as_dict() for result in self.programs],
            "engine": self.engine_stats,
            "solver": self.solver_stats,
            "cache": self.cache_stats,
        }

    def summary(self) -> str:
        rows = []
        for result in self.programs:
            results = result.report.results if result.report is not None else []
            rows.append(
                BatchRow(
                    program=result.name,
                    verified=result.verified,
                    obligations=len(results),
                    discharged=sum(1 for r in results if r.discharged),
                    elapsed_seconds=result.elapsed_seconds,
                    error=result.error,
                )
            )
        lines = [format_batch_table(rows)]
        lines.append("")
        verdict = "ALL VERIFIED" if self.all_verified else "NOT ALL VERIFIED"
        lines.append(
            f"{verdict}: {sum(1 for r in self.programs if r.verified)}/"
            f"{len(self.programs)} programs, jobs={self.jobs}, "
            f"wall-clock {self.elapsed_seconds:.3f}s"
        )
        if self.engine_stats:
            lines.append(
                "engine: "
                f"{self.engine_stats.get('solver_calls', 0):.0f} solver calls, "
                f"{self.engine_stats.get('cache_hits', 0):.0f} cache hits / "
                f"{self.engine_stats.get('cache_misses', 0):.0f} misses"
            )
        return "\n".join(lines)


@dataclass
class CollectedBatch:
    """A batch after its collect phase (:func:`collect_batch`).

    One entry per item in ``programs`` — ``(item, bundle, error, collect
    seconds)``, ``bundle`` ``None`` for an item that failed — and the
    pooled wave: every bundle's obligations in item order, and their
    fingerprints.
    """

    engine: ObligationEngine
    verdict_store: Optional[VerdictStore]
    programs: List[Tuple[BatchItem, Optional[CollectedAcceptability], str, float]]
    pooled: List[ProofObligation] = field(default_factory=list)
    fingerprints: List[Optional[str]] = field(default_factory=list)
    seconds: float = 0.0


def verify_batch(
    items: Sequence[BatchItem],
    engine: Optional[ObligationEngine] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    budget_seconds: Optional[float] = None,
    verdict_store: Optional[VerdictStore] = None,
) -> BatchReport:
    """Verify every batch item through one pooled engine discharge wave.

    A ``verdict_store`` (a search-session
    :class:`~repro.engine.incremental.VerdictStore`) is handed to
    :meth:`ObligationEngine.discharge_all`, which answers the obligations
    the session already settled and discharges only the delta; each
    result records whether the store answered it (``reused``).

    Without an ``engine`` the batch builds one from ``jobs``,
    ``cache_dir`` and ``budget_seconds`` and closes it before returning;
    a caller's engine (and its worker pool) stays open.
    """
    if engine is None:
        with ObligationEngine.for_batch(
            jobs=jobs, cache_dir=cache_dir, budget_seconds=budget_seconds
        ) as engine:
            return verify_batch(items, engine=engine, verdict_store=verdict_store)
    # The root span every other event of this run nests under — collect
    # spans, the discharge wave, worker spans re-parented by the engine.
    with telemetry.span("batch", programs=len(items), jobs=engine.jobs):
        return _finish(_collect(items, engine, verdict_store))


def collect_batch(
    items: Sequence[BatchItem],
    engine: ObligationEngine,
    verdict_store: Optional[VerdictStore] = None,
) -> CollectedBatch:
    """The collect phase of :func:`verify_batch`, under its own ``batch`` span.

    ``verdict_store`` must be the store :func:`finish_batch` will book
    against.
    """
    with telemetry.span("batch", programs=len(items), jobs=engine.jobs, phase="collect"):
        return _collect(items, engine, verdict_store)


def finish_batch(collected: CollectedBatch) -> BatchReport:
    """The finish phase of :func:`verify_batch`, under its own ``batch`` span."""
    with telemetry.span(
        "batch", programs=len(collected.programs), jobs=collected.engine.jobs,
        phase="finish",
    ):
        return _finish(collected)


def _collect(
    items: Sequence[BatchItem],
    engine: ObligationEngine,
    verdict_store: Optional[VerdictStore],
) -> CollectedBatch:
    # VC generation is serial; convergence premises are decided through the
    # engine, and each program's obligations are prefetched as soon as
    # they are collected.
    start = time.perf_counter()
    verifier = AcceptabilityVerifier(engine=engine)
    collected = CollectedBatch(engine=engine, verdict_store=verdict_store, programs=[])
    for item in items:
        item_start = time.perf_counter()
        if item.program is None:
            collected.programs.append((item, None, item.error or "no program", 0.0))
            continue
        try:
            with telemetry.span("collect", program=item.name):
                bundle = verifier.collect(
                    item.program, item.spec, study=item.study, sites=item.sites
                )
        except Exception as error:  # defensive: one bad program must not sink the batch
            collected.programs.append(
                (item, None, str(error), time.perf_counter() - item_start)
            )
            continue
        obligations = bundle.obligations
        collected.pooled.extend(obligations)
        collected.fingerprints.extend(engine.prefetch(obligations, verdict_store))
        collected.programs.append((item, bundle, "", time.perf_counter() - item_start))
    collected.seconds = time.perf_counter() - start
    return collected


def _finish(collected: CollectedBatch) -> BatchReport:
    start = time.perf_counter()
    engine, verdict_store = collected.engine, collected.verdict_store
    results = engine.discharge_all(
        collected.pooled, store=verdict_store, fingerprints=collected.fingerprints
    )

    # Scatter the verdicts back into per-program reports.
    report = BatchReport(jobs=engine.jobs)
    offset = 0
    with telemetry.span("scatter", programs=len(collected.programs)):
        for item, bundle, error, collect_elapsed in collected.programs:
            if bundle is None:
                report.programs.append(
                    BatchProgramResult(
                        name=item.name, report=None, error=error,
                        elapsed_seconds=collect_elapsed,
                    )
                )
                continue
            end = offset + len(bundle.obligations)
            acceptability = bundle.report(results[offset:end])
            offset = end
            report.programs.append(
                BatchProgramResult(
                    name=item.name,
                    report=acceptability,
                    elapsed_seconds=collect_elapsed
                    + acceptability.original.elapsed_seconds
                    + acceptability.relaxed.elapsed_seconds,
                )
            )

    engine.save()
    report.elapsed_seconds = collected.seconds + time.perf_counter() - start
    sections = engine.stats()
    report.engine_stats = sections["engine"]
    report.solver_stats = sections["solver"]
    report.cache_stats = sections["cache"]
    return report

