"""The fuzzing pipeline driver: lint → verify → explore, differentially.

One :func:`run_fuzz` invocation drives a whole generated corpus through the
same funnel every hand-written case study passes — and cross-examines each
layer along the way:

* **lint** — every program must pass ``casestudy lint`` (build, pretty /
  parse round-trip, declared variables, sites apply, obligations collect);
* **verify** — the corpus is batch-verified once per *leg* (a named
  engine/backend configuration) and each program's verify signature —
  canonical obligation fingerprints, verdict statuses, counterexample
  models and the overall verdict — must be identical across legs:

  - ``backend=tree`` vs ``backend=compiled`` (the reference tree walker
    against the compiled closures),
  - serial vs ``--jobs N`` discharge (the process-pool path),
  - cold vs warm persistent cache (the warm leg replays the cold leg's
    verdicts from disk);

* **explore** — each program's relaxation space is searched twice
  (exhaustive, and beam at effectively infinite width) and the full
  candidate signature — fingerprint, parent, verdict, obligations digest,
  score — plus the Pareto frontier must agree; with ``jobs > 1`` a third
  run checks the whole explore envelope is ``--jobs``-invariant.

Any mismatch becomes a :class:`Divergence`; the driver then shrinks the
offending program to a minimal statement sequence that still diverges
(:mod:`repro.fuzz.shrink`) and, when a divergence directory is configured,
writes a committed-style reproducer fixture (source + divergence record).
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..casestudies.spec import lint_case_study
from ..engine import ObligationEngine, VerdictStore, program_items, verify_batch
from ..explore import explore
from ..lang.parser import parse_program
from ..solver.backend import BACKENDS, use_backend
from .generator import GeneratedProgram, derive_spec, generated_study, synthesize_corpus

#: The backend every other verify leg is compared against.
BASE_BACKEND = "compiled"

#: Beam width that turns the beam scheduler into an exhaustive walk.
FULL_BEAM_WIDTH = 1_000_000


def available_backends() -> Tuple[str, ...]:
    """The evaluators the verify stage differentially tests."""
    return BACKENDS


def obligations_digest(fingerprints: Sequence[str], statuses: Sequence[str]) -> str:
    """16-hex-char hash over (fingerprint, status) pairs in pooled order —
    the same parity currency as the explorer's per-candidate digest."""
    digest = hashlib.sha256()
    for key, status in zip(fingerprints, statuses):
        digest.update(f"{key}:{status}\n".encode("ascii"))
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Signatures: the parity currency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifySignature:
    """Everything one verify leg decided about one program."""

    verified: bool
    error: str
    fingerprints: Tuple[str, ...]
    statuses: Tuple[str, ...]
    #: One normalized counterexample model per obligation, pooled order
    #: (original layer then relaxed): a sorted ``(symbol, value)`` tuple,
    #: or ``None`` for obligations without a model.
    models: Tuple[Optional[Tuple[Tuple[str, str], ...]], ...]

    def as_dict(self) -> Dict[str, object]:
        return {
            "verified": self.verified,
            "error": self.error,
            "fingerprints": list(self.fingerprints),
            "statuses": list(self.statuses),
            "models": [
                None if model is None else [list(pair) for pair in model]
                for model in self.models
            ],
        }


def _normalize_model(model) -> Optional[Tuple[Tuple[str, str], ...]]:
    if model is None:
        return None
    return tuple(sorted((str(key), str(value)) for key, value in model.items()))


def signature_of(result) -> VerifySignature:
    """The :class:`VerifySignature` of one ``BatchProgramResult``."""
    models: List[Optional[Tuple[Tuple[str, str], ...]]] = []
    if result.report is not None:
        for layer in (result.report.original, result.report.relaxed):
            for obligation_result in layer.results:
                models.append(_normalize_model(obligation_result.counterexample))
    return VerifySignature(
        verified=result.verified,
        error=result.error,
        fingerprints=tuple(result.obligation_fingerprints),
        statuses=tuple(result.obligation_statuses),
        models=tuple(models),
    )


def explore_signature(payload: Dict[str, object]) -> Dict[str, object]:
    """The deterministic core of an explore report dict.

    Timings and engine/solver/cache counters are machine- and
    configuration-dependent; everything else — the candidate set in order,
    each candidate's obligations digest, verdict and score, and the Pareto
    frontier — must be identical across search strategies and job counts.
    """
    results = payload["results"]
    return {
        "candidates": [
            (
                row["fingerprint"],
                row["parent"],
                row["verified"],
                row["obligations_digest"],
                _score_key(row.get("score")),
            )
            for row in results
        ],
        "frontier": sorted(
            (row["fingerprint"], row["obligations_digest"])
            for row in results
            if row["pareto"]
        ),
        "verified_candidates": payload["verified_candidates"],
    }


def _score_key(score) -> Optional[Tuple[Tuple[str, object], ...]]:
    if score is None:
        return None
    return tuple(sorted(score.items()))


#: Report sections that legitimately differ across machines / job counts /
#: strategies; everything else participates in the jobs-parity equality.
_VOLATILE_EXPLORE_KEYS = ("timings", "engine", "solver", "cache", "jobs")


def normalized_explore_payload(payload: Dict[str, object]) -> Dict[str, object]:
    """An explore report dict with every machine-dependent section removed
    — the equality currency of the ``--jobs`` invariance check."""
    return {
        key: value
        for key, value in payload.items()
        if key not in _VOLATILE_EXPLORE_KEYS
    }


# ---------------------------------------------------------------------------
# Divergences
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One parity violation between two funnel legs."""

    program: str
    stage: str  # "verify" | "explore"
    left: str
    right: str
    detail: str
    left_value: object = None
    right_value: object = None
    shrunk_source: str = ""
    fixture_dir: str = ""

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "program": self.program,
            "stage": self.stage,
            "left": self.left,
            "right": self.right,
            "detail": self.detail,
            "left_value": self.left_value,
            "right_value": self.right_value,
        }
        if self.shrunk_source:
            payload["shrunk_source"] = self.shrunk_source
        if self.fixture_dir:
            payload["fixture_dir"] = self.fixture_dir
        return payload


def compare_signatures(
    name: str,
    left_label: str,
    left: VerifySignature,
    right_label: str,
    right: VerifySignature,
) -> Optional[Divergence]:
    """The first mismatch between two verify signatures, or ``None``."""
    checks = (
        ("verdict", left.verified, right.verified),
        ("error", left.error, right.error),
        ("obligation fingerprints", left.fingerprints, right.fingerprints),
        ("obligation statuses", left.statuses, right.statuses),
        ("counterexample models", left.models, right.models),
    )
    for what, left_value, right_value in checks:
        if left_value != right_value:
            return Divergence(
                program=name,
                stage="verify",
                left=left_label,
                right=right_label,
                detail=f"{what} differ between {left_label} and {right_label}",
                left_value=_jsonable(left_value),
                right_value=_jsonable(right_value),
            )
    return None


def _jsonable(value):
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return value


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class FuzzProgramRecord:
    """Per-program funnel outcome (baseline leg)."""

    name: str
    family: str
    expect_verified: bool
    lint_ok: bool = True
    lint_errors: List[str] = field(default_factory=list)
    verified: bool = False
    obligations: int = 0
    obligations_digest: str = ""
    explore_candidates: int = 0
    explore_survivors: int = 0
    divergences: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "expect_verified": self.expect_verified,
            "lint_ok": self.lint_ok,
            "lint_errors": list(self.lint_errors),
            "verified": self.verified,
            "obligations": self.obligations,
            "obligations_digest": self.obligations_digest,
            "explore_candidates": self.explore_candidates,
            "explore_survivors": self.explore_survivors,
            "divergences": self.divergences,
        }


@dataclass
class FuzzReport:
    """The structured outcome of one ``repro fuzz`` invocation."""

    seed: int
    count: int
    depth: int
    jobs: int
    samples: int
    backends: Tuple[str, ...] = ()
    verify_legs: List[str] = field(default_factory=list)
    programs: List[FuzzProgramRecord] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    #: Verdict mismatches against the family's expectation (a verified
    #: broken program, or an unverified lockstep one) — generator bugs,
    #: surfaced separately from cross-leg divergences.
    expectation_failures: List[str] = field(default_factory=list)
    #: Populated by the driver, consumed by the corpus writer; never
    #: serialized.
    generated: List[GeneratedProgram] = field(default_factory=list)
    baseline: Dict[str, VerifySignature] = field(default_factory=dict)

    @property
    def lint_failures(self) -> int:
        return sum(1 for record in self.programs if not record.lint_ok)

    @property
    def ok(self) -> bool:
        return (
            not self.divergences
            and not self.expectation_failures
            and self.lint_failures == 0
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "count": self.count,
            "depth": self.depth,
            "jobs": self.jobs,
            "samples": self.samples,
            "backends": list(self.backends),
            "verify_legs": list(self.verify_legs),
            "lint_failures": self.lint_failures,
            "divergences": [divergence.as_dict() for divergence in self.divergences],
            "expectation_failures": list(self.expectation_failures),
            "ok": self.ok,
            "programs": [record.as_dict() for record in self.programs],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz: seed {self.seed}, {self.count} programs, depth {self.depth}, "
            f"verify legs [{', '.join(self.verify_legs)}]"
        ]
        verified = sum(1 for record in self.programs if record.verified)
        lines.append(
            f"  lint: {self.count - self.lint_failures}/{self.count} clean; "
            f"verify: {verified}/{self.count} proved; "
            f"explore: {sum(r.explore_candidates for r in self.programs)} candidates, "
            f"{sum(r.explore_survivors for r in self.programs)} survivors"
        )
        for message in self.expectation_failures:
            lines.append(f"  EXPECTATION: {message}")
        for divergence in self.divergences:
            lines.append(
                f"  DIVERGENCE [{divergence.stage}] {divergence.program}: "
                f"{divergence.detail}"
            )
        lines.append("  " + ("NO DIVERGENCES" if self.ok else "DIVERGED"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Funnel legs
# ---------------------------------------------------------------------------


def verify_leg(
    generated: Sequence[GeneratedProgram],
    backend: str = BASE_BACKEND,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, VerifySignature]:
    """Batch-verify the whole corpus under one engine configuration."""
    entries = []
    for item in generated:
        program = parse_program(item.source, name=item.name)
        entries.append((item.name, program, derive_spec(program)))
    with use_backend(backend), ObligationEngine.for_batch(
        jobs=jobs, cache_dir=cache_dir
    ) as engine:
        report = verify_batch(
            program_items(entries, study="fuzz"),
            engine=engine,
            verdict_store=VerdictStore(),
        )
    return {result.name: signature_of(result) for result in report.programs}


def _leg_for_label(
    label: str, generated: Sequence[GeneratedProgram]
) -> Dict[str, VerifySignature]:
    """Re-run one named verify leg (used by divergence shrinking).

    Cache legs re-check against a *fresh* temporary directory: a cold/warm
    divergence is chased against reproducible state, not the original
    cache contents.
    """
    if label.startswith("backend="):
        spec = label[len("backend="):]
        backend, _, jobs_part = spec.partition(",jobs=")
        return verify_leg(generated, backend=backend, jobs=int(jobs_part or 1))
    if label == "cache=cold":
        return verify_leg(generated)
    if label == "cache=warm":
        with tempfile.TemporaryDirectory(prefix="repro-fuzz-reshrink-") as tmp:
            verify_leg(generated, cache_dir=tmp)
            return verify_leg(generated, cache_dir=tmp)
    raise ValueError(f"unknown verify leg {label!r}")


def _explore_once(
    item: GeneratedProgram,
    depth: int,
    samples: int,
    seed: int,
    jobs: int = 1,
    strategy: str = "exhaustive",
    beam_width: int = 8,
):
    return explore(
        generated_study(item.name, item.source),
        depth=depth,
        samples=samples,
        seed=seed,
        jobs=jobs,
        strategy=strategy,
        beam_width=beam_width,
        max_candidates=24,
    )


def _probe(item: GeneratedProgram, source: str) -> GeneratedProgram:
    """A copy of ``item`` with a candidate shrunk source substituted."""
    return GeneratedProgram(
        name=item.name,
        seed=item.seed,
        index=item.index,
        family=item.family,
        program=parse_program(source, name=item.name),
        source=source,
        planted=(),
        expect_verified=item.expect_verified,
    )


def _shrink_and_record(
    divergence: Divergence,
    item: GeneratedProgram,
    still_diverges: Callable[[str], bool],
    divergence_dir: Optional[str],
) -> Divergence:
    """Shrink the diverging program and persist a reproducer fixture."""
    from .shrink import shrink_source, write_reproducer

    try:
        divergence.shrunk_source = shrink_source(item.source, still_diverges)
    except Exception:
        # Shrinking is best-effort forensics: a shrinker crash must not
        # mask the divergence it was trying to minimize.
        divergence.shrunk_source = item.source
    if divergence_dir:
        divergence.fixture_dir = write_reproducer(divergence_dir, divergence)
    return divergence


def run_fuzz(
    seed: int = 0,
    count: int = 20,
    depth: int = 1,
    jobs: int = 1,
    samples: int = 4,
    backends: Optional[Sequence[str]] = None,
    divergence_dir: Optional[str] = None,
) -> FuzzReport:
    """Generate a corpus and drive it through the differential funnel."""
    resolved_backends = tuple(backends) if backends else available_backends()
    report = FuzzReport(
        seed=seed,
        count=count,
        depth=depth,
        jobs=jobs,
        samples=samples,
        backends=resolved_backends,
    )
    with telemetry.span("fuzz", seed=seed, count=count, depth=depth):
        generated = synthesize_corpus(seed, count)
        report.generated = generated
        records = {
            item.name: FuzzProgramRecord(
                name=item.name,
                family=item.family,
                expect_verified=item.expect_verified,
            )
            for item in generated
        }
        report.programs = [records[item.name] for item in generated]

        # Stage 1: lint — the same well-formedness gate case studies pass.
        with telemetry.span("fuzz.lint", programs=count):
            for item in generated:
                lint = lint_case_study(generated_study(item.name, item.source))
                record = records[item.name]
                record.lint_ok = lint.ok
                record.lint_errors = [
                    f"{finding.check}: {finding.message}"
                    for finding in lint.findings
                    if finding.level == "error"
                ]

        # Stage 2: verify legs + cross-leg parity.
        legs: Dict[str, Dict[str, VerifySignature]] = {}
        with telemetry.span("fuzz.verify", legs=len(resolved_backends)):
            for backend in resolved_backends:
                legs[f"backend={backend}"] = verify_leg(generated, backend=backend)
            if jobs > 1:
                legs[f"backend={BASE_BACKEND},jobs={jobs}"] = verify_leg(
                    generated, jobs=jobs
                )
            with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as tmp:
                legs["cache=cold"] = verify_leg(generated, cache_dir=tmp)
                legs["cache=warm"] = verify_leg(generated, cache_dir=tmp)
        report.verify_legs = list(legs)

        baseline_label = f"backend={BASE_BACKEND}"
        baseline = legs[baseline_label]
        report.baseline = baseline
        for item in generated:
            record = records[item.name]
            signature = baseline[item.name]
            record.verified = signature.verified
            record.obligations = len(signature.statuses)
            record.obligations_digest = obligations_digest(
                signature.fingerprints, signature.statuses
            )
            if signature.verified != item.expect_verified and not signature.error:
                report.expectation_failures.append(
                    f"{item.name} ({item.family}): expected "
                    f"verified={item.expect_verified}, got {signature.verified}"
                )

        for label, leg in legs.items():
            if label == baseline_label:
                continue
            for item in generated:
                divergence = compare_signatures(
                    item.name,
                    baseline_label,
                    baseline[item.name],
                    label,
                    leg[item.name],
                )
                if divergence is None:
                    continue
                records[item.name].divergences += 1

                def still_diverges(source, _item=item, _label=label):
                    probe = _probe(_item, source)
                    left = verify_leg([probe])
                    right = _leg_for_label(_label, [probe])
                    return (
                        compare_signatures(
                            _item.name,
                            baseline_label,
                            left[_item.name],
                            _label,
                            right[_item.name],
                        )
                        is not None
                    )

                report.divergences.append(
                    _shrink_and_record(divergence, item, still_diverges, divergence_dir)
                )

        # Stage 3: explore legs + strategy/jobs parity.
        with telemetry.span("fuzz.explore", programs=count, depth=depth):
            for index, item in enumerate(generated):
                record = records[item.name]
                explore_seed = seed + index
                exhaustive = _explore_once(item, depth, samples, explore_seed).as_dict()
                record.explore_candidates = exhaustive["candidates"]
                record.explore_survivors = exhaustive["verified_candidates"]

                beam = _explore_once(
                    item,
                    depth,
                    samples,
                    explore_seed,
                    strategy="beam",
                    beam_width=FULL_BEAM_WIDTH,
                ).as_dict()
                record.divergences += _explore_parity(
                    report, item, exhaustive, beam, divergence_dir,
                    depth, samples, explore_seed,
                )

                if jobs > 1:
                    parallel = _explore_once(
                        item, depth, samples, explore_seed, jobs=jobs
                    ).as_dict()
                    if normalized_explore_payload(parallel) != normalized_explore_payload(
                        exhaustive
                    ):
                        record.divergences += 1
                        report.divergences.append(
                            Divergence(
                                program=item.name,
                                stage="explore",
                                left="explore jobs=1",
                                right=f"explore jobs={jobs}",
                                detail="explore envelope differs across --jobs",
                                left_value=explore_signature(exhaustive),
                                right_value=explore_signature(parallel),
                            )
                        )
    return report


def _explore_parity(
    report: FuzzReport,
    item: GeneratedProgram,
    exhaustive: Dict[str, object],
    beam: Dict[str, object],
    divergence_dir: Optional[str],
    depth: int,
    samples: int,
    explore_seed: int,
) -> int:
    """Compare exhaustive vs full-width beam; record any divergence."""
    problems = []
    if beam["beam_pruned"]:
        problems.append(f"full-width beam pruned {beam['beam_pruned']} candidates")
    if explore_signature(exhaustive) != explore_signature(beam):
        problems.append("candidate signature / frontier differ")
    if not problems:
        return 0

    divergence = Divergence(
        program=item.name,
        stage="explore",
        left="strategy=exhaustive",
        right=f"strategy=beam,width={FULL_BEAM_WIDTH}",
        detail="; ".join(problems),
        left_value=explore_signature(exhaustive),
        right_value=explore_signature(beam),
    )

    def still_diverges(source, _item=item):
        probe = _probe(_item, source)
        left = _explore_once(probe, depth, samples, explore_seed).as_dict()
        right = _explore_once(
            probe,
            depth,
            samples,
            explore_seed,
            strategy="beam",
            beam_width=FULL_BEAM_WIDTH,
        ).as_dict()
        return bool(right["beam_pruned"]) or explore_signature(
            left
        ) != explore_signature(right)

    report.divergences.append(
        _shrink_and_record(divergence, item, still_diverges, divergence_dir)
    )
    return 1
