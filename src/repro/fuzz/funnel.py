"""The fuzzing pipeline driver: lint → verify → explore, differentially.

One :func:`run_fuzz` invocation drives a whole generated corpus through the
same funnel every hand-written case study passes — and cross-examines each
layer along the way:

* **lint** — every program must pass ``casestudy lint`` (build, pretty /
  parse round-trip, declared variables, sites apply, obligations collect);
* **verify** and **explore** — each stage runs the corpus once per *leg*
  (:func:`funnel_legs`).  A leg is the stage's baseline with exactly one
  setting changed, and each program's observation under it must equal the
  baseline's field by field:

  - verify (canonical obligation fingerprints, verdict statuses,
    counterexample models and the overall verdict): a cold persistent
    cache (the baseline), a warm cache replaying the baseline's verdicts
    from disk, and ``--jobs N`` process-pool discharge;
  - explore (the whole report envelope minus timings and the engine,
    solver and cache counters):
    exhaustive search (the baseline), beam search at effectively infinite
    width, and ``--jobs N``.

Any mismatch becomes a :class:`Divergence`; the driver then shrinks the
offending program to a minimal statement sequence on which the same leg
still diverges from its baseline (:mod:`repro.fuzz.shrink`) and, when a
divergence directory is configured, writes a committed-style reproducer
fixture (source + divergence record).
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import telemetry
from ..casestudies.spec import lint_case_study
from ..engine import ObligationEngine, program_items, verify_batch
from ..explore import explore
from ..hoare.verifier import AcceptabilitySpec
from ..lang.parser import parse_program
from .generator import GeneratedProgram, generated_study, synthesize_corpus

#: Beam width that turns the beam scheduler into an exhaustive walk.
FULL_BEAM_WIDTH = 1_000_000


def obligations_digest(fingerprints: Sequence[str], statuses: Sequence[str]) -> str:
    """16-hex-char hash over (fingerprint, status) pairs in pooled order —
    the same parity currency as the explorer's per-candidate digest."""
    digest = hashlib.sha256()
    for key, status in zip(fingerprints, statuses):
        digest.update(f"{key}:{status}\n".encode("ascii"))
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Observations: the parity currency
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
    results = result.report.results if result.report is not None else []
    return VerifySignature(
        verified=result.verified,
        error=result.error,
        fingerprints=tuple(item.fingerprint for item in results),
        statuses=tuple(item.status.value for item in results),
        models=tuple(_normalize_model(item.counterexample) for item in results),
    )


#: Report sections that legitimately differ across machines / job counts;
#: everything else participates in every explore leg's equality.
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


def compare_observations(
    stage: str,
    name: str,
    left_label: str,
    left: Dict[str, object],
    right_label: str,
    right: Dict[str, object],
) -> Optional[Divergence]:
    """Every field on which two legs' observations of one program differ,
    as one :class:`Divergence`, or ``None`` when they agree."""
    fields = list(left) + [key for key in right if key not in left]
    differing = [key for key in fields if left.get(key) != right.get(key)]
    if not differing:
        return None
    return Divergence(
        program=name,
        stage=stage,
        left=left_label,
        right=right_label,
        detail=f"{', '.join(differing)} differ between {left_label} and {right_label}",
        left_value={key: left.get(key) for key in differing},
        right_value={key: right.get(key) for key in differing},
    )


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass
class FuzzProgramRecord:
    """Per-program funnel outcome (baseline legs)."""

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
    verify_legs: List[str] = field(default_factory=list)
    explore_legs: List[str] = field(default_factory=list)
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
            "verify_legs": list(self.verify_legs),
            "explore_legs": list(self.explore_legs),
            "lint_failures": self.lint_failures,
            "divergences": [divergence.as_dict() for divergence in self.divergences],
            "expectation_failures": list(self.expectation_failures),
            "ok": self.ok,
            "programs": [record.as_dict() for record in self.programs],
        }

    def summary(self) -> str:
        lines = [
            f"fuzz: seed {self.seed}, {self.count} programs, depth {self.depth}, "
            f"verify legs [{', '.join(self.verify_legs)}], "
            f"explore legs [{', '.join(self.explore_legs)}]"
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


@dataclass(frozen=True)
class Leg:
    """One named stage configuration: the baseline with one setting changed."""

    stage: str  # "verify" | "explore"
    label: str
    jobs: int = 1
    #: verify: replay the cache directory the baseline's cold run filled.
    warm: bool = False
    #: explore: the search strategy (a beam runs at :data:`FULL_BEAM_WIDTH`).
    strategy: str = "exhaustive"


def funnel_legs(jobs: int = 1) -> Dict[str, Tuple[Leg, ...]]:
    """Each stage's legs, its baseline first."""
    verify_legs = [Leg("verify", "cache=cold"), Leg("verify", "cache=warm", warm=True)]
    explore_legs = [
        Leg("explore", "strategy=exhaustive"),
        Leg("explore", f"strategy=beam,width={FULL_BEAM_WIDTH}", strategy="beam"),
    ]
    if jobs > 1:
        verify_legs.append(Leg("verify", f"jobs={jobs}", jobs=jobs))
        explore_legs.append(Leg("explore", f"jobs={jobs}", jobs=jobs))
    return {"verify": tuple(verify_legs), "explore": tuple(explore_legs)}


class _ExploreSettings(NamedTuple):
    seed: int
    depth: int
    samples: int


def verify_leg(
    generated: Sequence[GeneratedProgram],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
) -> Dict[str, VerifySignature]:
    """Batch-verify the whole corpus under one engine configuration."""
    entries = []
    for item in generated:
        program = parse_program(item.source, name=item.name)
        entries.append((item.name, program, AcceptabilitySpec.of(program)))
    with ObligationEngine.for_batch(jobs=jobs, cache_dir=cache_dir) as engine:
        report = verify_batch(program_items(entries, study="fuzz"), engine=engine)
    return {result.name: signature_of(result) for result in report.programs}


def _observe(
    leg: Leg,
    generated: Sequence[GeneratedProgram],
    settings: _ExploreSettings,
    cache_dir: str,
) -> Dict[str, object]:
    """One leg's observation of every program, by program name."""
    if leg.stage == "verify":
        return verify_leg(generated, jobs=leg.jobs, cache_dir=cache_dir)
    return {
        item.name: explore(
            generated_study(item.name, item.source),
            depth=settings.depth,
            samples=settings.samples,
            seed=settings.seed + item.index,
            jobs=leg.jobs,
            strategy=leg.strategy,
            beam_width=FULL_BEAM_WIDTH,
            max_candidates=24,
        ).as_dict()
        for item in generated
    }


def _run_stage(
    legs: Sequence[Leg],
    generated: Sequence[GeneratedProgram],
    settings: _ExploreSettings,
) -> Dict[str, Dict[str, object]]:
    """Run ``legs`` (the baseline first) over the corpus: label → name → observation.

    The baseline fills a fresh cache directory cold and a warm leg replays
    it; every other leg starts cold in a directory of its own.  (Explore
    legs run without a cache and ignore theirs.)
    """
    runs: Dict[str, Dict[str, object]] = {}
    with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as shared:
        for leg in legs:
            if leg is legs[0] or leg.warm:
                runs[leg.label] = _observe(leg, generated, settings, shared)
                continue
            with tempfile.TemporaryDirectory(prefix="repro-fuzz-cache-") as own:
                runs[leg.label] = _observe(leg, generated, settings, own)
    return runs


def _comparable(stage: str, observation) -> Dict[str, object]:
    if stage == "verify":
        return observation.as_dict()
    payload = normalized_explore_payload(observation)
    del payload["strategy"]  # the one setting a strategy leg changes
    return payload


def _leg_divergence(
    base: Leg, leg: Leg, name: str, runs: Dict[str, Dict[str, object]]
) -> Optional[Divergence]:
    """How ``leg`` diverges from its stage baseline on program ``name``."""
    return compare_observations(
        leg.stage,
        name,
        base.label,
        _comparable(leg.stage, runs[base.label][name]),
        leg.label,
        _comparable(leg.stage, runs[leg.label][name]),
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
    base: Leg,
    leg: Leg,
    settings: _ExploreSettings,
    divergence_dir: Optional[str],
) -> Divergence:
    """Shrink the diverging program and persist a reproducer fixture.

    Each probe re-runs the baseline and the diverging leg from scratch
    (fresh cache directories), so the divergence is chased against
    reproducible state rather than the original run's cache contents.
    """
    from .shrink import shrink_source, write_reproducer

    def still_diverges(source: str) -> bool:
        runs = _run_stage((base, leg), [_probe(item, source)], settings)
        return _leg_divergence(base, leg, item.name, runs) is not None

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
    divergence_dir: Optional[str] = None,
) -> FuzzReport:
    """Generate a corpus and drive it through the differential funnel."""
    legs = funnel_legs(jobs)
    settings = _ExploreSettings(seed, depth, samples)
    report = FuzzReport(
        seed=seed,
        count=count,
        depth=depth,
        jobs=jobs,
        samples=samples,
        verify_legs=[leg.label for leg in legs["verify"]],
        explore_legs=[leg.label for leg in legs["explore"]],
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

        # Stages 2 and 3: every leg of verify, then of explore.
        with telemetry.span("fuzz.verify", legs=len(legs["verify"])):
            verify_runs = _run_stage(legs["verify"], generated, settings)
        with telemetry.span("fuzz.explore", programs=count, depth=depth):
            explore_runs = _run_stage(legs["explore"], generated, settings)

        report.baseline = verify_runs[legs["verify"][0].label]
        exhaustive = explore_runs[legs["explore"][0].label]
        for item in generated:
            record = records[item.name]
            signature = report.baseline[item.name]
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
            record.explore_candidates = exhaustive[item.name]["candidates"]
            record.explore_survivors = exhaustive[item.name]["verified_candidates"]

        for stage, runs in (("verify", verify_runs), ("explore", explore_runs)):
            base, *others = legs[stage]
            for leg in others:
                for item in generated:
                    divergence = _leg_divergence(base, leg, item.name, runs)
                    if divergence is None:
                        continue
                    records[item.name].divergences += 1
                    report.divergences.append(
                        _shrink_and_record(
                            divergence, item, base, leg, settings, divergence_dir
                        )
                    )
    return report
