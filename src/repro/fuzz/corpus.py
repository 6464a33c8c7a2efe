"""The standing committed corpus: sources + fingerprints + verdicts.

``tests/corpus/`` is the fuzzing pipeline's permanent residue — a
fixed-seed generated population whose verify outcomes are committed to the
repository and re-checked **byte-identically** in CI.  Future performance
work (new backends, cache layouts, scheduler changes) must reproduce every
committed obligation fingerprint, verdict status and digest exactly; any
drift is a semantic change, not an optimisation.

Layout::

    tests/corpus/
        manifest.json            # seed, count, program names in order
        programs/<name>.rlx      # generated source, replayed from disk
        expected/<name>.json     # canonical verify outcome (sorted keys)

:func:`write_corpus` serialises a completed :class:`~repro.fuzz.funnel.FuzzReport`;
:func:`replay_corpus` re-verifies the committed sources from scratch,
re-serialises the outcome with the same canonical encoder, and compares
*bytes* against the committed files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from ..lang.parser import parse_program
from .funnel import (
    BASE_BACKEND,
    FuzzReport,
    VerifySignature,
    obligations_digest,
    verify_leg,
)
from .generator import GeneratedProgram

MANIFEST = "manifest.json"
PROGRAM_DIR = "programs"
EXPECTED_DIR = "expected"


def _canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _expected_payload(
    name: str,
    family: str,
    expect_verified: bool,
    signature: VerifySignature,
) -> Dict[str, object]:
    return {
        "name": name,
        "family": family,
        "expect_verified": expect_verified,
        "verified": signature.verified,
        "obligations": len(signature.statuses),
        "obligation_fingerprints": list(signature.fingerprints),
        "obligation_statuses": list(signature.statuses),
        "obligations_digest": obligations_digest(
            signature.fingerprints, signature.statuses
        ),
    }


def write_corpus(directory: str, report: FuzzReport) -> List[str]:
    """Persist a completed fuzz run as the committed corpus.

    Returns the program names written, in corpus order.  Refuses to write
    from a diverged run — the corpus is the *agreed* baseline, and caching
    one leg of a divergence would enshrine the wrong answer.
    """
    if not report.ok:
        raise ValueError(
            "refusing to write a corpus from a diverged fuzz run; "
            "resolve the divergences first"
        )
    root = Path(directory)
    (root / PROGRAM_DIR).mkdir(parents=True, exist_ok=True)
    (root / EXPECTED_DIR).mkdir(parents=True, exist_ok=True)

    names: List[str] = []
    for item in report.generated:
        signature = report.baseline[item.name]
        (root / PROGRAM_DIR / f"{item.name}.rlx").write_text(
            item.source, encoding="utf-8"
        )
        (root / EXPECTED_DIR / f"{item.name}.json").write_text(
            _canonical_json(
                _expected_payload(
                    item.name, item.family, item.expect_verified, signature
                )
            ),
            encoding="utf-8",
        )
        names.append(item.name)

    (root / MANIFEST).write_text(
        _canonical_json(
            {
                "generator": "repro fuzz",
                "seed": report.seed,
                "count": report.count,
                "backend": BASE_BACKEND,
                "programs": names,
            }
        ),
        encoding="utf-8",
    )
    return names


@dataclass
class CorpusMismatch:
    """One program whose replay bytes differ from the committed bytes."""

    name: str
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"name": self.name, "detail": self.detail}


@dataclass
class CorpusReplayReport:
    """The outcome of one byte-identical corpus replay."""

    directory: str
    programs: int = 0
    mismatches: List[CorpusMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.programs > 0 and not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "directory": self.directory,
            "programs": self.programs,
            "ok": self.ok,
            "mismatches": [mismatch.as_dict() for mismatch in self.mismatches],
        }

    def summary(self) -> str:
        if self.ok:
            return (
                f"corpus replay: {self.programs} programs byte-identical "
                f"({self.directory})"
            )
        lines = [
            f"corpus replay: {len(self.mismatches)} of {self.programs} "
            f"programs DIVERGED ({self.directory})"
        ]
        for mismatch in self.mismatches:
            lines.append(f"  {mismatch.name}: {mismatch.detail}")
        return "\n".join(lines)


def _diff_fields(committed: Dict[str, object], replayed: Dict[str, object]) -> str:
    different = sorted(
        key
        for key in set(committed) | set(replayed)
        if committed.get(key) != replayed.get(key)
    )
    return f"fields differ: {', '.join(different)}"


def replay_corpus(directory: str) -> CorpusReplayReport:
    """Re-verify every committed program and byte-compare the outcomes.

    The committed sources are rebuilt into generated case studies (spec
    read from each source's own clauses), batch-verified in one pooled
    wave on the corpus's recorded baseline backend, and each outcome is
    re-serialised with the canonical encoder.  Equality is asserted on the
    serialised *bytes*: field order, indentation and every fingerprint,
    status and digest must match the committed file exactly.
    """
    root = Path(directory)
    report = CorpusReplayReport(directory=str(root))
    manifest = json.loads((root / MANIFEST).read_text(encoding="utf-8"))

    generated: List[GeneratedProgram] = []
    committed: Dict[str, Dict[str, object]] = {}
    committed_bytes: Dict[str, str] = {}
    for name in manifest["programs"]:
        source = (root / PROGRAM_DIR / f"{name}.rlx").read_text(encoding="utf-8")
        raw = (root / EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8")
        expected = json.loads(raw)
        committed[name] = expected
        committed_bytes[name] = raw
        generated.append(
            GeneratedProgram(
                name=name,
                seed=manifest["seed"],
                index=len(generated),
                family=expected["family"],
                program=parse_program(source, name=name),
                source=source,
                expect_verified=expected["expect_verified"],
            )
        )
    report.programs = len(generated)

    signatures = verify_leg(generated, backend=manifest.get("backend", BASE_BACKEND))
    for item in generated:
        replayed = _expected_payload(
            item.name, item.family, item.expect_verified, signatures[item.name]
        )
        replayed_bytes = _canonical_json(replayed)
        if replayed_bytes != committed_bytes[item.name]:
            report.mismatches.append(
                CorpusMismatch(
                    name=item.name,
                    detail=_diff_fields(committed[item.name], replayed),
                )
            )
    return report
