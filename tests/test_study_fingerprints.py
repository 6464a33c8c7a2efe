"""The registered studies' obligations, pinned by fingerprint and verdict.

Each study's digest is the sha256 prefix of its sorted
``fingerprint:status`` lines, one per discharged obligation, exactly as
the benchmark's ``verify-studies`` workload computes it; the expected
digests are read from ``perfbench/expected.json``.  A refactor that
changes any obligation's formula or verdict changes its study's digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import case_study_items, fingerprint, verify_batch

EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)["verify-studies"]


@pytest.fixture(scope="module")
def batch_report():
    return verify_batch(case_study_items())


def _digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:16]


def test_every_study_is_pinned(batch_report):
    assert sorted(result.name for result in batch_report.programs) == sorted(
        EXPECTED["studies"]
    )


def test_obligation_count(batch_report):
    total = sum(
        len(layer.results)
        for result in batch_report.programs
        for layer in (result.report.original, result.report.relaxed)
    )
    assert total == EXPECTED["obligations"]


@pytest.mark.parametrize("name", sorted(EXPECTED["studies"]))
def test_fingerprint_digest(batch_report, name):
    (result,) = [result for result in batch_report.programs if result.name == name]
    lines = sorted(
        f"{fingerprint(item.obligation.formula, item.obligation.kind.value)}:"
        f"{item.status.value}"
        for layer in (result.report.original, result.report.relaxed)
        for item in layer.results
    )
    assert _digest(lines) == EXPECTED["studies"][name]
