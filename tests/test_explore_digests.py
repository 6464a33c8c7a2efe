"""Every registered study's explore report, pinned by digest.

The digest is the sha256 prefix of the normalized explore payload
(``normalized_explore_payload`` drops the machine-dependent sections), so
it covers every candidate's verdict, obligation digest, score and Pareto
flag.  A change to the interpreter, the choosers or the scoring that moves
any score changes its study's digest.  The table holds across
``PYTHONHASHSEED`` values.

The second table pins the same payload without the fields that depend on
the printed program text: each result's ``fingerprint`` and ``parent``
(hashes of the candidate's printed form) and each failure's ``location``
(a line number into it).  It holds across changes to the concrete syntax
that keep every verdict, obligation and score.
"""

import hashlib
import json

import pytest

from repro.explore import explore
from repro.fuzz.funnel import normalized_explore_payload

DEPTH1_DIGESTS = {
    "swish-dynamic-knobs": "b39f5d38c4a7f09c",
    "water-parallelization": "70a6bb836cb6ef2b",
    "lu-approximate-memory": "b5d8c2107ee28179",
    "sum-reduction-perforation": "160eb8cb29894cc3",
    "bnb-early-exit": "bd4c9c5792be2a29",
    "stencil-approx-memory": "d05e350962dde386",
    "pipeline-two-knobs": "a2e64f2877a0de7f",
}

LU_DEPTH3_JOBS2_DIGEST = "cf94cbb904885c03"

DEPTH1_STABLE_DIGESTS = {
    "swish-dynamic-knobs": "e0e8654d47f0afea",
    "water-parallelization": "b1bb18f770dba929",
    "lu-approximate-memory": "0874cd6150333505",
    "sum-reduction-perforation": "fe86c649367790b1",
    "bnb-early-exit": "1b0cf305bab7db95",
    "stencil-approx-memory": "1c8007987856e22c",
    "pipeline-two-knobs": "8700a4f5f0412049",
}

LU_DEPTH3_JOBS2_STABLE_DIGEST = "364d87425e26f374"

#: The engine counters of the LU depth-3 run with two workers, which
#: prefetching must not move: speculation never decides what is solved.
LU_DEPTH3_JOBS2_ENGINE = {
    "obligations": 138,
    "cache_misses": 106,
    "dedup_hits": 32,
    "incremental_reused": 483,
    "solver_calls": 106,
    "premise_cache_hits": 88,
    "premise_solver_calls": 8,
    "parallel_batches": 4,
}


def _hash(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digest(report) -> str:
    return _hash(normalized_explore_payload(report.as_dict()))


def _stable_digest(report) -> str:
    payload = normalized_explore_payload(report.as_dict())
    results = []
    for result in payload["results"]:
        result = {
            key: value
            for key, value in result.items()
            if key not in ("fingerprint", "parent")
        }
        if "failures" in result:
            result["failures"] = [
                {key: value for key, value in failure.items() if key != "location"}
                for failure in result["failures"]
            ]
        results.append(result)
    return _hash(dict(payload, results=results))


@pytest.fixture(scope="module")
def depth1_reports():
    return {}


def _depth1(reports, name):
    if name not in reports:
        reports[name] = explore(name, depth=1, seed=1)
    return reports[name]


@pytest.fixture(scope="module")
def lu_depth3_report():
    return explore("lu-approximate-memory", depth=3, seed=1, jobs=2)


@pytest.mark.parametrize("name", sorted(DEPTH1_DIGESTS))
def test_depth1_explore_digest(depth1_reports, name):
    assert _digest(_depth1(depth1_reports, name)) == DEPTH1_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(DEPTH1_STABLE_DIGESTS))
def test_depth1_explore_stable_digest(depth1_reports, name):
    report = _depth1(depth1_reports, name)
    assert _stable_digest(report) == DEPTH1_STABLE_DIGESTS[name]


def test_lu_depth3_two_workers_digest(lu_depth3_report):
    assert _digest(lu_depth3_report) == LU_DEPTH3_JOBS2_DIGEST


def test_lu_depth3_two_workers_stable_digest(lu_depth3_report):
    assert _stable_digest(lu_depth3_report) == LU_DEPTH3_JOBS2_STABLE_DIGEST


def test_lu_depth3_two_workers_engine_counters(lu_depth3_report):
    engine = lu_depth3_report.engine_stats
    assert {key: engine[key] for key in LU_DEPTH3_JOBS2_ENGINE} == LU_DEPTH3_JOBS2_ENGINE
    # Every solved obligation was prefetched as it was collected, and
    # booking used every prefetch.
    assert engine["prefetched"] == engine["solver_calls"]
    assert engine["prefetch_unused"] == 0
