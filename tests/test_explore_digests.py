"""Every registered study's explore report, pinned by digest.

The digest is the sha256 prefix of the normalized explore payload
(``normalized_explore_payload`` drops the machine-dependent sections), so
it covers every candidate's verdict, obligation digest, score and Pareto
flag.  A change to the interpreter, the choosers or the scoring that moves
any score changes its study's digest.  The table holds across
``PYTHONHASHSEED`` values.
"""

import hashlib
import json

import pytest

from repro.explore import explore
from repro.fuzz.funnel import normalized_explore_payload

DEPTH1_DIGESTS = {
    "swish-dynamic-knobs": "3f4769fafb2fcb7b",
    "water-parallelization": "fb649a8992f5d4ef",
    "lu-approximate-memory": "1bcf4a3cd4c5a348",
    "sum-reduction-perforation": "7f9406da6524b630",
    "bnb-early-exit": "91761033ec1af2d8",
    "stencil-approx-memory": "9f4faa2ce54d6291",
    "pipeline-two-knobs": "cdc6650ada0d99c6",
}

LU_DEPTH3_JOBS2_DIGEST = "7e8140e228559200"


def _digest(report) -> str:
    payload = normalized_explore_payload(report.as_dict())
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(DEPTH1_DIGESTS))
def test_depth1_explore_digest(name):
    assert _digest(explore(name, depth=1, seed=1)) == DEPTH1_DIGESTS[name]


def test_lu_depth3_two_workers_digest():
    report = explore("lu-approximate-memory", depth=3, seed=1, jobs=2)
    assert _digest(report) == LU_DEPTH3_JOBS2_DIGEST
