"""Every rejected depth-1 candidate's ``repro explain`` report, pinned by digest.

No benchmark workload reaches the forensics, so this table is what keeps a
change to the solver, the counterexample re-check or the atom table from
moving an explanation unnoticed.  Each entry is a study and one relaxation
site whose transformed program fails to verify; the digest is the sha256
prefix of ``explain_case_study(study, [site]).as_dict()``, which carries no
timings.  It covers every diagnostic's verdict, model, atom values, check
method and excerpt, and holds across ``PYTHONHASHSEED`` values.

``stencil-approx-memory``'s two ``perforate:i`` sites are left out: their
re-checks spend seconds in Cooper elimination.
"""

import hashlib
import json

import pytest

from repro.diagnostics.explain import explain_case_study

REJECTED_DEPTH1_DIGESTS = {
    ("swish-dynamic-knobs", "perforate:num_r@L0:s2"): "1806022c23aa1676",
    ("swish-dynamic-knobs", "perforate:num_r@L0:s4"): "5d16b769fa9ef15b",
    ("swish-dynamic-knobs", "knob:N:f1"): "06cc96af08e0dd6a",
    ("water-parallelization", "perforate:K@L0:s2"): "0cb3af2d62542c9e",
    ("water-parallelization", "perforate:K@L0:s4"): "9e9f5fc853c4f8bc",
    ("water-parallelization", "knob:N:f1"): "69dca3beaa0a6337",
    ("lu-approximate-memory", "perforate:i@L0:s2"): "cb8ed5014fcd3806",
    ("lu-approximate-memory", "perforate:i@L0:s4"): "fff8082de35c4a7b",
    ("lu-approximate-memory", "knob:N:f1"): "cc85f78ece9c5b30",
    ("sum-reduction-perforation", "perforate:i@L0:s2"): "3ede0abe27e29fab",
    ("sum-reduction-perforation", "perforate:i@L0:s4"): "d8a4c7cf642c3735",
    ("sum-reduction-perforation", "knob:N:f1"): "7bf702a55a3be0d4",
    ("bnb-early-exit", "perforate:i@L0:s2"): "14e95fe5757200a6",
    ("bnb-early-exit", "perforate:i@L0:s4"): "b029647f894ba096",
    ("stencil-approx-memory", "knob:N:f1"): "dfee321401a60044",
    ("pipeline-two-knobs", "perforate:n1@L0:s2"): "d9c09ec81c95b689",
    ("pipeline-two-knobs", "perforate:n1@L0:s4"): "927f16fbabd24516",
    ("pipeline-two-knobs", "perforate:n2@L1:s2"): "218a0230309a5eab",
    ("pipeline-two-knobs", "perforate:n2@L1:s4"): "776403ee0d260bf4",
    ("pipeline-two-knobs", "knob:N1:f1"): "654a77c4913cc507",
    ("pipeline-two-knobs", "knob:N2:f1"): "608fcabba69ea465",
}


@pytest.mark.parametrize("study, site", sorted(REJECTED_DEPTH1_DIGESTS), ids=str)
def test_rejected_depth1_explain_digest(study, site):
    report = explain_case_study(study, [site])
    assert not report.verified
    text = json.dumps(report.as_dict(), sort_keys=True, default=str)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == REJECTED_DEPTH1_DIGESTS[(study, site)]
