"""Collection is a pure function of the program: a warm rewrite memo changes nothing.

Capture-avoiding rewriting (``substitute``, ``rename_arrays`` and the
retagging built on them) keeps its results across calls, so a candidate
collected after its siblings reuses their rewritten sub-formulas.  This
differential test pins that the reuse is invisible: for every depth-2
candidate of every registered study, ``AcceptabilityVerifier.collect``
returns the very same obligations (formulas by identity, order, kind,
system, rule, description and provenance) whether the memo was cleared
before the candidate or left warm by everything collected before it.  One
engine serves both passes, so the convergence premises of the second pass
come from its cache.
"""

import pytest

from casestudy_ids import study_id

from repro.casestudies import all_case_studies
from repro.engine.core import ObligationEngine
from repro.explore.candidates import enumerate_candidates
from repro.hoare.verifier import AcceptabilityVerifier
from repro.logic import subst


def obligation_rows(collected):
    return [
        (
            obligation.formula,
            obligation.kind,
            obligation.system,
            obligation.rule,
            obligation.description,
            obligation.statement,
            obligation.provenance,
        )
        for obligation in collected.obligations
    ]


def collect_all(verifier, case, candidates, fresh):
    rows = []
    for candidate in candidates:
        if fresh:
            subst.clear_rewrite_memo()
        spec = case.acceptability_spec(candidate.program)
        collected = verifier.collect(
            candidate.program, spec, study=case.name, sites=candidate.site_ids
        )
        rows.append(
            (
                obligation_rows(collected),
                collected.original.errors + collected.relaxed.errors,
                collected.diverged,
            )
        )
    return rows


@pytest.mark.parametrize("case", all_case_studies(), ids=study_id)
def test_warm_memo_collects_the_same_obligations(case):
    candidates = enumerate_candidates(
        case.build_program(), case.relaxation_sites, depth=2
    ).candidates
    assert len(candidates) > 1
    with ObligationEngine() as engine:
        verifier = AcceptabilityVerifier(engine=engine)
        fresh = collect_all(verifier, case, candidates, fresh=True)
        warm = collect_all(verifier, case, candidates, fresh=False)
    assert len(fresh) == len(warm) == len(candidates)
    for candidate, cold_row, warm_row in zip(candidates, fresh, warm):
        cold_obligations, cold_errors, cold_diverged = cold_row
        warm_obligations, warm_errors, warm_diverged = warm_row
        assert len(warm_obligations) == len(cold_obligations), candidate.name
        for cold_ob, warm_ob in zip(cold_obligations, warm_obligations):
            assert warm_ob[0] is cold_ob[0], (candidate.name, warm_ob[3])
            assert warm_ob[1:] == cold_ob[1:], candidate.name
        assert warm_errors == cold_errors, candidate.name
        assert warm_diverged == cold_diverged, candidate.name
