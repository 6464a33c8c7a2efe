"""``repro explore --seed`` must be ``--jobs``-invariant.

The fuzz driver pins Monte Carlo scoring end-to-end by seed; that only
works if the explore envelope — candidates, verdicts, obligations digests,
scores, Pareto frontier, reward table — is a pure function of
``(study, depth, samples, seed)`` and never of the worker count.
``--jobs`` fans obligation discharge and survivor scoring out over one
worker pool per explore; every scoring run draws from its own explicitly
seeded stream, so where a candidate is scored does not matter.  Neither
does when: with workers, obligations are prefetched as they are collected
and scores are joined only when needed, and the envelope is still the
serial one.
"""

import multiprocessing
import os

import pytest

from repro import telemetry
from repro.casestudies import all_case_studies
from repro.engine import ObligationEngine
from repro.engine import scheduler as engine_scheduler
from repro.explore import explore, scoring
from repro.fuzz import normalized_explore_payload
from repro.telemetry import TelemetrySession


@pytest.mark.parametrize("jobs", [2, 4])
def test_identical_seed_identical_envelope_across_jobs(jobs):
    serial = explore(
        "sum-reduction-perforation", depth=1, samples=4, seed=7, jobs=1
    ).as_dict()
    parallel = explore(
        "sum-reduction-perforation", depth=1, samples=4, seed=7, jobs=jobs
    ).as_dict()
    assert normalized_explore_payload(serial) == normalized_explore_payload(parallel)


@pytest.mark.parametrize("strategy", ["exhaustive", "beam"])
@pytest.mark.parametrize("study", [case.name for case in all_case_studies()])
def test_depth2_envelope_is_the_serial_one_with_workers(study, strategy):
    runs = [
        explore(study, depth=2, samples=2, seed=5, jobs=jobs, strategy=strategy,
                beam_width=2).as_dict()
        for jobs in (1, 2)
    ]
    assert normalized_explore_payload(runs[0]) == normalized_explore_payload(runs[1])


@pytest.fixture
def opened_pools(monkeypatch):
    """Every worker pool the scheduler opens, in order."""
    opened = []

    class CountingPool(engine_scheduler.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(engine_scheduler, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.mark.parametrize(
    "study, depth", [("lu-approximate-memory", 2), ("bnb-early-exit", 1)]
)
def test_one_pool_gates_and_scores_with_the_serial_envelope(study, depth, opened_pools):
    before = set(multiprocessing.active_children())
    serial = explore(study, depth=depth, samples=4, seed=3, jobs=1).as_dict()
    assert opened_pools == []
    with telemetry.activated(TelemetrySession()) as session:
        parallel = explore(study, depth=depth, samples=4, seed=3, jobs=2).as_dict()
    assert len(opened_pools) == 1
    # The pool was shut down, and its workers reaped, before explore returned.
    assert set(multiprocessing.active_children()) <= before
    scored = [row for row in parallel["results"] if row["verified"]]
    assert len(scored) > 2
    assert all(row["score"] is not None for row in scored)
    # Survivors were scored in the workers, whose spans and counters came
    # home under explore.score.
    by_id = {record.span_id: record for record in session.records}
    worker_scores = [
        record for record in session.records
        if record.name == "score" and record.pid != os.getpid()
    ]
    assert worker_scores
    assert {by_id[record.parent_id].name for record in worker_scores} == {"explore.score"}
    assert len([r for r in session.records if r.name == "score"]) == len(scored)
    assert session.counters["explore.samples"] == sum(
        row["score"]["samples"] for row in scored
    )
    assert normalized_explore_payload(serial) == normalized_explore_payload(parallel)


_REAL_SCORE = scoring.score_candidate
_PARENT = os.getpid()


def _score_or_die_in_a_worker(*args, **kwargs):
    if os.getpid() != _PARENT:
        os._exit(1)
    return _REAL_SCORE(*args, **kwargs)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying scorer is patched in before the pool forks",
)
def test_survivors_whose_scoring_worker_died_are_scored_in_process(
    monkeypatch, opened_pools
):
    serial = explore("sum-reduction-perforation", depth=2, samples=4, seed=7)
    monkeypatch.setattr(scoring, "score_candidate", _score_or_die_in_a_worker)
    parallel = explore("sum-reduction-perforation", depth=2, samples=4, seed=7, jobs=2)
    # Survivors broke the first pool, so a second was opened: a broken pool
    # is replaced, never reused.
    assert len(opened_pools) >= 2
    assert normalized_explore_payload(parallel.as_dict()) == normalized_explore_payload(
        serial.as_dict()
    )


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying scorer is patched in before the pool forks",
)
def test_a_dying_scorer_does_not_settle_prefetched_obligations(monkeypatch, opened_pools):
    serial = explore("lu-approximate-memory", depth=2, samples=4, seed=7)
    reasons = []
    discharge_all = ObligationEngine.discharge_all

    def recording_discharge_all(self, *args, **kwargs):
        results = discharge_all(self, *args, **kwargs)
        reasons.extend(result.reason for result in results)
        return results

    monkeypatch.setattr(ObligationEngine, "discharge_all", recording_discharge_all)
    monkeypatch.setattr(scoring, "score_candidate", _score_or_die_in_a_worker)
    parallel = explore("lu-approximate-memory", depth=2, samples=4, seed=7, jobs=2)
    # Scores share the pool's queue with the next generations' prefetched
    # discharges; those that a dying scorer lost were run again.
    assert reasons
    assert not [reason for reason in reasons if reason.startswith("worker died")]
    assert len(opened_pools) >= 2
    assert normalized_explore_payload(parallel.as_dict()) == normalized_explore_payload(
        serial.as_dict()
    )


def test_different_seeds_may_change_scores_but_not_candidates():
    a = explore("sum-reduction-perforation", depth=1, samples=4, seed=1).as_dict()
    b = explore("sum-reduction-perforation", depth=1, samples=4, seed=2).as_dict()
    # The candidate space and verdicts are seed-independent; only the
    # Monte Carlo scores (and hence the frontier) may move.
    assert [row["fingerprint"] for row in a["results"]] == [
        row["fingerprint"] for row in b["results"]
    ]
    assert [row["verified"] for row in a["results"]] == [
        row["verified"] for row in b["results"]
    ]
