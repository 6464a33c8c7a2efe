"""The counter sections of the JSON envelopes, pinned value by value.

``verify-batch`` and ``explore`` report an ``engine``, a ``solver`` and a
``cache`` section, and ``explore`` an ``incremental`` one too.  This file
pins every counter of those sections, for a cold and a warm studies batch
against one cache directory and for ``explore("lu", depth=2)`` under both
strategies at one and two workers.  Only the wall-clock ``total_seconds``
is left out.

The pins compare JSON text, so they hold the value types as well: the
engine, cache and incremental values are floats, the solver's counters
are the integers it keeps.
"""

import json

import pytest

from repro.engine import case_study_items, verify_batch
from repro.explore import explore

_BATCH_SOLVER = {
    "cold": {
        "sat_queries": 73, "validity_queries": 66, "cube_count": 3870,
        "cooper_eliminations": 0, "bounded_fallbacks": 0, "unknown_results": 0,
        "prefiltered_cubes": 2773,
    },
    "warm": {
        "sat_queries": 0, "validity_queries": 0, "cube_count": 0,
        "cooper_eliminations": 0, "bounded_fallbacks": 0, "unknown_results": 0,
        "prefiltered_cubes": 0,
    },
}

BATCH = {
    "cold": {
        "engine": {
            "obligations": 99.0, "cache_hits": 0.0, "cache_misses": 73.0,
            "dedup_hits": 26.0, "incremental_reused": 0.0, "delta_obligations": 0.0,
            "solver_calls": 73.0, "premise_cache_hits": 0.0,
            "premise_solver_calls": 6.0, "parallel_batches": 0.0, "prefetched": 0.0,
            "prefetch_unused": 0.0, "unknown_results": 0.0,
        },
        "solver": _BATCH_SOLVER["cold"],
        "cache": {
            "entries": 79.0, "hits": 0.0, "misses": 73.0, "stores": 79.0,
            "hit_rate": 0.0,
        },
    },
    "warm": {
        "engine": {
            "obligations": 99.0, "cache_hits": 99.0, "cache_misses": 0.0,
            "dedup_hits": 0.0, "incremental_reused": 0.0, "delta_obligations": 0.0,
            "solver_calls": 0.0, "premise_cache_hits": 6.0,
            "premise_solver_calls": 0.0, "parallel_batches": 0.0, "prefetched": 0.0,
            "prefetch_unused": 0.0, "unknown_results": 0.0,
        },
        "solver": _BATCH_SOLVER["warm"],
        "cache": {
            "entries": 79.0, "hits": 99.0, "misses": 0.0, "stores": 0.0,
            "hit_rate": 1.0,
        },
    },
}

#: ``explore("lu", depth=2)`` with one worker; the beam is 2 wide.
EXPLORE = {
    "exhaustive": {
        "engine": {
            "obligations": 117.0, "cache_hits": 0.0, "cache_misses": 88.0,
            "dedup_hits": 29.0, "incremental_reused": 290.0,
            "delta_obligations": 117.0, "solver_calls": 88.0,
            "premise_cache_hits": 56.0, "premise_solver_calls": 8.0,
            "parallel_batches": 0.0, "prefetched": 0.0, "prefetch_unused": 0.0,
            "unknown_results": 0.0,
        },
        "solver": {
            "sat_queries": 88, "validity_queries": 70, "cube_count": 1014,
            "cooper_eliminations": 0, "bounded_fallbacks": 0, "unknown_results": 0,
            "prefiltered_cubes": 121,
        },
        "cache": {
            "entries": 96.0, "hits": 0.0, "misses": 88.0, "stores": 96.0,
            "hit_rate": 0.0,
        },
        "incremental": {
            "reused": 290.0, "delta_obligations": 117.0, "total_obligations": 407.0,
            "reuse_rate": 0.7125307125307125, "store_entries": 88.0,
        },
    },
    "beam": {
        "engine": {
            "obligations": 68.0, "cache_hits": 0.0, "cache_misses": 57.0,
            "dedup_hits": 11.0, "incremental_reused": 169.0,
            "delta_obligations": 68.0, "solver_calls": 57.0,
            "premise_cache_hits": 30.0, "premise_solver_calls": 8.0,
            "parallel_batches": 0.0, "prefetched": 0.0, "prefetch_unused": 0.0,
            "unknown_results": 0.0,
        },
        "solver": {
            "sat_queries": 57, "validity_queries": 47, "cube_count": 762,
            "cooper_eliminations": 0, "bounded_fallbacks": 0, "unknown_results": 0,
            "prefiltered_cubes": 95,
        },
        "cache": {
            "entries": 65.0, "hits": 0.0, "misses": 57.0, "stores": 65.0,
            "hit_rate": 0.0,
        },
        "incremental": {
            "reused": 169.0, "delta_obligations": 68.0, "total_obligations": 237.0,
            "reuse_rate": 0.7130801687763713, "store_entries": 57.0,
        },
    },
}

#: What two workers change: three waves go to the pool, and every solved
#: obligation is prefetched.  Nothing else moves.
TWO_WORKERS = {
    "exhaustive": {"parallel_batches": 3.0, "prefetched": 88.0},
    "beam": {"parallel_batches": 3.0, "prefetched": 57.0},
}


def _sections(report, *names):
    """The named sections of ``report``'s payload, without wall-clock time."""
    payload = report.as_dict()
    return json.dumps(
        {
            name: {key: value for key, value in payload[name].items()
                   if key != "total_seconds"}
            for name in names
        },
        sort_keys=True,
    )


def test_studies_batch_cold_then_warm(tmp_path):
    for phase in ("cold", "warm"):
        report = verify_batch(case_study_items(), cache_dir=str(tmp_path))
        assert _sections(report, "engine", "solver", "cache") == json.dumps(
            BATCH[phase], sort_keys=True
        ), phase


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("strategy", sorted(EXPLORE))
def test_lu_depth2_explore(strategy, jobs):
    report = explore("lu", depth=2, jobs=jobs, strategy=strategy, beam_width=2)
    expected = dict(EXPLORE[strategy])
    if jobs == 2:
        expected["engine"] = dict(expected["engine"], **TWO_WORKERS[strategy])
    assert _sections(report, "engine", "solver", "cache", "incremental") == json.dumps(
        expected, sort_keys=True
    )
