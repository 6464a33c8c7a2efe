"""Tests for the obligation engine: single query, scheduler, caching, parity.

The key invariants:

* every obligation takes one path — fingerprint once, session store,
  in-wave dedup, cache, one solver query — whether or not the caller
  built an engine, and that query answers exactly as a bare solver does;
* cache hits replay the original verdict without any solver call, and
  ``UNKNOWN`` never enters the cache (budget exhaustion cannot masquerade
  as a proof), nor does a persistent store written under other solver
  semantics;
* parallel discharge produces verdicts identical to in-process discharge,
  and a dead worker, or a discharge that raises, settles its task
  ``UNKNOWN`` instead of raising.
"""

import multiprocessing
import os
import sys

import pytest

from repro import telemetry
from repro.engine import VerdictStore, case_study_items, verify_batch
from repro.engine import scheduler as engine_scheduler
from repro.engine.core import ObligationEngine
from repro.engine.fingerprint import fingerprint
from repro.engine.scheduler import DischargeScheduler, DischargeTask
from repro.hoare.obligations import (
    ObligationCollector,
    ObligationKind,
    ObligationResult,
    ProofSystem,
    discharge,
)
from repro.hoare.unary import prove_original
from repro.lang import builder as b
from repro.logic.formula import conj, eq, exists, ge, gt, implies, le, lt, sym, var
from repro.solver import interface as solver_interface
from repro.solver.interface import Solver
from repro.solver.lia import Status
from repro.telemetry import TelemetrySession


def _collector(*entries):
    collector = ObligationCollector(ProofSystem.ORIGINAL)
    for index, (formula, kind) in enumerate(entries):
        collector.add(formula, kind, rule=f"rule{index}", description=f"obligation {index}")
    return collector


VALID_FORMULA = implies(gt(var("x"), 2), gt(var("x"), 1))
INVALID_FORMULA = implies(gt(var("x"), 1), gt(var("x"), 2))
SAT_FORMULA = conj(ge(var("x"), 0), le(var("x"), 10))
UNSAT_FORMULA = conj(gt(var("x"), 5), lt(var("x"), 3))


#: Non-linear: no complete procedure settles it and the bounded fallback
#: finds no integer root, so the default solver answers UNKNOWN.
UNKNOWABLE_FORMULA = eq(var("x") * var("x"), 2)


@pytest.mark.parametrize(
    "formula, kind",
    [
        (VALID_FORMULA, ObligationKind.VALIDITY),
        (INVALID_FORMULA, ObligationKind.VALIDITY),
        (SAT_FORMULA, ObligationKind.SATISFIABILITY),
        (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
        (UNKNOWABLE_FORMULA, ObligationKind.SATISFIABILITY),
    ],
    ids=["valid", "invalid", "sat", "unsat", "unknown"],
)
def test_engine_answers_as_a_bare_solver(formula, kind):
    if kind is ObligationKind.VALIDITY:
        expected = Solver().check_valid(formula)
    else:
        expected = Solver().check_sat(formula)
    engine = ObligationEngine()
    (result,) = engine.discharge_all(_collector((formula, kind)).obligations)
    assert result.status is expected.status
    assert result.counterexample == expected.model
    assert result.reason == expected.reason
    assert engine.statistics.solver_calls == 1


class TestScheduler:
    def _tasks(self):
        return [
            DischargeTask(0, VALID_FORMULA, "validity"),
            DischargeTask(1, UNSAT_FORMULA, "satisfiability"),
            DischargeTask(2, SAT_FORMULA, "satisfiability"),
            DischargeTask(3, INVALID_FORMULA, "validity"),
        ]

    def test_serial_run(self):
        outcomes = DischargeScheduler(jobs=1).run(self._tasks())
        assert [outcome.status for outcome in outcomes] == [
            Status.VALID,
            Status.UNSAT,
            Status.SAT,
            Status.INVALID,
        ]

    def test_parallel_matches_serial(self):
        serial = DischargeScheduler(jobs=1).run(self._tasks())
        parallel = DischargeScheduler(jobs=2).run(self._tasks())
        assert [o.status for o in serial] == [o.status for o in parallel]
        assert [o.index for o in parallel] == [0, 1, 2, 3]

    def test_counterexample_models_survive_the_pool(self):
        outcomes = DischargeScheduler(jobs=2).run(
            [
                DischargeTask(0, INVALID_FORMULA, "validity"),
                DischargeTask(1, SAT_FORMULA, "satisfiability"),
            ]
        )
        assert outcomes[0].model is not None
        assert outcomes[1].model is not None

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            DischargeScheduler(jobs=0)

    def test_outcomes_carry_solver_statistics(self):
        for jobs in (1, 2):
            outcomes = DischargeScheduler(jobs=jobs).run(self._tasks())
            for outcome in outcomes:
                assert outcome.solver_stats is not None
                assert outcome.solver_stats["sat_queries"] >= 1


def _exit_on_unsat_task(task, solver):
    """The scheduler's per-task solve, except the worker dies on the UNSAT task."""
    if task.formula is UNSAT_FORMULA:
        os._exit(1)
    return _REAL_SOLVE(task, solver)


_REAL_SOLVE = engine_scheduler._solve


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying worker is patched in before the pool forks",
)
class TestWorkerDeath:
    def test_dead_worker_settles_unknown_without_raising(self, monkeypatch):
        monkeypatch.setattr(engine_scheduler, "_solve", _exit_on_unsat_task)
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
        )
        opened = []

        class CountingPool(engine_scheduler.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_scheduler, "ProcessPoolExecutor", CountingPool)
        with ObligationEngine(jobs=2) as engine:
            results = engine.discharge_all(collector.obligations)
            assert len(results) == 2
            dead = results[1]
            assert dead.status is Status.UNKNOWN
            assert dead.reason.startswith("worker died: ")
            # Like any UNKNOWN, a dead worker's verdict is never cached.
            assert engine.cache.get(dead.fingerprint) is None
            assert engine.statistics.unknown_results >= 1
            # The broken pool was dropped: the next wave on the same engine
            # opens a fresh one and settles every task.
            assert len(opened) == 1
            again = engine.discharge_all(
                _collector(
                    (SAT_FORMULA, ObligationKind.SATISFIABILITY),
                    (INVALID_FORMULA, ObligationKind.VALIDITY),
                ).obligations
            )
            assert [result.status for result in again] == [Status.SAT, Status.INVALID]
            assert len(opened) == 2


_RECORDED = []


def _record(task):
    _RECORDED.append(task)
    return task


def test_serial_handle_runs_at_join():
    _RECORDED.clear()
    handle = DischargeScheduler(jobs=1).submit(_record, "task", on_error=None)
    assert _RECORDED == []
    assert handle.join() == "task"
    assert _RECORDED == ["task"]


def _die(_task):
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying task is defined in the test module",
)
class TestBrokenPool:
    def test_joining_a_broken_handle_replaces_the_pool(self, monkeypatch):
        opened = []

        class CountingPool(engine_scheduler.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine_scheduler, "ProcessPoolExecutor", CountingPool)
        scheduler = DischargeScheduler(jobs=2)
        try:
            dead = scheduler.submit(_die, "x", on_error=lambda task, error: "settled")
            assert dead.join() == "settled"
            assert scheduler.map(_record, ["a", "b"], on_error=None) == ["a", "b"]
            assert len(opened) == 2
        finally:
            scheduler.close()

    def test_prefetch_lost_to_another_task_is_run_again(self):
        obligations = _obligations(
            (INVALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
        )
        with ObligationEngine(jobs=2) as engine:
            # Tasks queued ahead of the prefetches kill both workers, and
            # the broken pool loses the prefetches.
            for _ in range(2):
                engine.scheduler.submit(_die, "x", on_error=lambda task, error: None)
            keys = engine.prefetch(obligations)
            results = engine.discharge_all(obligations, fingerprints=keys)
            assert [result.status for result in results] == [Status.INVALID, Status.SAT]
            assert engine.statistics.solver_calls == 2
            assert engine.statistics.unknown_results == 0


def _nested_sum(depth):
    """``x + 1 + ... + 1 >= 0`` with ``depth`` nested additions."""
    term = var("x")
    for _ in range(depth):
        term = term + 1
    return ge(term, 0)


class TestRaisingDischarge:
    """A discharge that raises settles UNKNOWN instead of sinking the wave."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scheduler_settles_a_raising_task_unknown(self, jobs):
        # 1,200 levels exceed the recursion limit both in the solver and
        # when pickling the task for a worker.
        outcomes = DischargeScheduler(jobs=jobs).run(
            [
                DischargeTask(0, _nested_sum(1200), "satisfiability"),
                DischargeTask(1, SAT_FORMULA, "satisfiability"),
            ]
        )
        assert outcomes[0].status is Status.UNKNOWN
        assert outcomes[0].reason.startswith("discharge raised RecursionError: ")
        assert outcomes[1].status is Status.SAT

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("depth", [600, 1200])
    def test_deep_obligation_does_not_sink_the_wave(self, depth, jobs):
        collector = _collector(
            (_nested_sum(depth), ObligationKind.SATISFIABILITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine(jobs=jobs)
        deep, sat, valid = engine.discharge_all(collector.obligations)
        assert sat.status is Status.SAT
        assert valid.status is Status.VALID
        if depth == 600 and jobs == 1:
            # Within the recursion limit in-process.  (Pickling 600 levels
            # for a worker may or may not fit, depending on the interpreter.)
            assert deep.status is Status.SAT
        if depth == 1200:
            assert deep.status is Status.UNKNOWN
        if deep.status is Status.UNKNOWN:
            assert deep.reason.startswith("discharge raised RecursionError: ")
            assert engine.cache.get(deep.fingerprint) is None
            assert engine.statistics.unknown_results == 1
        else:
            assert deep.status is Status.SAT


class TestSolverStatisticsAggregation:
    def test_serial_engine_aggregates_solver_counters(self):
        engine = ObligationEngine()
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        assert stats["validity_queries"] == 1
        assert stats["total_seconds"] > 0

    def test_portfolio_engine_aggregates_worker_counters(self):
        engine = ObligationEngine(jobs=2)
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
        )
        engine.discharge_all(collector.obligations)
        stats = engine.solver_statistics.as_dict()
        assert stats["sat_queries"] >= 2
        assert engine.stats()["solver"] == stats


class TestEngineSerialParity:
    def test_default_engine_matches_seed_loop(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        report = discharge(collector, "demo", engine=ObligationEngine())
        assert [result.status for result in report.results] == [
            Status.VALID,
            Status.SAT,
            Status.INVALID,
        ]
        assert not report.verified  # the INVALID obligation is undischarged
        assert report.results[2].counterexample

    def test_discharge_without_engine_settles_and_dedups(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        session = telemetry.install(TelemetrySession())
        try:
            report = discharge(collector, "demo")
        finally:
            telemetry.uninstall()
        assert [result.status for result in report.results] == [
            Status.VALID,
            Status.SAT,
            Status.INVALID,
            Status.VALID,
        ]
        model = report.results[2].counterexample
        assert model is not None
        # The counterexample refutes x > 1 => x > 2.
        assert model[sym("x")] == 2
        assert session.counters["engine.dedup.hits"] == 1

    def test_prove_original_accepts_engine(self):
        program = b.program("inc", b.assign("x", b.add(b.v("x"), 1)), variables=("x",))
        engine = ObligationEngine()
        report = prove_original(program, ge(var("x"), 0), ge(var("x"), 1), engine=engine)
        assert report.verified
        assert engine.statistics.obligations == 1


class TestEngineCaching:
    def test_cache_hit_skips_solver_and_replays_verdict(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine()
        first = engine.discharge_all(collector.obligations)
        calls_after_first = engine.statistics.solver_calls
        second = engine.discharge_all(collector.obligations)
        assert engine.statistics.solver_calls == calls_after_first  # zero new calls
        assert engine.statistics.cache_hits == 2
        assert [r.status for r in first] == [r.status for r in second]
        # The cached counterexample is replayed too.
        assert second[1].counterexample == first[1].counterexample

    def test_alpha_equivalent_obligation_hits(self):
        left = _collector((exists(sym("x"), gt(var("x"), 0)), ObligationKind.SATISFIABILITY))
        right = _collector((exists(sym("y"), gt(var("y"), 0)), ObligationKind.SATISFIABILITY))
        engine = ObligationEngine()
        engine.discharge_all(left.obligations)
        engine.discharge_all(right.obligations)
        assert engine.statistics.cache_hits == 1

    def test_unknown_is_not_cached(self):
        collector = _collector((UNKNOWABLE_FORMULA, ObligationKind.SATISFIABILITY))
        engine = ObligationEngine()
        first = engine.discharge_all(collector.obligations)
        assert first[0].status is Status.UNKNOWN
        calls = engine.statistics.solver_calls
        second = engine.discharge_all(collector.obligations)
        assert second[0].status is Status.UNKNOWN
        # The obligation was re-attempted, not answered from the cache.
        assert engine.statistics.solver_calls > calls
        assert engine.statistics.cache_hits == 0

    def test_validity_and_sat_of_same_formula_do_not_collide(self):
        collector = _collector(
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (SAT_FORMULA, ObligationKind.VALIDITY),
        )
        engine = ObligationEngine()
        results = engine.discharge_all(collector.obligations)
        assert results[0].status is Status.SAT
        # x in [0, 10] is satisfiable but certainly not valid.
        assert results[1].status is Status.INVALID
        assert engine.statistics.cache_hits == 0

    def test_persistent_cache_across_engines(self, tmp_path):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        first = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        first.discharge_all(collector.obligations)
        first.save()
        second = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        results = second.discharge_all(collector.obligations)
        assert results[0].status is Status.VALID
        assert second.statistics.solver_calls == 0
        assert second.statistics.cache_hits == 1

    def test_solver_semantics_change_discards_disk_store(self, tmp_path, monkeypatch):
        collector = _collector((VALID_FORMULA, ObligationKind.VALIDITY))
        warm = ObligationEngine(cache_dir=str(tmp_path))
        warm.discharge_all(collector.obligations)
        warm.save()
        monkeypatch.setattr(
            solver_interface, "SOLVER_SEMANTICS", solver_interface.SOLVER_SEMANTICS + 1
        )
        session = telemetry.install(TelemetrySession())
        try:
            cold = ObligationEngine(cache_dir=str(tmp_path))
            results = cold.discharge_all(collector.obligations)
        finally:
            telemetry.uninstall()
        assert results[0].status is Status.VALID
        assert cold.statistics.solver_calls > 0
        assert cold.statistics.cache_hits == 0
        assert session.counters.get("engine.cache.hits.disk", 0.0) == 0.0


class TestEngineParallel:
    def test_parallel_verdicts_match_serial(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        serial = ObligationEngine().discharge_all(collector.obligations)
        parallel = ObligationEngine(jobs=2).discharge_all(collector.obligations)
        assert [r.status for r in serial] == [r.status for r in parallel]

    def test_portfolio_path_dedupes_without_a_cache(self):
        collector = _collector(
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
            (VALID_FORMULA, ObligationKind.VALIDITY),
        )
        # In-wave dedup comes before the (still empty) cache.
        engine = ObligationEngine()
        results = engine.discharge_all(collector.obligations)
        assert [r.status for r in results] == [Status.VALID] * 3
        assert engine.statistics.solver_calls == 1
        assert engine.statistics.dedup_hits == 2

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            ObligationEngine(jobs=0)

    @pytest.mark.parametrize("budget", [0, -1.0])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(ValueError):
            ObligationEngine(budget_seconds=budget)


def _obligations(*entries):
    return _collector(*entries).obligations


class TestUnifiedPath:
    """One path from obligation to verdict: fingerprint once, store, dedup,
    cache, solver."""

    def test_batch_wave_fingerprints_each_pooled_obligation_once(self, monkeypatch):
        calls = []

        def counting_fingerprint(formula, kind):
            calls.append(kind)
            return fingerprint(formula, kind)

        # Count every caller, wherever it imported the function from.
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "fingerprint", None) is fingerprint:
                monkeypatch.setattr(module, "fingerprint", counting_fingerprint)
        # With workers the keys are computed at collection, by prefetch.
        for jobs in (1, 2):
            calls.clear()
            with ObligationEngine.for_batch(jobs=jobs) as engine:
                report = verify_batch(
                    case_study_items(["lu-approximate-memory", "sum-reduction-perforation"]),
                    engine=engine,
                    verdict_store=VerdictStore(),
                )
            pooled = sum(
                len(result.report.original.results) + len(result.report.relaxed.results)
                for result in report.programs
            )
            assert pooled > 0
            # Convergence premises take the engine's fingerprint too, once each.
            stats = engine.statistics
            premises = stats.premise_cache_hits + stats.premise_solver_calls
            assert premises > 0
            assert len(calls) == pooled + premises
            # With workers, every solved obligation was prefetched.
            assert stats.prefetched == (stats.solver_calls if jobs > 1 else 0)
            assert stats.prefetch_unused == 0

    def test_prefetch_is_speculation_that_booking_may_drop(self):
        obligations = _obligations((INVALID_FORMULA, ObligationKind.VALIDITY))
        expected = Solver().check_valid(INVALID_FORMULA)
        with ObligationEngine(jobs=2) as engine:
            keys = engine.prefetch(obligations)
            assert keys == [fingerprint(INVALID_FORMULA, "validity")]
            assert engine.statistics.prefetched == 1
            # A verdict reaches the cache between collection and booking
            # (as a convergence premise's would): booking answers from the
            # cache and drops the prefetched discharge.
            engine.cache.put(keys[0], Status.INVALID, model=expected.model)
            (result,) = engine.discharge_all(obligations, fingerprints=keys)
            assert result.status is Status.INVALID
            assert result.counterexample == expected.model
            stats = engine.statistics
            assert (stats.cache_hits, stats.solver_calls) == (1, 0)
            assert stats.prefetch_unused == 1

    def test_booking_joins_the_prefetched_discharge(self):
        obligations = _obligations(
            (INVALID_FORMULA, ObligationKind.VALIDITY),
            (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            (INVALID_FORMULA, ObligationKind.VALIDITY),
        )
        serial = ObligationEngine().discharge_all(obligations)
        with ObligationEngine(jobs=2) as engine:
            keys = engine.prefetch(obligations)
            # A second prefetch of the same keys submits nothing new.
            engine.prefetch(obligations)
            results = engine.discharge_all(obligations, fingerprints=keys)
            stats = engine.statistics
            assert (stats.prefetched, stats.solver_calls, stats.dedup_hits) == (2, 2, 1)
            assert stats.prefetch_unused == 0
        assert [(r.status, r.counterexample, r.reason) for r in results] == [
            (r.status, r.counterexample, r.reason) for r in serial
        ]

    def test_serial_prefetch_submits_nothing(self):
        engine = ObligationEngine()
        obligations = _obligations((VALID_FORMULA, ObligationKind.VALIDITY))
        keys = engine.prefetch(obligations)
        assert engine.statistics.prefetched == 0
        engine.discharge_all(obligations, fingerprints=keys)
        assert engine.statistics.solver_calls == 1

    def test_reused_plus_delta_is_pooled_with_duplicates_as_delta(self):
        engine, store = ObligationEngine(), VerdictStore()
        first = engine.discharge_all(
            _obligations(
                (VALID_FORMULA, ObligationKind.VALIDITY),
                (VALID_FORMULA, ObligationKind.VALIDITY),
                (SAT_FORMULA, ObligationKind.SATISFIABILITY),
            ),
            store=store,
        )
        # Nothing is reused within the first wave: the in-wave duplicate is
        # delta, answered by dedup.
        assert [result.reused for result in first] == [False, False, False]
        stats = engine.statistics
        assert (stats.incremental_reused, stats.delta_obligations) == (0, 3)
        assert engine.statistics.dedup_hits == 1
        second = engine.discharge_all(
            _obligations(
                (VALID_FORMULA, ObligationKind.VALIDITY),
                (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
                (UNSAT_FORMULA, ObligationKind.SATISFIABILITY),
            ),
            store=store,
        )
        assert [result.reused for result in second] == [True, False, False]
        assert (stats.incremental_reused, stats.delta_obligations) == (1, 5)
        assert len(store) == 3
        assert [result.status for result in second] == [
            Status.VALID, Status.UNSAT, Status.UNSAT,
        ]
        assert second[0].fingerprint == first[0].fingerprint

    def test_stored_unknown_replays_but_never_reaches_the_cache(self):
        obligations = _obligations((SAT_FORMULA, ObligationKind.SATISFIABILITY))
        key = fingerprint(SAT_FORMULA, ObligationKind.SATISFIABILITY.value)
        store = VerdictStore()
        store.record(
            key,
            ObligationResult(
                obligation=obligations[0], status=Status.UNKNOWN, reason="budget"
            ),
        )
        engine = ObligationEngine()
        results = engine.discharge_all(obligations, store=store)
        assert results[0].status is Status.UNKNOWN
        assert results[0].reused and results[0].reason == "budget"
        assert engine.statistics.solver_calls == 0
        assert engine.cache.get(key) is None
        assert len(engine.cache) == 0

    def test_fresh_unknown_is_stored_for_the_session_only(self):
        obligations = _obligations((UNKNOWABLE_FORMULA, ObligationKind.SATISFIABILITY))
        engine = ObligationEngine()
        store = VerdictStore()
        first = engine.discharge_all(obligations, store=store)
        assert first[0].status is Status.UNKNOWN
        assert len(engine.cache) == 0
        calls = engine.statistics.solver_calls
        second = engine.discharge_all(obligations, store=store)
        assert second[0].status is Status.UNKNOWN and second[0].reused
        assert engine.statistics.solver_calls == calls
