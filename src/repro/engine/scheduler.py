"""Parallel work over one long-lived process pool.

Proof obligations are independent of each other — each is a closed query
against the decision procedures — so a batch of them (from one program or
from many) can be discharged concurrently.  The scheduler fans tasks out to
a :class:`concurrent.futures.ProcessPoolExecutor`; each worker makes one
solver query for its obligation and ships back a compact, picklable
outcome (the formula IR is made of frozen dataclasses, so tasks pickle
as-is).  :meth:`DischargeScheduler.map` is the general form: the explorer
scores its survivors on the same pool.

The pool is opened lazily, on the first wave that runs in parallel, and
kept until :meth:`DischargeScheduler.close` (which
:meth:`~repro.engine.core.ObligationEngine.close` calls), so a whole
search pays for its workers once.  ``jobs=1`` (or a single task)
short-circuits to an in-process loop with no executor, which keeps
single-job runs free of multiprocessing overhead and usable from
environments where forking is undesirable.

A worker that dies mid-wave does not sink the wave: its task, and every
task still waiting on the broken pool, comes back ``UNKNOWN`` with a
``"worker died: ..."`` reason, and the broken pool is dropped so the next
wave opens a fresh one.  Neither does a task whose discharge raises — in
the solver, or while pickling it for a worker (a formula nested past the
interpreter's recursion limit): it comes back ``UNKNOWN`` with a
``"discharge raised <Type>: ..."`` reason, and the rest of the wave keeps
its verdicts.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from .. import telemetry
from ..logic.formula import Formula, Symbol
from ..solver.interface import Solver, SolverResult
from ..solver.lia import Status

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class DischargeTask:
    """One obligation to discharge: position, query and budget."""

    index: int
    formula: Formula
    kind: str  # ObligationKind value: "validity" | "satisfiability"
    budget_seconds: Optional[float] = None
    #: Human-readable provenance label ("program @ line 3, columns 5-12")
    #: recorded on the worker's discharge span — the obligation itself
    #: never crosses the process boundary, only this summary does.
    label: str = ""


@dataclass(frozen=True)
class DischargeOutcome:
    """The solver's verdict for one task, matched back by ``index``."""

    index: int
    status: Status
    model: Optional[Dict[Symbol, int]]
    reason: str
    elapsed_seconds: float
    #: The task's solver counters (picklable, so worker-process statistics
    #: survive the trip home).
    solver_stats: Optional[Dict[str, float]] = None


def _in_worker(
    fn: Callable[[T], R], task: T, collect_telemetry: bool
) -> Tuple[R, Optional[Dict[str, object]]]:
    """Run ``fn(task)`` in a worker process, with the telemetry it recorded.

    A worker has no session of its own (on fork-start platforms it holds a
    stale *copy* of the parent's, where anything recorded is lost), so when
    the parent is tracing the task records into a task-local session whose
    export travels home with the result, to be re-parented under the span
    the parent has open.
    """
    if not collect_telemetry:
        return fn(task), None
    session = telemetry.TelemetrySession()
    with telemetry.activated(session):
        result = fn(task)
    return result, session.export()


def _solve(task: DischargeTask, solver: Solver) -> SolverResult:
    if task.kind == "validity":
        return solver.check_valid(task.formula)
    return solver.check_sat(task.formula)


def _discharge_one(task: DischargeTask) -> DischargeOutcome:
    start = time.perf_counter()
    solver = Solver(budget_seconds=task.budget_seconds)
    with telemetry.span("discharge", index=task.index, kind=task.kind) as span:
        if task.label:
            span.set_attribute("provenance", task.label)
        result = _solve(task, solver)
        span.set_attribute("status", result.status.value)
    return DischargeOutcome(
        index=task.index,
        status=result.status,
        model=result.model,
        reason=result.reason,
        elapsed_seconds=time.perf_counter() - start,
        solver_stats=solver.statistics.as_dict(),
    )


def raised_reason(error: Exception) -> str:
    """The ``UNKNOWN`` reason of an obligation whose discharge raised ``error``."""
    return f"discharge raised {type(error).__name__}: {error}"


def _unknown(task: DischargeTask, reason: str) -> DischargeOutcome:
    return DischargeOutcome(
        index=task.index,
        status=Status.UNKNOWN,
        model=None,
        reason=reason,
        elapsed_seconds=0.0,
    )


def _discharge_settled(task: DischargeTask) -> DischargeOutcome:
    try:
        return _discharge_one(task)
    except Exception as error:
        return _unknown(task, raised_reason(error))


def _discharge_failed(task: DischargeTask, error: Exception) -> DischargeOutcome:
    # A dead worker breaks the pool, and a task that fails to pickle fails
    # only its own future: either way the task is settled UNKNOWN (never
    # cached) and the rest of the wave keeps its verdicts.
    if isinstance(error, BrokenProcessPool):
        return _unknown(task, f"worker died: {error}")
    return _unknown(task, raised_reason(error))


def _submit(pool: ProcessPoolExecutor, *args) -> Future:
    """``pool.submit``, except a pool broken earlier yields a failed future."""
    try:
        return pool.submit(*args)
    except BrokenProcessPool as error:
        failed: Future = Future()
        failed.set_exception(error)
        return failed


class DischargeScheduler:
    """Runs tasks either in-process or on one long-lived worker pool."""

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        self._pool: Optional[ProcessPoolExecutor] = None

    def run(self, tasks: Sequence[DischargeTask]) -> List[DischargeOutcome]:
        """Discharge every task; outcomes are returned in task order."""
        return self.map(_discharge_settled, tasks, on_error=_discharge_failed)

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        on_error: Callable[[T, Exception], R],
    ) -> List[R]:
        """``[fn(task) for task in tasks]``, on the pool when it pays.

        ``fn`` and the tasks must pickle (``fn`` by reference: a module-level
        function).  A task whose worker died, or whose future failed any
        other way, is settled in this process by ``on_error(task, error)``.
        Worker telemetry is merged under the span open at the call.
        """
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return [fn(task) for task in tasks]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        collect_telemetry = telemetry.enabled()
        futures = [
            _submit(self._pool, _in_worker, fn, task, collect_telemetry)
            for task in tasks
        ]
        results: List[R] = []
        broken = False
        for task, future in zip(tasks, futures):
            try:
                result, exported = future.result()
            except Exception as error:
                broken = broken or isinstance(error, BrokenProcessPool)
                results.append(on_error(task, error))
                continue
            if exported is not None:
                telemetry.merge_exported(exported)
            results.append(result)
        if broken:
            self.close()
        return results

    def close(self) -> None:
        """Shut the pool down and reap its workers (a no-op without one)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
