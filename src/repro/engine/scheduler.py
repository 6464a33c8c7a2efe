"""Parallel work over one long-lived process pool.

Proof obligations are independent of each other — each is a closed query
against the decision procedures — so a batch of them (from one program or
from many) can be discharged concurrently.  The scheduler fans tasks out to
a :class:`concurrent.futures.ProcessPoolExecutor`; each worker makes one
solver query for its obligation and ships back a compact, picklable
outcome (the formula IR is made of frozen dataclasses, so tasks pickle
as-is).

:meth:`DischargeScheduler.submit` is the one primitive: it starts a task
and returns a :class:`JoinHandle`, which the caller joins when it needs
the result.  That lets the parent keep working while the workers run —
the engine submits an obligation as soon as it is collected, and the
explorer scores survivors while it gates the next generation.
:meth:`~DischargeScheduler.map` and :meth:`~DischargeScheduler.run` submit
every task and then join them in order.

The pool is opened lazily, on the first submission with ``jobs > 1``, and
kept until :meth:`DischargeScheduler.close` (which
:meth:`~repro.engine.core.ObligationEngine.close` calls), so a whole
search pays for its workers once.  With ``jobs=1`` a handle runs its task
in-process when it is joined, with no executor, which keeps single-job
runs free of multiprocessing overhead and usable from environments where
forking is undesirable.

A worker that dies does not sink the run: its task, and every task still
waiting on the broken pool, is settled in the parent by the ``on_error``
it was submitted with (a discharge comes back ``UNKNOWN`` with a
``"worker died: ..."`` reason), and joining such a handle closes the
broken pool, so the next submission opens a fresh one.  A broken pool is
never reused.  Neither does a task whose discharge raises — in the
solver, or while pickling it for a worker (a formula nested past the
interpreter's recursion limit): it comes back ``UNKNOWN`` with a
``"discharge raised <Type>: ..."`` reason, and the other tasks keep their
verdicts.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

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


def _discharge_lost(task: DischargeTask, error: Exception) -> Optional[DischargeOutcome]:
    """``None`` for a task lost to a broken pool, else :func:`_discharge_failed`."""
    if isinstance(error, BrokenProcessPool):
        return None
    return _discharge_failed(task, error)


def _submit(pool: ProcessPoolExecutor, *args) -> Future:
    """``pool.submit``, except a pool broken earlier yields a failed future."""
    try:
        return pool.submit(*args)
    except BrokenProcessPool as error:
        failed: Future = Future()
        failed.set_exception(error)
        return failed


class JoinHandle(Generic[T, R]):
    """One submitted task's result, to be joined once, in the parent.

    ``join`` returns ``fn(task)``: from the worker's future, or — without
    one (``jobs=1``) — computed in-process at that moment.  A failed
    future is settled by ``on_error(task, error)``; the worker's telemetry
    is merged under the span open at the join.
    """

    def __init__(
        self,
        fn: Callable[[T], R],
        task: T,
        on_error: Callable[[T, Exception], R],
        future: Optional[Future] = None,
        on_broken: Callable[[], None] = lambda: None,
    ) -> None:
        self._fn = fn
        self.task = task
        self._on_error = on_error
        self._future = future
        self._on_broken = on_broken

    def join(self) -> R:
        if self._future is None:
            return self._fn(self.task)
        try:
            result, exported = self._future.result()
        except Exception as error:
            if isinstance(error, BrokenProcessPool):
                self._on_broken()
            return self._on_error(self.task, error)
        if exported is not None:
            telemetry.merge_exported(exported)
        return result

    def cancel(self) -> None:
        """Drop a result nobody will join (a running task still finishes)."""
        if self._future is not None:
            self._future.cancel()


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

    def discharge(
        self, task: DischargeTask, speculative: bool = False
    ) -> JoinHandle[DischargeTask, Optional[DischargeOutcome]]:
        """Submit one discharge.

        A ``speculative`` one joins as ``None`` when it was lost to a
        broken pool, so that the caller may run it again rather than
        settle it ``UNKNOWN``.
        """
        on_error = _discharge_lost if speculative else _discharge_failed
        return self.submit(_discharge_settled, task, on_error)

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        on_error: Callable[[T, Exception], R],
    ) -> List[R]:
        """``[fn(task) for task in tasks]``: submit them all, then join in order."""
        handles = [self.submit(fn, task, on_error) for task in tasks]
        return [handle.join() for handle in handles]

    def submit(
        self,
        fn: Callable[[T], R],
        task: T,
        on_error: Callable[[T, Exception], R],
    ) -> JoinHandle[T, R]:
        """Start ``fn(task)`` on the pool (``jobs > 1``) and return its handle.

        ``fn`` and the task must pickle (``fn`` by reference: a module-level
        function); ``on_error`` runs in this process only.  With ``jobs=1``
        nothing runs until the handle is joined.
        """
        if self.jobs == 1:
            return JoinHandle(fn, task, on_error)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        future = _submit(self._pool, _in_worker, fn, task, telemetry.enabled())
        return JoinHandle(fn, task, on_error, future, partial(self._discard, self._pool))

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Close ``pool``, which broke, unless it was replaced already."""
        if pool is self._pool:
            self.close()

    def close(self, cancel_futures: bool = True) -> None:
        """Shut the pool down and reap its workers (a no-op without one).

        ``cancel_futures=False`` lets the pool finish the tasks queued on
        it first; their handles still join.  Either way the next
        submission opens a fresh pool.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_futures)
