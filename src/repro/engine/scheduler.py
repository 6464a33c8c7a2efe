"""Parallel obligation discharge over a process pool.

Proof obligations are independent of each other — each is a closed query
against the decision procedures — so a batch of them (from one program or
from many) can be discharged concurrently.  The scheduler fans tasks out to
a :class:`concurrent.futures.ProcessPoolExecutor`; each worker runs the
strategy portfolio for its obligation and ships back a compact, picklable
outcome (the formula IR is made of frozen dataclasses, so tasks pickle
as-is).

``jobs=1`` (or a single task) short-circuits to an in-process loop with no
executor, which keeps single-job runs free of multiprocessing overhead and
usable from environments where forking is undesirable.  A worker that dies
mid-wave does not sink the wave: its task, and every task still waiting on
the broken pool, comes back ``UNKNOWN`` with a ``"worker died: ..."``
reason.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import telemetry
from ..logic.formula import Formula, Symbol
from ..solver.interface import SolverStatistics
from ..solver.lia import Status
from .portfolio import SolverStrategy, run_portfolio


@dataclass(frozen=True)
class DischargeTask:
    """One obligation to discharge: position, query, and strategy order."""

    index: int
    formula: Formula
    kind: str  # ObligationKind value: "validity" | "satisfiability"
    strategies: Tuple[SolverStrategy, ...]
    budget_seconds: Optional[float] = None
    #: Whether the worker should record telemetry spans for this task.
    #: Set by the engine when a session is active in the dispatching
    #: process; worker processes have no session of their own, so they
    #: build a task-local one and ship the export home on the outcome.
    collect_telemetry: bool = False
    #: Human-readable provenance label ("program @ line 3, columns 5-12")
    #: recorded on the worker's discharge span — the obligation itself
    #: never crosses the process boundary, only this summary does.
    label: str = ""


@dataclass(frozen=True)
class DischargeOutcome:
    """The portfolio's verdict for one task, matched back by ``index``."""

    index: int
    status: Status
    model: Optional[Dict[Symbol, int]]
    reason: str
    strategy: str  # winning strategy name, "" if none concluded
    attempts: int
    elapsed_seconds: float
    #: Solver counters summed over every strategy attempted for this task
    #: (picklable, so worker-process statistics survive the trip home).
    solver_stats: Optional[Dict[str, float]] = None
    #: The worker-local telemetry session, exported
    #: (:meth:`~repro.telemetry.TelemetrySession.export`) for the engine
    #: to re-parent under the dispatching wave's span.  ``None`` when the
    #: task ran in-process (its spans landed on the ambient session
    #: directly) or telemetry was off.
    telemetry: Optional[Dict[str, object]] = None


def _discharge_one(task: DischargeTask) -> DischargeOutcome:
    if task.collect_telemetry:
        active = telemetry.active_session()
        if active is None or active.pid != os.getpid():
            # Worker process: record into a task-local session and ship
            # the export home for re-parenting.  The pid check matters on
            # fork-start platforms, where workers inherit a *copy* of the
            # parent's active session — recording there would be silently
            # discarded.  In-process discharge (jobs=1) keeps the ambient
            # session, so spans nest under the wave naturally.
            session = telemetry.TelemetrySession()
            with telemetry.activated(session):
                outcome = _discharge_inner(task)
            return replace(outcome, telemetry=session.export())
    return _discharge_inner(task)


def _discharge_inner(task: DischargeTask) -> DischargeOutcome:
    start = time.perf_counter()
    statistics = SolverStatistics()
    with telemetry.span("discharge", index=task.index, kind=task.kind) as span:
        if task.label:
            span.set_attribute("provenance", task.label)
        result, winner, attempts = run_portfolio(
            task.formula, task.kind, task.strategies, task.budget_seconds, statistics
        )
        span.set_attribute("status", result.status.value)
        span.set_attribute("strategy", winner)
        span.set_attribute("attempts", attempts)
    return DischargeOutcome(
        index=task.index,
        status=result.status,
        model=result.model,
        reason=result.reason,
        strategy=winner,
        attempts=attempts,
        elapsed_seconds=time.perf_counter() - start,
        solver_stats=statistics.as_dict(),
    )


class DischargeScheduler:
    """Runs discharge tasks either in-process or across worker processes."""

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run(self, tasks: Sequence[DischargeTask]) -> List[DischargeOutcome]:
        """Discharge every task; outcomes are returned in task order."""
        if not tasks:
            return []
        if self.jobs == 1 or len(tasks) == 1:
            return [_discharge_one(task) for task in tasks]
        workers = min(self.jobs, len(tasks))
        outcomes = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_discharge_one, task) for task in tasks]
            for task, future in zip(tasks, futures):
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as error:
                    # A dead worker breaks the pool: every task without an
                    # outcome yet is settled UNKNOWN (never cached), the rest
                    # of the wave keeps its verdicts.
                    outcomes.append(
                        DischargeOutcome(
                            index=task.index,
                            status=Status.UNKNOWN,
                            model=None,
                            reason=f"worker died: {error}",
                            strategy="",
                            attempts=0,
                            elapsed_seconds=0.0,
                        )
                    )
        return outcomes
