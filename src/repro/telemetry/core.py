"""Hierarchical spans and metrics: the runtime half of the telemetry layer.

The engine pools, dedupes, caches and discharges obligations
across processes; this module is how a run *explains where the time went*.
It is dependency-free (standard library only) and built around one hard
constraint: **telemetry off must be indistinguishable from telemetry
absent**.  Every instrumentation point in the hot path calls a
module-level helper (:func:`span`, :func:`count`, :func:`observe`) whose
disabled path is a single module-global read and a ``None`` check — no
allocation, no string formatting, no clock read (the untraced ``wall_s``
bounds of ``python3 perfbench/run.py`` cover it).

Concepts
--------

``TelemetrySession``
    The in-memory collector.  One session is *installed* process-wide
    (:func:`install` / :func:`activated`); every span and metric lands in
    it.  Worker processes build their own short-lived sessions and ship
    the exported payload home (see :meth:`TelemetrySession.export` /
    :meth:`TelemetrySession.merge`), where the records are re-parented
    under the caller's current span — so a ``--jobs 8`` discharge wave
    still renders as one tree.

``span(name, **attributes)``
    A context manager timing one pipeline stage on the session's
    epoch-anchored monotonic clock (``time.time()`` anchor at session
    creation + ``perf_counter()`` deltas, so spans from different
    processes on the same machine share a timeline).  Spans nest: the
    enclosing open span becomes the parent.  Closure is exception-safe —
    a raising body still records the span (with an ``error`` attribute)
    and the exception propagates.

counters / histograms
    Plain named aggregates (:func:`count`, :func:`observe`).  Histograms
    keep count/sum/min/max — enough for rates and latency summaries
    without storing samples.

Sinks (:mod:`repro.telemetry.sinks`) consume a *finished* session: the
envelope section for ``--json`` reports, a JSONL event log, and a Chrome
``trace_event`` file for Perfetto / ``chrome://tracing``.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class SpanRecord:
    """One finished span: plain, JSON-safe data ready for any sink."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start: float  # epoch-anchored seconds (see TelemetrySession._now)
    end: float
    pid: int
    attributes: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "pid": self.pid,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanRecord":
        return cls(
            name=str(payload["name"]),
            span_id=int(payload["span_id"]),
            parent_id=(
                int(payload["parent_id"]) if payload.get("parent_id") is not None else None
            ),
            start=float(payload["start"]),
            end=float(payload["end"]),
            pid=int(payload.get("pid", 0)),
            attributes=dict(payload.get("attributes", {})),
        )


class Span:
    """An in-flight span; use as a context manager.

    The span id and parent are assigned on ``__enter__`` (the parent is
    whatever span is open on the session at that moment), so constructing
    a ``Span`` costs nothing until it is entered.  ``__exit__`` always
    records the span — an exception in the body marks the record with an
    ``error`` attribute and then propagates.
    """

    __slots__ = ("_session", "name", "attributes", "span_id", "parent_id", "_start")

    def __init__(self, session: "TelemetrySession", name: str, attributes: Dict[str, object]):
        self._session = session
        self.name = name
        self.attributes = attributes
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def set_attribute(self, name: str, value: object) -> None:
        self.attributes[name] = value

    def __enter__(self) -> "Span":
        session = self._session
        self.span_id = session._allocate_id()
        self.parent_id = session.current_span_id()
        session._stack.append(self.span_id)
        self._start = session._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        session = self._session
        end = session._now()
        # Exception-safe closure: pop our own id even if an inner span
        # leaked (defensive; inner spans close first under normal nesting).
        stack = session._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:  # pragma: no cover - defensive
            stack.remove(self.span_id)
        if exc is not None:
            self.attributes["error"] = f"{type(exc).__name__}: {exc}"
        session.records.append(
            SpanRecord(
                name=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                start=self._start,
                end=end,
                pid=session.pid,
                attributes=self.attributes,
            )
        )
        return False  # never swallow the exception


class _NoOpSpan:
    """The shared disabled-path span: enter/exit/set_attribute do nothing."""

    __slots__ = ()

    def set_attribute(self, name: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The singleton every disabled :func:`span` call returns (tests pin the
#: identity: disabled spans must not allocate).
NOOP_SPAN = _NoOpSpan()


class Histogram:
    """Count/sum/min/max summary of an observed value stream."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.total / self.count if self.count else 0.0,
        }

    def merge(self, payload: Dict[str, float]) -> None:
        merged = int(payload.get("count", 0))
        if merged <= 0:
            return
        self.count += merged
        self.total += float(payload.get("sum", 0.0))
        self.min = min(self.min, float(payload.get("min", self.min)))
        self.max = max(self.max, float(payload.get("max", self.max)))


class TelemetrySession:
    """The in-memory collector for spans, counters and histograms.

    Span times use an *epoch-anchored monotonic clock*: ``time.time()`` is
    read once at construction and every later timestamp is that anchor
    plus a ``perf_counter()`` delta — monotonic precision on a wall-clock
    scale, so sessions created in worker processes on the same machine
    produce directly comparable timelines.
    """

    def __init__(self) -> None:
        self._epoch0 = time.time()
        self._mono0 = time.perf_counter()
        self.pid = os.getpid()
        self.records: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: Metric update count (span closes + counter/histogram events) —
        #: the overhead benchmark uses it to estimate the disabled-path
        #: cost of a run without re-instrumenting.
        self.metric_events = 0
        self._stack: List[int] = []
        self._next_id = 1

    # -- clock / ids -------------------------------------------------------------

    def _now(self) -> float:
        return self._epoch0 + (time.perf_counter() - self._mono0)

    def _allocate_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def current_span_id(self) -> Optional[int]:
        return self._stack[-1] if self._stack else None

    # -- recording ---------------------------------------------------------------

    def span(self, name: str, attributes: Optional[Dict[str, object]] = None) -> Span:
        self.metric_events += 1
        return Span(self, name, attributes if attributes is not None else {})

    def count(self, name: str, value: float = 1.0) -> None:
        self.metric_events += 1
        self.counters[name] = self.counters.get(name, 0.0) + value

    def observe(self, name: str, value: float) -> None:
        self.metric_events += 1
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(float(value))

    # -- cross-process transport -------------------------------------------------

    def export(self) -> Dict[str, object]:
        """The session as one picklable/JSON-safe payload (worker -> parent)."""
        return {
            "spans": [record.as_dict() for record in self.records],
            "counters": dict(self.counters),
            "histograms": {
                name: histogram.as_dict() for name, histogram in self.histograms.items()
            },
        }

    def merge(
        self,
        payload: Dict[str, object],
        parent_id: Optional[int] = None,
    ) -> None:
        """Merge an exported payload, re-parenting its span roots.

        Span ids are remapped into this session's id space (worker ids
        would collide across workers); spans whose exported parent is not
        in the payload — the worker's roots — are re-parented under
        ``parent_id`` (default: this session's current open span).  Times
        are kept as-is: both sessions anchor to the same machine epoch.
        """
        if parent_id is None:
            parent_id = self.current_span_id()
        spans = [SpanRecord.from_dict(item) for item in payload.get("spans", [])]
        remap = {record.span_id: self._allocate_id() for record in spans}
        for record in spans:
            self.records.append(
                SpanRecord(
                    name=record.name,
                    span_id=remap[record.span_id],
                    parent_id=(
                        remap[record.parent_id]
                        if record.parent_id in remap
                        else parent_id
                    ),
                    start=record.start,
                    end=record.end,
                    pid=record.pid,
                    attributes=record.attributes,
                )
            )
        for name, value in payload.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0.0) + float(value)
        for name, summary in payload.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(summary)

    # -- inspection --------------------------------------------------------------

    def span_children(self) -> Dict[Optional[int], List[SpanRecord]]:
        """Finished spans grouped by parent id (the span forest)."""
        children: Dict[Optional[int], List[SpanRecord]] = {}
        for record in self.records:
            children.setdefault(record.parent_id, []).append(record)
        return children

    def roots(self) -> List[SpanRecord]:
        known = {record.span_id for record in self.records}
        return [
            record
            for record in self.records
            if record.parent_id is None or record.parent_id not in known
        ]


# ---------------------------------------------------------------------------
# The module-level API the instrumentation points call
# ---------------------------------------------------------------------------

_ACTIVE: Optional[TelemetrySession] = None


def enabled() -> bool:
    """Whether a telemetry session is installed in this process."""
    return _ACTIVE is not None


def active_session() -> Optional[TelemetrySession]:
    return _ACTIVE


def install(session: TelemetrySession) -> TelemetrySession:
    """Install ``session`` as the process-wide collector."""
    global _ACTIVE
    _ACTIVE = session
    return session


def uninstall() -> Optional[TelemetrySession]:
    """Remove and return the installed session (``None`` if none)."""
    global _ACTIVE
    session, _ACTIVE = _ACTIVE, None
    return session


@contextmanager
def activated(session: TelemetrySession) -> Iterator[TelemetrySession]:
    """Install ``session`` for the duration of the block (restores the old)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = session
    try:
        yield session
    finally:
        _ACTIVE = previous


def span(name: str, /, **attributes: object):
    """A span context manager on the active session, or the shared no-op.

    The disabled path is the hot-path contract: one global read, one
    ``None`` check, return the singleton — ``with telemetry.span(...)``
    in the tightest engine loops must stay free when tracing is off.
    The span name is positional-only so ``name=...`` stays usable as an
    ordinary span attribute.
    """
    session = _ACTIVE
    if session is None:
        return NOOP_SPAN
    return session.span(name, attributes)


def count(name: str, value: float = 1.0) -> None:
    """Add ``value`` to a named counter (no-op when disabled)."""
    session = _ACTIVE
    if session is not None:
        session.count(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into a named histogram (no-op when disabled)."""
    session = _ACTIVE
    if session is not None:
        session.observe(name, value)


def current_span_id() -> Optional[int]:
    session = _ACTIVE
    return session.current_span_id() if session is not None else None


def merge_exported(payload: Dict[str, object], parent_id: Optional[int] = None) -> None:
    """Merge a worker's exported payload into the active session (if any)."""
    session = _ACTIVE
    if session is not None:
        session.merge(payload, parent_id=parent_id)
