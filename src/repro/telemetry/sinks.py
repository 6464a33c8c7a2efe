"""Telemetry sinks: envelope section and Chrome trace.

A *sink* consumes a finished :class:`~repro.telemetry.core.TelemetrySession`
and renders it somewhere; the interface is deliberately just "a callable
taking the session" so new sinks (a statsd forwarder, an SQLite store)
plug in without touching the collection side.  Two sinks ship here:

:func:`telemetry_section`
    The ``telemetry`` section of the shared CLI JSON envelope
    (:mod:`repro.cli_report`): per-span-name aggregates plus the raw
    counter/histogram tables.  Compact by design — the envelope is
    diffed in tests and archived by CI, so it carries aggregates, not the
    full span list.

:func:`write_chrome_trace` / :func:`chrome_trace_payload`
    The Chrome ``trace_event`` JSON-object format (``traceEvents`` +
    ``otherData``), directly loadable in Perfetto or ``chrome://tracing``.
    Every finished span becomes a complete (``"ph": "X"``) event with
    microsecond timestamps rebased to the earliest span; span/parent ids
    ride along in ``args`` so :mod:`repro.telemetry.summary` (and tests)
    can rebuild the tree, and the metric tables are embedded under
    ``otherData`` so a saved trace is self-contained.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .core import SpanRecord, TelemetrySession

#: Version stamp of the chrome-trace ``otherData`` payload this module
#: writes (summarize refuses traces it cannot interpret).
TRACE_FORMAT_VERSION = 1


def span_aggregates(records: List[SpanRecord]) -> Dict[str, Dict[str, float]]:
    """Per-span-name aggregates: count, total/max wall-clock seconds."""
    aggregates: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = aggregates.get(record.name)
        if entry is None:
            entry = aggregates[record.name] = {
                "count": 0.0,
                "total_seconds": 0.0,
                "max_seconds": 0.0,
            }
        entry["count"] += 1
        entry["total_seconds"] += record.duration
        if record.duration > entry["max_seconds"]:
            entry["max_seconds"] = record.duration
    return aggregates


def telemetry_section(session: TelemetrySession) -> Dict[str, object]:
    """The ``telemetry`` section carried by the CLI JSON envelopes."""
    return {
        "enabled": True,
        "span_count": len(session.records),
        "spans": span_aggregates(session.records),
        "counters": dict(session.counters),
        "histograms": {
            name: histogram.as_dict()
            for name, histogram in session.histograms.items()
        },
    }


def chrome_trace_payload(session: TelemetrySession) -> Dict[str, object]:
    """The session as a Chrome ``trace_event`` JSON object."""
    records = session.records
    base = min((record.start for record in records), default=0.0)
    events: List[Dict[str, object]] = []
    pids = sorted({record.pid for record in records})
    for pid in pids:
        events.append(
            {
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "name": "process_name",
                "args": {
                    "name": "repro" if pid == session.pid else f"repro-worker-{pid}"
                },
            }
        )
    for record in records:
        events.append(
            {
                "name": record.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((record.start - base) * 1e6, 3),
                "dur": round(record.duration * 1e6, 3),
                "pid": record.pid,
                "tid": 0,
                "args": {
                    **record.attributes,
                    "span_id": record.span_id,
                    "parent_span_id": record.parent_id,
                },
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro --trace",
            "format_version": TRACE_FORMAT_VERSION,
            "counters": dict(session.counters),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in session.histograms.items()
            },
        },
    }


def write_chrome_trace(session: TelemetrySession, destination: str) -> None:
    """Write the session as the Chrome trace behind ``--trace FILE``."""
    payload = chrome_trace_payload(session)
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
