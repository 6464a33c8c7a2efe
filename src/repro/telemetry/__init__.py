"""Telemetry: hierarchical spans, metrics and trace export for the pipeline.

The package splits into a runtime half and a sink half:

* :mod:`repro.telemetry.core` — the collector (:class:`TelemetrySession`),
  spans, counters/histograms, and the module-level instrumentation API
  (:func:`span`, :func:`count`, :func:`observe`) whose disabled path
  costs one global read;
* :mod:`repro.telemetry.sinks` — the envelope section and the Chrome
  ``trace_event`` exporter behind ``--trace``;
* :mod:`repro.telemetry.summary` — the offline analyzer behind
  ``repro trace summarize``.

Instrumentation points import this package and call the helpers directly::

    from .. import telemetry

    with telemetry.span("discharge", index=i, kind=kind) as sp:
        result = run(...)
        sp.set_attribute("status", result.status.value)
    telemetry.count("engine.cache.misses")

See ``docs/architecture.md`` ("The telemetry layer") for the span
taxonomy and how to add an instrument point.
"""

from .core import (
    NOOP_SPAN,
    Histogram,
    Span,
    SpanRecord,
    TelemetrySession,
    activated,
    active_session,
    count,
    current_span_id,
    enabled,
    install,
    merge_exported,
    observe,
    span,
    uninstall,
)
from .sinks import (
    chrome_trace_payload,
    span_aggregates,
    telemetry_section,
    write_chrome_trace,
)
from .summary import TraceFormatError, TraceSummary, summarize_trace

__all__ = [
    "NOOP_SPAN",
    "Histogram",
    "Span",
    "SpanRecord",
    "TelemetrySession",
    "TraceFormatError",
    "TraceSummary",
    "activated",
    "active_session",
    "chrome_trace_payload",
    "count",
    "current_span_id",
    "enabled",
    "install",
    "merge_exported",
    "observe",
    "span",
    "span_aggregates",
    "summarize_trace",
    "telemetry_section",
    "uninstall",
    "write_chrome_trace",
]
