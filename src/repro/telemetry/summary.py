"""Offline trace analysis: ``repro trace summarize FILE``.

A saved trace (the Chrome ``trace_event`` JSON written by
:mod:`repro.telemetry.sinks`) is self-contained: spans carry their
ids/parents in ``args`` and the counter/histogram tables ride in
``otherData``.  This module loads it back into plain events and renders
the operator's questions as fixed-width tables:

* **time by stage** — wall-clock total/count/max per span name;
* **slowest spans** — the top-K individual spans with their identifying
  attributes (program, candidate, search strategy, obligation index);
* **cache behaviour** — hit/miss counters by tier and the hit rate;
* **atom reuse** — atoms linearized (``solver.linearize.misses``, once per
  interned atom per process) against cubes solved (``lia.cube_solves``).

Everything is recomputed from the file — no live session needed — so a
trace captured in CI can be summarized on a laptop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Span attributes worth showing next to a slow span, in display order.
_DETAIL_ATTRIBUTES = (
    "program",
    "study",
    "candidate",
    "case_study",
    "strategy",
    "kind",
    "index",
    "status",
    "obligations",
    "pending",
    "error",
)

_CACHE_HIT_PREFIX = "engine.cache.hits."


@dataclass
class TraceEvent:
    """One span loaded back from a saved trace (seconds, not µs)."""

    name: str
    start: float
    duration: float
    pid: int
    span_id: Optional[int]
    parent_id: Optional[int]
    attributes: Dict[str, object] = field(default_factory=dict)


@dataclass
class TraceSummary:
    """Everything ``trace summarize`` reports about one saved trace."""

    path: str
    events: List[TraceEvent]
    counters: Dict[str, float]
    histograms: Dict[str, Dict[str, float]]
    top: int = 10

    # -- derived tables ----------------------------------------------------------

    def stages(self) -> List[Tuple[str, int, float, float]]:
        """``(name, count, total_seconds, max_seconds)`` sorted by total desc."""
        table: Dict[str, List[float]] = {}
        for event in self.events:
            entry = table.setdefault(event.name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += event.duration
            entry[2] = max(entry[2], event.duration)
        return sorted(
            ((name, int(c), t, m) for name, (c, t, m) in table.items()),
            key=lambda row: -row[2],
        )

    def slowest(self) -> List[TraceEvent]:
        return sorted(self.events, key=lambda event: -event.duration)[: self.top]

    def cache(self) -> Dict[str, float]:
        """Cache hit/miss counters by tier plus the derived hit rate."""
        tiers = {
            key[len(_CACHE_HIT_PREFIX):]: value
            for key, value in self.counters.items()
            if key.startswith(_CACHE_HIT_PREFIX)
        }
        hits = sum(tiers.values())
        misses = self.counters.get("engine.cache.misses", 0.0)
        total = hits + misses
        table: Dict[str, float] = {f"hits.{tier}": value for tier, value in tiers.items()}
        table["hits"] = hits
        table["misses"] = misses
        table["hit_rate"] = hits / total if total else 0.0
        table["dedup_hits"] = self.counters.get("engine.dedup.hits", 0.0)
        return table

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace": self.path,
            "events": len(self.events),
            "stages": [
                {
                    "name": name,
                    "count": count,
                    "total_seconds": total,
                    "max_seconds": peak,
                }
                for name, count, total, peak in self.stages()
            ],
            "slowest": [
                {
                    "name": event.name,
                    "seconds": event.duration,
                    "attributes": _detail_attributes(event),
                }
                for event in self.slowest()
            ],
            "cache": self.cache(),
            "counters": dict(self.counters),
            "histograms": {name: dict(h) for name, h in self.histograms.items()},
        }

    # -- rendering ---------------------------------------------------------------

    def render(self) -> str:
        lines = [f"trace {self.path}: {len(self.events)} spans"]
        stages = self.stages()
        if stages:
            width = max(len(name) for name, *_ in stages)
            lines.append("")
            lines.append(f"{'stage':<{width}}  {'count':>6}  {'total':>9}  {'max':>9}")
            lines.append("-" * (width + 30))
            for name, count, total, peak in stages:
                lines.append(
                    f"{name:<{width}}  {count:>6}  {total:>8.3f}s  {peak:>8.3f}s"
                )
        slowest = self.slowest()
        if slowest:
            lines.append("")
            lines.append(f"slowest {len(slowest)} spans:")
            for event in slowest:
                details = ", ".join(
                    f"{key}={value}" for key, value in _detail_attributes(event).items()
                )
                suffix = f"  ({details})" if details else ""
                lines.append(f"  {event.duration:>8.3f}s  {event.name}{suffix}")
        cache = self.cache()
        if cache["hits"] or cache["misses"]:
            tiers = ", ".join(
                f"{key[len('hits.'):]}={value:.0f}"
                for key, value in sorted(cache.items())
                if key.startswith("hits.")
            )
            lines.append("")
            lines.append(
                f"obligation cache: {cache['hits']:.0f} hits"
                + (f" ({tiers})" if tiers else "")
                + f" / {cache['misses']:.0f} misses "
                f"(hit rate {cache['hit_rate']:.0%}, "
                f"dedup {cache['dedup_hits']:.0f})"
            )
        linearized = self.counters.get("solver.linearize.misses", 0.0)
        if linearized:
            lines.append(
                f"linear atoms: {linearized:.0f} linearized for "
                f"{self.counters.get('lia.cube_solves', 0.0):.0f} cube solves"
            )
        return "\n".join(lines)


def _detail_attributes(event: TraceEvent) -> Dict[str, object]:
    return {
        key: event.attributes[key]
        for key in _DETAIL_ATTRIBUTES
        if key in event.attributes
    }


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class TraceFormatError(ValueError):
    """The file is not a trace this tool understands."""


def _load_chrome(payload: Dict[str, object], path: str, top: int) -> TraceSummary:
    events: List[TraceEvent] = []
    for raw in payload.get("traceEvents", []):
        if raw.get("ph") != "X":
            continue  # metadata events carry no timing
        args = dict(raw.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_span_id", None)
        events.append(
            TraceEvent(
                name=str(raw.get("name", "")),
                start=float(raw.get("ts", 0.0)) / 1e6,
                duration=float(raw.get("dur", 0.0)) / 1e6,
                pid=int(raw.get("pid", 0)),
                span_id=int(span_id) if span_id is not None else None,
                parent_id=int(parent_id) if parent_id is not None else None,
                attributes=args,
            )
        )
    other = payload.get("otherData", {})
    return TraceSummary(
        path=path,
        events=events,
        counters={k: float(v) for k, v in other.get("counters", {}).items()},
        histograms=dict(other.get("histograms", {})),
        top=top,
    )


def summarize_trace(path: str, top: int = 10) -> TraceSummary:
    """Load a saved Chrome trace and build its summary."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if not text.strip():
        raise TraceFormatError(f"{path} is empty")
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise TraceFormatError(f"{path} is not a Chrome trace: {error}")
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise TraceFormatError(f"{path} carries no traceEvents section")
    return _load_chrome(payload, path, top)
