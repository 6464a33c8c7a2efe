"""Shared report emission for the CLI verification/exploration commands.

``verify-batch``, ``verify-case-study`` and ``explore`` all emit a
structured JSON report (``--json FILE``, ``-`` for stdout).  This module
owns the one schema they share and the emission plumbing, so the three
commands cannot drift apart:

* every payload carries the envelope keys ``command`` (which subcommand
  produced it), ``schema_version`` (currently 10) and ``verified`` (the
  overall boolean the command's exit code is based on);
* engine-backed commands carry ``engine`` (scheduler/cache counters),
  ``solver`` (solver-level counters aggregated across every worker
  process: ``cube_count``, ``cooper_eliminations``,
  ``bounded_fallbacks``, ``unknown_results``, ``total_seconds``,
  ``prefiltered_cubes``, ...) and, when a cache is attached, ``cache``
  (``hits`` / ``misses`` / ``hit_rate``, which are the engine's
  ``cache_hits`` / ``cache_misses``, plus the cache's ``entries`` and
  ``stores``) — injected uniformly by :func:`report_payload` from the
  engine instance's :meth:`~repro.engine.core.ObligationEngine.stats`,
  which builds all three (the reports of ``verify_batch`` and
  ``explore`` take theirs from it too);
* the ``explore`` payload's ``incremental`` section is built from the
  engine's ``incremental_reused`` / ``delta_obligations`` counters and
  the size of the search's verdict store;
* both cube counters stop at each query's deciding cube (its first SAT
  cube, else its last): ``cube_count`` counts the cubes walked, pruned
  or solved, and ``prefiltered_cubes`` the ones the interval box pruned.
  Before the solver walked the DNF depth-first, ``prefiltered_cubes``
  also counted the pruned cubes after a SAT cube;
* when the command ran under ``--trace`` (an active telemetry session),
  the payload carries a ``telemetry`` section — span aggregates by name
  plus the session's counters/gauges/histograms
  (:func:`repro.telemetry.telemetry_section`);
* when the command ran with ``--explain`` (or is ``repro explain``), the
  payload carries a ``diagnostics`` section — one forensic record per
  undischarged obligation (source span, relaxation sites, counterexample
  model, atom-by-atom evaluation;
  :meth:`repro.diagnostics.FailureDiagnostic.as_dict`) that ``repro
  explain --from-json`` replays without re-running the solver;
* command-specific keys (``programs``, ``layers``, ``results``, ...) are
  preserved untouched, so existing consumers keep working.

JSON is serialised deterministically (sorted keys, 2-space indent).

Schema history: version 10 added the engine counters ``prefetched``
(discharges started on the worker pool as soon as their program was
collected) and ``prefetch_unused`` (those no wave booked) to the
``engine`` section;
version 9 dropped the ``kind`` field ("declarative" or
"hand-written") from each ``casestudy-list`` study, since every study is
now the same kind of source program;
version 8 dropped the ``verify-batch`` payload's
per-strategy win table and the ``solver`` section's per-strategy seconds,
since each discharged obligation is now one solver query under one
configuration (``engine.solver_calls`` counts one call per discharged
obligation);
version 7 dropped ``engine.strategy_attempts``, which
always equalled ``engine.solver_calls`` once every obligation took the
portfolio path;
version 6 dropped ``solver.backend`` and the vector-backend
counters (``vector_rows``, ``vector_batches``, ``vector_searches``,
``vector_fallbacks``) from the ``solver`` section, since the solver has one
evaluation path; ``prefiltered_cubes`` stays and is now required;
version 5 added the ``incremental`` section to the
``explore`` payload (search-session obligation reuse counters: ``reused``,
``delta_obligations``, ``total_obligations``, ``reuse_rate``,
``store_entries``) along with the ``strategy`` / ``beam_width`` /
``beam_pruned`` / ``truncated`` / ``reward_table`` search keys and the
engine counters ``incremental_reused`` / ``delta_obligations``;
version 4 added ``solver.backend`` (the resolved
evaluation backend the run's queries executed on) and the vector-backend
counters (``vector_rows``, ``vector_batches``, ``vector_searches``,
``vector_fallbacks``, ``prefiltered_cubes``) to the ``solver`` section;
version 3 added the optional ``diagnostics`` section (failure forensics);
version 2 added the optional ``telemetry`` section (version 1 payloads
differ only by its absence).
"""

from __future__ import annotations

import json
from typing import Dict, Optional

SCHEMA_VERSION = 10

#: Envelope keys every CLI JSON report carries (tested in
#: tests/test_cli_report.py; bump SCHEMA_VERSION when this changes).
ENVELOPE_KEYS = ("command", "schema_version", "verified")


def report_payload(
    command: str,
    core: Dict[str, object],
    *,
    verified: bool,
    engine=None,
    telemetry_session=None,
) -> Dict[str, object]:
    """Wrap a command's report dict in the shared envelope.

    ``core`` keys win over injected ones (a report that already carries
    ``engine``/``cache`` counters keeps its own); the envelope keys are
    always overwritten so they cannot lie about their producer.  When a
    ``telemetry_session`` is given (the command ran under ``--trace``),
    its aggregates are injected as the ``telemetry`` section.
    """
    payload: Dict[str, object] = dict(core)
    if engine is not None:
        for name, section in engine.stats().items():
            if name != "cache" or engine.cache is not None:
                payload.setdefault(name, section)
    if telemetry_session is not None:
        from .telemetry import telemetry_section

        payload.setdefault("telemetry", telemetry_section(telemetry_session))
    payload["command"] = command
    payload["schema_version"] = SCHEMA_VERSION
    payload["verified"] = bool(verified)
    return payload


def emit_json(payload: Dict[str, object], destination: str) -> None:
    """Write ``payload`` as deterministic JSON to a file, or stdout for ``-``."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def emit_text(text: str, destination: str) -> None:
    """Write already-rendered text (e.g. CSV) to a file, or stdout for ``-``."""
    if destination == "-":
        print(text, end="")
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(text)


def validate_payload(payload: Dict[str, object]) -> Optional[str]:
    """Return an error string if ``payload`` violates the shared schema."""
    for key in ENVELOPE_KEYS:
        if key not in payload:
            return f"missing envelope key {key!r}"
    if payload["schema_version"] != SCHEMA_VERSION:
        return f"unexpected schema_version {payload['schema_version']!r}"
    if not isinstance(payload["command"], str) or not payload["command"]:
        return "command must be a non-empty string"
    if not isinstance(payload["verified"], bool):
        return "verified must be a boolean"
    cache = payload.get("cache")
    if cache is not None and not {"hits", "misses", "hit_rate"} <= set(cache):
        return "cache counters must carry hits/misses/hit_rate"
    solver = payload.get("solver")
    if solver is not None:
        if not {
            "cube_count",
            "cooper_eliminations",
            "bounded_fallbacks",
            "unknown_results",
            "total_seconds",
            "prefiltered_cubes",
        } <= set(solver):
            return (
                "solver counters must carry cube_count/cooper_eliminations/"
                "bounded_fallbacks/unknown_results/total_seconds/prefiltered_cubes"
            )
    incremental = payload.get("incremental")
    if incremental is not None:
        if not isinstance(incremental, dict):
            return "incremental section must be an object"
        missing = {
            "reused",
            "delta_obligations",
            "total_obligations",
            "reuse_rate",
        } - set(incremental)
        if missing:
            return (
                "incremental counters must carry reused/delta_obligations/"
                f"total_obligations/reuse_rate (missing: {'/'.join(sorted(missing))})"
            )
        for key in ("reused", "delta_obligations", "total_obligations", "reuse_rate"):
            if not isinstance(incremental[key], (int, float)):
                return f"incremental.{key} must be a number"
    diagnostics = payload.get("diagnostics")
    if diagnostics is not None:
        if not isinstance(diagnostics, list):
            return "diagnostics section must be a list"
        for entry in diagnostics:
            if not isinstance(entry, dict):
                return "diagnostics entries must be objects"
            missing = {"rule", "status", "location", "model", "sites"} - set(entry)
            if missing:
                return (
                    "diagnostics entries must carry rule/status/location/"
                    f"model/sites (missing: {'/'.join(sorted(missing))})"
                )
    telemetry = payload.get("telemetry")
    if telemetry is not None:
        if not isinstance(telemetry, dict):
            return "telemetry section must be an object"
        missing = {"enabled", "span_count", "spans", "counters"} - set(telemetry)
        if missing:
            return (
                "telemetry section must carry enabled/span_count/spans/counters "
                f"(missing: {'/'.join(sorted(missing))})"
            )
        if not isinstance(telemetry["enabled"], bool):
            return "telemetry.enabled must be a boolean"
        if not isinstance(telemetry["spans"], dict) or not isinstance(
            telemetry["counters"], dict
        ):
            return "telemetry spans/counters must be objects"
    return None
