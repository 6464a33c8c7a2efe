"""Tests for the telemetry layer (repro.telemetry).

Covers the span-correctness invariants the instrumentation relies on:
nesting/parenting follows the open-span stack, closure is exception-safe,
the disabled path returns the shared no-op singleton (no allocation), and
worker-process sessions re-parent cleanly after a pickle round trip.  The
sink tests pin the Chrome ``trace_event`` and JSONL formats and check
``summarize_trace`` reads back exactly what the session recorded.
"""

import json
import os
import pickle

import pytest

from repro import telemetry
from repro.telemetry import (
    NOOP_SPAN,
    Histogram,
    SpanRecord,
    TelemetrySession,
    TraceFormatError,
    chrome_trace_payload,
    span_aggregates,
    summarize_trace,
    telemetry_section,
    write_chrome_trace,
)


@pytest.fixture(autouse=True)
def _no_ambient_session():
    """Tests must not leak an installed session into each other."""
    telemetry.uninstall()
    yield
    telemetry.uninstall()


def _record_by_name(session):
    records = {}
    for record in session.records:
        assert record.name not in records, f"duplicate span name {record.name}"
        records[record.name] = record
    return records


class TestSpanNesting:
    def test_parent_is_the_enclosing_open_span(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
            with telemetry.span("sibling"):
                pass
        records = _record_by_name(session)
        assert records["outer"].parent_id is None
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["sibling"].parent_id == records["outer"].span_id
        # children close (and therefore record) before their parent
        assert [r.name for r in session.records] == ["inner", "sibling", "outer"]

    def test_span_ids_are_unique_and_stack_unwinds(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("a"):
            with telemetry.span("b"):
                assert session.current_span_id() is not None
        assert session.current_span_id() is None
        ids = [record.span_id for record in session.records]
        assert len(set(ids)) == len(ids)

    def test_timing_is_contained_and_ordered(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        records = _record_by_name(session)
        inner, outer = records["inner"], records["outer"]
        assert inner.start <= inner.end
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_attributes_at_creation_and_set_attribute(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("discharge", index=7, kind="validity") as span:
            span.set_attribute("status", "valid")
        [record] = session.records
        assert record.attributes == {
            "index": 7,
            "kind": "validity",
            "status": "valid",
        }

    def test_exception_safe_closure(self):
        session = telemetry.install(TelemetrySession())
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry.span("outer"):
                with telemetry.span("failing", step=1):
                    raise RuntimeError("boom")
        records = _record_by_name(session)
        # both spans recorded, the raising one marked, the stack unwound
        assert records["failing"].attributes["error"] == "RuntimeError: boom"
        assert records["failing"].parent_id == records["outer"].span_id
        assert session.current_span_id() is None

    def test_roots_and_span_children(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("root"):
            with telemetry.span("child"):
                pass
        assert [record.name for record in session.roots()] == ["root"]
        children = session.span_children()
        root_id = _record_by_name(session)["root"].span_id
        assert [record.name for record in children[root_id]] == ["child"]


class TestDisabledPath:
    def test_span_returns_the_shared_noop_singleton(self):
        assert not telemetry.enabled()
        assert telemetry.span("anything") is NOOP_SPAN
        assert telemetry.span("other", index=3) is NOOP_SPAN

    def test_noop_span_is_a_working_context_manager(self):
        with telemetry.span("x") as span:
            span.set_attribute("k", "v")  # silently dropped
        with pytest.raises(ValueError):
            with telemetry.span("y"):
                raise ValueError("propagates")

    def test_metrics_are_dropped_without_a_session(self):
        telemetry.count("c")
        telemetry.gauge("g", 1.0)
        telemetry.observe("h", 2.0)
        assert telemetry.active_session() is None

    def test_activated_restores_the_previous_session(self):
        outer = telemetry.install(TelemetrySession())
        with telemetry.activated(TelemetrySession()) as inner:
            assert telemetry.active_session() is inner
        assert telemetry.active_session() is outer


class TestMetrics:
    def test_counters_accumulate_gauges_overwrite(self):
        session = telemetry.install(TelemetrySession())
        telemetry.count("hits")
        telemetry.count("hits", 2)
        telemetry.gauge("depth", 3)
        telemetry.gauge("depth", 5)
        assert session.counters["hits"] == 3.0
        assert session.gauges["depth"] == 5.0

    def test_histograms_summarise_the_stream(self):
        session = telemetry.install(TelemetrySession())
        for value in (4.0, 1.0, 7.0):
            telemetry.observe("cubes", value)
        summary = session.histograms["cubes"].as_dict()
        assert summary["count"] == 3.0
        assert summary["sum"] == 12.0
        assert summary["min"] == 1.0
        assert summary["max"] == 7.0
        assert summary["mean"] == 4.0

    def test_histogram_merge(self):
        left, right = Histogram(), Histogram()
        left.observe(2.0)
        right.observe(10.0)
        right.observe(4.0)
        left.merge(right.as_dict())
        assert left.as_dict() == {
            "count": 3.0,
            "sum": 16.0,
            "min": 2.0,
            "max": 10.0,
            "mean": 16.0 / 3.0,
        }


class TestWorkerMerge:
    def _worker_payload(self):
        worker = TelemetrySession()
        with telemetry.activated(worker):
            with telemetry.span("discharge", index=3):
                with telemetry.span("solver.dnf", cubes=5):
                    pass
            telemetry.count("lia.cube_solves", 5)
            telemetry.observe("solver.cubes_per_query", 5)
        # The payload crosses the process-pool boundary pickled.
        return pickle.loads(pickle.dumps(worker.export()))

    def test_merge_remaps_ids_and_reparents_roots(self):
        payload = self._worker_payload()
        parent = telemetry.install(TelemetrySession())
        with telemetry.span("dispatch"):
            telemetry.merge_exported(payload)
        records = _record_by_name(parent)
        assert records["discharge"].parent_id == records["dispatch"].span_id
        assert records["solver.dnf"].parent_id == records["discharge"].span_id
        ids = [record.span_id for record in parent.records]
        assert len(set(ids)) == len(ids)
        assert [record.name for record in parent.roots()] == ["dispatch"]

    def test_merge_accumulates_metrics(self):
        parent = telemetry.install(TelemetrySession())
        telemetry.count("lia.cube_solves", 2)
        telemetry.merge_exported(self._worker_payload())
        telemetry.merge_exported(self._worker_payload())
        assert parent.counters["lia.cube_solves"] == 12.0
        assert parent.histograms["solver.cubes_per_query"].count == 2

    def test_span_record_round_trips_through_dict(self):
        record = SpanRecord(
            name="s", span_id=4, parent_id=None, start=1.5, end=2.0,
            pid=123, attributes={"k": "v"},
        )
        assert SpanRecord.from_dict(record.as_dict()) == record


class TestSinks:
    def _session(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("batch", programs=2):
            with telemetry.span("discharge", index=0):
                pass
        telemetry.count("engine.cache.hits.memory", 3)
        telemetry.count("engine.cache.misses", 1)
        telemetry.gauge("jobs", 2)
        telemetry.observe("solver.cubes_per_query", 4)
        telemetry.uninstall()
        return session

    def test_telemetry_section_shape(self):
        section = telemetry_section(self._session())
        assert section["enabled"] is True
        assert section["span_count"] == 2
        assert section["spans"]["batch"]["count"] == 1
        assert section["spans"]["discharge"]["total_seconds"] >= 0.0
        assert section["counters"]["engine.cache.hits.memory"] == 3.0
        assert section["gauges"]["jobs"] == 2.0
        assert section["histograms"]["solver.cubes_per_query"]["count"] == 1.0

    def test_span_aggregates(self):
        session = self._session()
        aggregates = span_aggregates(session.records)
        assert set(aggregates) == {"batch", "discharge"}
        batch = aggregates["batch"]
        assert batch["count"] == 1
        assert batch["max_seconds"] == pytest.approx(batch["total_seconds"])

    def test_chrome_trace_payload_is_valid(self):
        session = self._session()
        payload = chrome_trace_payload(session)
        events = payload["traceEvents"]
        complete = [event for event in events if event["ph"] == "X"]
        metadata = [event for event in events if event["ph"] == "M"]
        assert len(complete) == 2
        assert metadata and metadata[0]["name"] == "process_name"
        # timestamps are µs, rebased to the earliest span
        assert min(event["ts"] for event in complete) == 0
        for event in complete:
            assert event["dur"] >= 0
            assert "span_id" in event["args"]
        names = {event["name"] for event in complete}
        assert names == {"batch", "discharge"}
        other = payload["otherData"]
        assert other["counters"]["engine.cache.misses"] == 1.0
        assert "format_version" in other

    def test_write_chrome_trace_whatever_the_suffix(self, tmp_path):
        session = self._session()
        # --trace has one format: the file name's suffix does not matter
        for name in ("trace.json", "trace.jsonl"):
            path = tmp_path / name
            write_chrome_trace(session, str(path))
            payload = json.loads(path.read_text())
            assert payload == chrome_trace_payload(session)


class TestSummarize:
    def _session(self):
        session = telemetry.install(TelemetrySession())
        with telemetry.span("batch"):
            with telemetry.span("discharge", index=0, status="valid"):
                pass
        telemetry.count("engine.cache.hits.memory", 3)
        telemetry.count("engine.cache.misses", 1)
        telemetry.count("engine.dedup.hits", 2)
        telemetry.count("solver.linearize.misses", 5)
        telemetry.count("lia.cube_solves", 7)
        telemetry.uninstall()
        return session

    # Both file names hold the Chrome trace (a .jsonl name included).
    @pytest.mark.parametrize("filename", ["trace.json", "trace.jsonl"])
    def test_round_trip_both_formats(self, tmp_path, filename):
        session = self._session()
        path = tmp_path / filename
        write_chrome_trace(session, str(path))
        summary = summarize_trace(str(path), top=5)
        assert len(summary.events) == 2
        stages = {name: (count, total) for name, count, total, _ in summary.stages()}
        assert stages["batch"][0] == 1
        assert summary.slowest()[0].name == "batch"
        cache = summary.cache()
        assert cache["hits"] == 3.0
        assert cache["hits.memory"] == 3.0
        assert cache["misses"] == 1.0
        assert cache["hit_rate"] == pytest.approx(0.75)
        assert cache["dedup_hits"] == 2.0
        rendered = summary.render()
        assert "slowest" in rendered
        assert "linear atoms: 5 linearized for 7 cube solves" in rendered
        assert summary.as_dict()["counters"]["engine.cache.misses"] == 1.0

    def test_rejects_unrecognised_files(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceFormatError):
            summarize_trace(str(empty))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(TraceFormatError):
            summarize_trace(str(wrong))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\nat all\n")
        with pytest.raises(TraceFormatError):
            summarize_trace(str(garbage))


class TestEngineIntegration:
    """The acceptance-criteria invariants, driven through verify_batch."""

    _STUDIES = ["sum-reduction-perforation", "bnb-early-exit"]

    def _run(self, jobs, tmp_path):
        from repro.engine import ObligationEngine, case_study_items, verify_batch

        engine = ObligationEngine.for_batch(
            jobs=jobs, cache_dir=str(tmp_path / f"cache-{jobs}")
        )
        session = telemetry.install(TelemetrySession())
        try:
            report = verify_batch(case_study_items(self._STUDIES), engine=engine)
        finally:
            telemetry.uninstall()
        assert report.all_verified
        return engine, session

    def test_single_root_tree_with_worker_reparenting(self, tmp_path):
        engine, session = self._run(2, tmp_path)
        roots = session.roots()
        assert [record.name for record in roots] == ["batch"]
        # every recorded span is reachable: parents all exist
        known = {record.span_id for record in session.records}
        for record in session.records:
            if record.parent_id is not None:
                assert record.parent_id in known
        # worker spans came home and were re-parented under the dispatch span
        by_id = {record.span_id: record for record in session.records}
        worker_records = [
            record for record in session.records if record.pid != os.getpid()
        ]
        assert worker_records, "jobs=2 must produce worker-process spans"
        for record in worker_records:
            assert record.name in ("discharge", "solver.dnf")
            parent = by_id[record.parent_id]
            if parent.pid == os.getpid():
                assert parent.name == "dispatch"

    def test_envelope_counters_match_summarized_trace(self, tmp_path):
        engine, session = self._run(2, tmp_path)
        trace_path = tmp_path / "trace.json"
        write_chrome_trace(session, str(trace_path))
        summary = summarize_trace(str(trace_path))
        section = telemetry_section(session)
        assert summary.counters == section["counters"]
        assert len(summary.events) == section["span_count"]
        # one discharge span per solver call, worker spans included
        discharges = [event for event in summary.events if event.name == "discharge"]
        assert len(discharges) == engine.statistics.solver_calls

    def test_serial_and_jobs_runs_agree_on_counters(self, tmp_path):
        """Satellite: solver counters are identical serial vs --jobs."""
        engine_serial, _ = self._run(1, tmp_path)
        engine_jobs, _ = self._run(2, tmp_path)
        count_keys = (
            "sat_queries",
            "validity_queries",
            "cube_count",
            "cooper_eliminations",
            "bounded_fallbacks",
            "unknown_results",
        )
        serial = engine_serial.solver_statistics.as_dict()
        jobs = engine_jobs.solver_statistics.as_dict()
        for key in count_keys:
            assert serial[key] == jobs[key], key
        assert set(serial) == set(jobs)

    def test_engine_counters_match_report(self, tmp_path):
        engine, session = self._run(1, tmp_path)
        stats = engine.statistics
        assert session.counters.get("engine.cache.misses", 0.0) == stats.cache_misses
        # one solver call per discharged obligation
        assert stats.solver_calls == stats.cache_misses
        # the instrumentation points fired metric events, not only spans
        assert session.metric_events > 0
