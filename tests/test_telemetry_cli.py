"""End-to-end tests for the CLI's observability surface.

``--trace FILE`` on ``verify-batch`` / ``verify-case-study`` / ``explore``
must leave behind a loadable Chrome trace (or JSONL log) whose events form
one tree, inject a ``telemetry`` section into ``--json`` envelopes, and
round-trip through ``repro trace summarize``.  Runs without ``--trace``
must emit envelopes *without* the section — the schema treats it as
strictly optional.
"""

import json

import pytest

from repro import telemetry
from repro.cli import main
from repro.cli_report import validate_payload
from repro.telemetry import summarize_trace


@pytest.fixture(autouse=True)
def _no_ambient_session():
    telemetry.uninstall()
    yield
    telemetry.uninstall()


class TestVerifyBatchTrace:
    def test_cold_trace_is_one_tree_and_matches_envelope(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "verify-batch",
                "sum-reduction-perforation",
                "bnb-early-exit",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace_path),
                "--json", str(report_path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0

        trace = json.loads(trace_path.read_text())
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events
        # acceptance criterion: every event nests under the root batch span
        by_id = {e["args"]["span_id"]: e for e in events}
        roots = [e for e in events if e["args"]["parent_span_id"] is None]
        assert [e["name"] for e in roots] == ["batch"]
        for event in events:
            parent = event["args"]["parent_span_id"]
            if parent is not None:
                assert parent in by_id
        # worker spans were re-parented: discharge spans from other pids
        # hang under the dispatch span
        root_pid = roots[0]["pid"]
        worker_events = [e for e in events if e["pid"] != root_pid]
        assert worker_events, "--jobs 2 must record worker-process spans"
        for event in worker_events:
            ancestor = event
            while ancestor["args"]["parent_span_id"] is not None:
                ancestor = by_id[ancestor["args"]["parent_span_id"]]
            assert ancestor["name"] == "batch"

        # the envelope telemetry section agrees with the trace file
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        section = payload["telemetry"]
        assert section["enabled"] is True
        summary = summarize_trace(str(trace_path))
        assert len(summary.events) == section["span_count"]
        assert summary.counters == section["counters"]

    def test_no_trace_means_no_telemetry_section(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(
            ["verify-batch", "sum-reduction-perforation", "--json", str(report_path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        assert "telemetry" not in payload
        assert telemetry.active_session() is None

    def test_trace_session_is_uninstalled_after_the_command(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(["verify-batch", "sum-reduction-perforation", "--trace", str(trace_path)])
        capsys.readouterr()
        assert telemetry.active_session() is None
        assert trace_path.exists()


class TestVerifyCaseStudyTrace:
    def test_trace_has_command_root_span(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "verify-case-study", "lu",
                "--trace", str(trace_path),
                "--json", str(report_path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        summary = summarize_trace(str(trace_path))
        names = {event.name for event in summary.events}
        assert "verify-case-study" in names
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        assert payload["telemetry"]["spans"]["verify-case-study"]["count"] == 1


class TestExploreTrace:
    def test_trace_and_envelope(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        exit_code = main(
            [
                "explore", "sum",
                "--depth", "1",
                "--samples", "3",
                "--trace", str(trace_path),
                "--json", str(report_path),
            ]
        )
        capsys.readouterr()
        assert exit_code == 0
        summary = summarize_trace(str(trace_path))
        names = {event.name for event in summary.events}
        assert {"explore", "explore.enumerate", "explore.verify",
                "explore.attribute", "explore.score", "batch"} <= names
        # rejection attribution runs under its own span, sized by the
        # number of rejected candidates (sum depth 1 rejects three)
        attribute = [
            event for event in summary.events if event.name == "explore.attribute"
        ]
        assert [event.attributes["rejected"] for event in attribute] == [3]
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        assert payload["telemetry"]["counters"]["explore.samples"] > 0


class TestTraceSummarizeCommand:
    def _record_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        main(
            [
                "verify-batch", "sum-reduction-perforation",
                "--cache-dir", str(tmp_path / "cache"),
                "--trace", str(trace_path),
            ]
        )
        capsys.readouterr()
        return trace_path

    def test_renders_tables(self, tmp_path, capsys):
        trace_path = self._record_trace(tmp_path, capsys)
        exit_code = main(["trace", "summarize", str(trace_path), "--top", "3"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "stage" in out
        assert "slowest 3 spans:" in out
        assert "batch" in out

    def test_json_output(self, tmp_path, capsys):
        trace_path = self._record_trace(tmp_path, capsys)
        exit_code = main(["trace", "summarize", str(trace_path), "--json", "-"])
        out = capsys.readouterr().out
        assert exit_code == 0
        payload = json.loads(out)
        assert payload["events"] > 0
        assert any(stage["name"] == "batch" for stage in payload["stages"])

    def test_rejects_non_trace_files(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"not": "a trace"}))
        with pytest.raises(SystemExit, match="not a recognised trace file"):
            main(["trace", "summarize", str(bogus)])
        with pytest.raises(SystemExit, match="cannot read trace file"):
            main(["trace", "summarize", str(tmp_path / "missing.json")])
