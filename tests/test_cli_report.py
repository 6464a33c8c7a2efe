"""Tests for the shared CLI report schema (repro.cli_report).

One schema backs the ``--json`` output of ``verify-batch``,
``verify-case-study`` and ``explore``: an envelope (``command``,
``schema_version``, ``verified``) around the command-specific report, with
engine/cache counters injected uniformly.  The integration tests drive the
real CLI to pin the envelope on actual command output.
"""

import json

import pytest

from repro.cli import main
from repro.cli_report import (
    ENVELOPE_KEYS,
    SCHEMA_VERSION,
    emit_json,
    emit_text,
    report_payload,
    validate_payload,
)


class TestReportPayload:
    def test_envelope_keys_are_added(self):
        payload = report_payload("verify-batch", {"programs": []}, verified=True)
        for key in ENVELOPE_KEYS:
            assert key in payload
        assert payload["command"] == "verify-batch"
        assert payload["schema_version"] == SCHEMA_VERSION == 10
        assert payload["verified"] is True
        assert payload["programs"] == []

    def test_core_keys_are_preserved_and_envelope_wins(self):
        core = {"results": [1, 2], "command": "spoofed"}
        payload = report_payload("explore", core, verified=False)
        assert payload["results"] == [1, 2]
        assert payload["command"] == "explore"  # envelope overwrites
        assert payload["verified"] is False

    def test_engine_counters_are_injected(self):
        class FakeStats:
            def as_dict(self):
                return {"obligations": 4}

        class FakeSolverStats:
            def as_dict(self):
                return {
                    "cube_count": 5,
                    "cooper_eliminations": 1,
                    "bounded_fallbacks": 0,
                    "unknown_results": 0,
                    "total_seconds": 0.25,
                    "prefiltered_cubes": 0,
                }

        class FakeEngine:
            cache = object()

            def stats(self):
                return {
                    "engine": FakeStats().as_dict(),
                    "solver": FakeSolverStats().as_dict(),
                    "cache": {"hits": 3, "misses": 1, "hit_rate": 0.75},
                }

        payload = report_payload("verify-case-study", {}, verified=True, engine=FakeEngine())
        assert payload["engine"] == {"obligations": 4}
        assert payload["cache"]["hit_rate"] == 0.75
        assert payload["solver"]["cube_count"] == 5
        assert validate_payload(payload) is None

    def test_existing_counters_are_not_overwritten(self):
        class FakeEngine:
            cache = None

            @staticmethod
            def stats():
                return {
                    "engine": {"obligations": 99},
                    "solver": {"cube_count": 99},
                    "cache": {"hits": 99},
                }

        payload = report_payload(
            "verify-batch",
            {"engine": {"obligations": 7}, "solver": {"cube_count": 7}},
            verified=True,
            engine=FakeEngine(),
        )
        assert payload["engine"] == {"obligations": 7}
        assert payload["solver"] == {"cube_count": 7}
        assert "cache" not in payload  # no cache section without a cache

    def test_validate_rejects_incomplete_solver_counters(self):
        payload = report_payload("verify-batch", {"solver": {"cube_count": 1}}, verified=True)
        assert "solver counters" in (validate_payload(payload) or "")

    def test_validate_requires_prefiltered_cubes(self):
        solver = {
            "cube_count": 1,
            "cooper_eliminations": 0,
            "bounded_fallbacks": 0,
            "unknown_results": 0,
            "total_seconds": 0.0,
        }
        payload = report_payload("verify-batch", {"solver": dict(solver)}, verified=True)
        assert "prefiltered_cubes" in (validate_payload(payload) or "")
        solver["prefiltered_cubes"] = 0
        payload = report_payload("verify-batch", {"solver": dict(solver)}, verified=True)
        assert validate_payload(payload) is None

    def test_solver_section_carries_no_backend(self):
        class FakeEngine:
            cache = None

            @staticmethod
            def stats():
                return {"engine": {}, "solver": {"cube_count": 3, "prefiltered_cubes": 2}}

        payload = report_payload("verify-batch", {}, verified=True, engine=FakeEngine())
        assert "backend" not in payload["solver"]
        assert not any(key.startswith("vector_") for key in payload["solver"])

    def test_validate_incremental_section(self):
        incremental = {
            "reused": 290.0,
            "delta_obligations": 117.0,
            "total_obligations": 407.0,
            "reuse_rate": 0.71,
            "store_entries": 88.0,
        }
        payload = report_payload(
            "explore", {"incremental": dict(incremental)}, verified=True
        )
        assert validate_payload(payload) is None
        # missing counters are rejected with a pointer at what is absent
        broken = dict(incremental)
        del broken["reuse_rate"]
        payload = report_payload("explore", {"incremental": broken}, verified=True)
        assert "reuse_rate" in (validate_payload(payload) or "")
        # non-numeric counters are rejected
        wrong = dict(incremental, reused="lots")
        payload = report_payload("explore", {"incremental": wrong}, verified=True)
        assert "incremental.reused" in (validate_payload(payload) or "")
        payload = report_payload("explore", {"incremental": [1]}, verified=True)
        assert "incremental section" in (validate_payload(payload) or "")

    def test_validate_rejects_missing_envelope(self):
        assert validate_payload({"verified": True}) is not None
        assert validate_payload(
            {"command": "x", "schema_version": SCHEMA_VERSION, "verified": "yes"}
        ) is not None
        assert validate_payload(
            {"command": "x", "schema_version": SCHEMA_VERSION, "verified": True,
             "cache": {"hits": 1}}
        ) is not None


class TestEmission:
    def test_emit_json_to_file_is_deterministic(self, tmp_path):
        path = tmp_path / "report.json"
        emit_json({"b": 1, "a": 2}, str(path))
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 2, "b": 1}

    def test_emit_json_to_stdout(self, capsys):
        emit_json({"k": True}, "-")
        assert json.loads(capsys.readouterr().out) == {"k": True}

    def test_emit_text(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        emit_text("a,b\n1,2\n", str(path))
        assert path.read_text() == "a,b\n1,2\n"
        emit_text("x\n", "-")
        assert capsys.readouterr().out == "x\n"


class TestCliIntegration:
    def test_verify_batch_json_carries_envelope(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(
            ["verify-batch", "lu-approximate-memory", "--json", str(report_path)]
        )
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        assert payload["command"] == "verify-batch"
        assert payload["verified"] is True
        # legacy keys survive the envelope
        assert payload["programs"][0]["name"] == "lu-approximate-memory"

    def test_verify_case_study_json_carries_envelope(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        exit_code = main(["verify-case-study", "lu", "--json", str(report_path)])
        capsys.readouterr()
        assert exit_code == 0
        payload = json.loads(report_path.read_text())
        assert validate_payload(payload) is None
        assert payload["command"] == "verify-case-study"
        assert {"hits", "misses", "hit_rate"} <= set(payload["cache"])
        assert payload["layers"]["relaxed"]["unknown"] == 0
