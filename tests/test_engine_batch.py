"""Tests for batch verification and the ``repro verify-batch`` CLI.

The acceptance bar for the engine: warm-cache batch re-verification of the
case studies issues zero solver calls, and batch/parallel verdicts are
identical to the serial per-program path.
"""

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.casestudies import all_case_studies
from repro.cli import main
from repro.engine import (
    ObligationEngine,
    case_study_items,
    directory_items,
    verify_batch,
)
from repro.hoare.obligations import ObligationCollector, ObligationKind, ProofSystem
from repro.hoare.verifier import AcceptabilitySpec
from repro.logic.formula import eq, var
from repro.solver.interface import Solver
from repro.solver.lia import Status
from repro.telemetry import TelemetrySession


#: Two programs that state their own specs; only the annotated one verifies.
SPECS = Path(__file__).parent / "fixtures" / "specs"


@pytest.fixture(scope="module")
def serial_reports():
    """The classic serial per-program verdicts, as ground truth."""
    return {case.name: case.verify() for case in all_case_studies()}


class TestBatchItems:
    def test_all_case_studies_by_default(self):
        items = case_study_items()
        assert [item.name for item in items] == [case.name for case in all_case_studies()]

    def test_selection_by_name(self):
        items = case_study_items(["water-parallelization"])
        assert len(items) == 1 and items[0].name == "water-parallelization"

    def test_aliases_of_one_study_yield_one_item(self):
        items = case_study_items(["lu", "lu-approximate-memory", "lu-approx"])
        assert [item.name for item in items] == ["lu-approximate-memory"]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown case study"):
            case_study_items(["no-such-study"])

    def test_directory_items(self, tmp_path):
        (tmp_path / "a.rlx").write_text("vars x; x = 1; assert x > 0;")
        (tmp_path / "b.rlx").write_text("vars y; y = 2;")
        (tmp_path / "ignored.txt").write_text("not a program")
        items = directory_items(str(tmp_path))
        assert [item.name for item in items] == ["a", "b"]

    def test_directory_items_read_each_programs_spec(self):
        items = directory_items(str(SPECS))
        assert [item.name for item in items] == [
            "diverge_annotated",
            "diverge_unannotated",
        ]
        for item in items:
            assert item.spec == AcceptabilitySpec.of(item.program)
            assert item.spec.precondition is not None
            assert item.spec.rel_postcondition is not None

    def test_directory_items_requires_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            directory_items(str(tmp_path / "missing"))


def _pooled_verdicts(report):
    """Each result of both layers in pooled order (original, then relaxed):
    its fingerprint, status, counterexample and reason."""
    return [
        (r.fingerprint, r.status, r.counterexample, r.reason)
        for layer in (report.original, report.relaxed)
        for r in layer.results
    ]


class TestBatchVerification:
    def test_batch_matches_serial_verdicts(self, serial_reports):
        report = verify_batch(case_study_items())
        assert report.all_verified
        assert len(report.programs) == len(serial_reports)
        for result in report.programs:
            serial = serial_reports[result.name]
            assert result.verified == serial.verified
            assert result.report.guarantees() == serial.guarantees()
            for layer in ("original", "relaxed"):
                batch_layer = getattr(result.report, layer)
                serial_layer = getattr(serial, layer)
                assert len(batch_layer.results) == len(serial_layer.results)
            assert _pooled_verdicts(result.report) == _pooled_verdicts(serial)

    def test_parallel_batch_matches_serial_verdicts(self, serial_reports):
        engine = ObligationEngine(jobs=2)
        report = verify_batch(case_study_items(), engine=engine)
        assert report.all_verified
        for result in report.programs:
            assert _pooled_verdicts(result.report) == _pooled_verdicts(
                serial_reports[result.name]
            )

    @pytest.mark.parametrize(
        "case", all_case_studies(), ids=lambda case: case.name
    )
    def test_verify_runs_the_solver_as_often_as_a_batch(self, case, monkeypatch):
        # One engine for premises and both layers: an obligation the layers
        # share, or one a premise already decided, is not solved again.
        solvers = []
        real = Solver.__init__
        monkeypatch.setattr(
            Solver, "__init__",
            lambda self, *args, **kwargs: (
                solvers.append(self) or real(self, *args, **kwargs)
            ),
        )
        assert case.verify().verified
        serial = len(solvers)
        solvers.clear()
        assert verify_batch(case_study_items([case.name])).all_verified
        assert serial == len(solvers) > 0

    def test_warm_cache_issues_zero_solver_calls(self, tmp_path, monkeypatch):
        cold = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        with telemetry.activated(TelemetrySession()) as session:
            cold_report = verify_batch(case_study_items(), engine=cold)
        assert cold_report.all_verified
        assert cold.statistics.solver_calls > 0
        # The whole study corpus is decided by the complete procedures: no
        # UNKNOWN, no bounded fallback and no model search, and the box
        # prefilter settles a real share of the cubes.
        assert cold.solver_statistics.unknown_results == 0
        assert cold.solver_statistics.bounded_fallbacks == 0
        assert "solver.bounded_search.searches" not in session.counters
        assert cold.solver_statistics.prefiltered_cubes > 0

        assert cold.statistics.premise_solver_calls > 0

        # Convergence premises replay from the cache too: the warm pass
        # never reaches the solver facade.
        queries = []
        for name in ("check_valid", "check_sat"):
            real = getattr(Solver, name)
            monkeypatch.setattr(
                Solver, name,
                lambda self, formula, _real=real, _name=name: (
                    queries.append(_name) or _real(self, formula)
                ),
            )
        warm = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        warm_report = verify_batch(case_study_items(), engine=warm)
        assert warm_report.all_verified
        assert queries == []
        assert warm.statistics.solver_calls == 0
        assert warm.statistics.premise_solver_calls == 0
        assert warm.statistics.premise_cache_hits > 0
        assert warm.statistics.cache_hits == warm.statistics.obligations
        # Verdicts replayed from the cache match the cold run exactly.
        for cold_result, warm_result in zip(cold_report.programs, warm_report.programs):
            for layer in ("original", "relaxed"):
                assert [r.status for r in getattr(cold_result.report, layer).results] == [
                    r.status for r in getattr(warm_result.report, layer).results
                ]

    def test_shared_obligations_across_programs_hit_in_batch(self, tmp_path):
        # The same tiny program twice: the second copy's obligations are
        # answered from the in-memory cache within a single batch.
        (tmp_path / "one.rlx").write_text("vars x; x = 1; assert x > 0;")
        (tmp_path / "two.rlx").write_text("vars x; x = 1; assert x > 0;")
        engine = ObligationEngine.for_batch()
        report = verify_batch(directory_items(str(tmp_path)), engine=engine)
        assert report.all_verified
        assert engine.statistics.dedup_hits >= 1

    def test_unparsable_program_does_not_sink_the_batch(self, tmp_path):
        (tmp_path / "broken.rlx").write_text("this is not a program ???")
        (tmp_path / "good.rlx").write_text("vars x; x = 1; assert x > 0;")
        items = directory_items(str(tmp_path))
        assert [item.name for item in items] == ["broken", "good"]
        assert items[0].program is None and items[0].error
        report = verify_batch(items)
        assert not report.all_verified
        by_name = {result.name: result for result in report.programs}
        assert not by_name["broken"].verified
        assert "parse" in by_name["broken"].error
        assert by_name["good"].verified

    def test_cli_survives_unparsable_file_in_dir(self, tmp_path, capsys):
        (tmp_path / "broken.rlx").write_text("???")
        (tmp_path / "good.rlx").write_text("vars x; x = 1; assert x > 0;")
        assert main(["verify-batch", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "ERROR" in out and "good" in out

    def test_spent_budget_skips_the_bounded_fallback(self):
        # x*x == 4 is non-linear: only the bounded fallback finds x = -2.
        collector = ObligationCollector(ProofSystem.ORIGINAL)
        collector.add(
            eq(var("x") * var("x"), 4), ObligationKind.SATISFIABILITY,
            rule="square", description="x*x == 4",
        )
        # Normalisation takes longer than this budget, so it is spent
        # before the first cube is solved.
        spent = ObligationEngine(budget_seconds=1e-12)
        (result,) = spent.discharge_all(collector.obligations)
        assert result.status is Status.UNKNOWN
        assert result.reason.startswith("per-obligation budget of")
        assert len(spent.cache) == 0
        (unbudgeted,) = ObligationEngine().discharge_all(collector.obligations)
        assert unbudgeted.status is Status.SAT

    def test_unverifiable_program_reports_not_verified(self, tmp_path):
        (tmp_path / "bad.rlx").write_text("vars x; assert x > 0;")
        report = verify_batch(directory_items(str(tmp_path)))
        assert not report.all_verified
        assert len(report.programs) == 1
        assert not report.programs[0].verified
        payload = report.as_dict()
        assert payload["all_verified"] is False
        assert payload["programs"][0]["layers"]["original"]["undischarged"]

    def test_report_json_is_serialisable(self):
        report = verify_batch(case_study_items(["water-parallelization"]))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["all_verified"] is True
        assert payload["programs"][0]["name"] == "water-parallelization"
        assert "engine" in payload and "cache" in payload

    def test_summary_mentions_verdict_and_engine(self):
        report = verify_batch(case_study_items(["water-parallelization"]))
        text = report.summary()
        assert "VERIFIED" in text
        assert "solver calls" in text


class TestVerifyBatchCLI:
    def test_cli_all_case_studies(self, capsys):
        assert main(["verify-batch"]) == 0
        out = capsys.readouterr().out
        assert "ALL VERIFIED" in out
        for case in all_case_studies():
            assert case.name in out

    def test_cli_named_case_study_with_json(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "verify-batch",
                    "water-parallelization",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--json",
                    str(json_path),
                ]
            )
            == 0
        )
        payload = json.loads(json_path.read_text())
        assert payload["all_verified"] is True

    def test_cli_directory_mode_failure_exit_code(self, capsys, tmp_path):
        (tmp_path / "bad.rlx").write_text("vars x; assert x > 0;")
        assert main(["verify-batch", "--dir", str(tmp_path)]) == 1
        assert "NOT" in capsys.readouterr().out

    def test_cli_directory_mode_verifies_each_program_against_its_clauses(
        self, capsys, tmp_path
    ):
        json_path = tmp_path / "specs.json"
        assert main(["verify-batch", "--dir", str(SPECS), "--json", str(json_path)]) == 1
        payload = json.loads(json_path.read_text())
        verdicts = {program["name"]: program["verified"] for program in payload["programs"]}
        assert verdicts == {"diverge_annotated": True, "diverge_unannotated": False}

    def test_cli_rejects_names_and_dir_together(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify-batch", "water-parallelization", "--dir", str(tmp_path)])

    def test_cli_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["verify-batch", "nope"])

    def test_cli_help_epilog_documents_batch_surface(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "verify-batch" in out
        assert "--cache-dir" in out
        assert "--jobs" in out
