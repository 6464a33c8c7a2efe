"""Tests for the acceptability verifier and the paper's three case studies."""

import functools

import pytest

from repro.analysis.metrics import MetricSeries, fraction_within
from repro.hoare.verifier import AcceptabilitySpec, AcceptabilityVerifier, verify_acceptability
from repro.lang import builder as b
from repro.casestudies import all_case_studies
from repro.casestudies.lu import LU, approx_memory_chooser
from repro.casestudies.swish import MINIMUM_RESULTS, SWISH
from repro.casestudies.water import WATER
from repro.lang.parser import parse_program
from repro.semantics.state import Terminated

from casestudy_ids import study_id


class TestAcceptabilityVerifier:
    def test_simple_program_with_default_spec(self):
        program = b.program(
            "noop-relax",
            b.relax("x", b.eq("x", "x")),
            b.relate("l", b.same("y")),
            variables=("x", "y"),
        )
        report = verify_acceptability(program)
        assert report.verified
        assert all(report.guarantees().values())

    def test_failed_relate_reported_in_guarantees(self):
        program = b.program(
            "bad-relax",
            b.relax("x", b.true),
            b.relate("l", b.same("x")),
            variables=("x",),
        )
        report = verify_acceptability(program)
        assert not report.relaxed.verified
        guarantees = report.guarantees()
        assert guarantees["original_progress_modulo_assumptions"]
        assert not guarantees["soundness_of_relational_assertions"]
        assert not guarantees["relaxed_progress"]

    def test_effort_metrics_present(self):
        program = b.program("tiny", b.assign("x", 1), variables=("x",))
        report = verify_acceptability(program)
        effort = report.effort()
        assert effort["original"]["rule_applications"] >= 1
        assert effort["relaxed"]["obligations"] >= 1

    def test_summary_lists_guarantees(self):
        program = b.program("tiny", b.assign("x", 1), variables=("x",))
        text = verify_acceptability(program).summary()
        assert "relative_relaxed_progress" in text

    def test_spec_accepts_explicit_conditions(self):
        program = b.program(
            "guarded",
            b.assert_(b.ge("x", 0)),
            variables=("x",),
        )
        spec = AcceptabilitySpec(precondition=b.ge("x", 0), rel_precondition=b.same("x"))
        report = AcceptabilityVerifier().verify(program, spec)
        assert report.verified


@pytest.mark.parametrize("case_study", all_case_studies(), ids=study_id)
class TestCaseStudyVerification:
    def test_verifies(self, case_study):
        report = case_study.verify()
        assert report.original.verified, report.original.summary()
        assert report.relaxed.verified, report.relaxed.summary()
        assert all(report.guarantees().values())

    def test_effort_is_nontrivial_and_relational_layer_larger(self, case_study):
        report = case_study.verify()
        effort = report.effort()
        assert effort["original"]["obligations"] >= 1
        assert effort["relaxed"]["obligations"] >= effort["original"]["obligations"]
        assert effort["relaxed"]["obligation_size"] > effort["original"]["obligation_size"]


@pytest.mark.parametrize("case_study", all_case_studies(), ids=study_id)
class TestCaseStudySimulation:
    def test_differential_simulation_satisfies_relates(self, case_study):
        summary = case_study.simulate(runs=8, seed=3)
        assert summary.runs == 8
        assert summary.relate_violations == 0
        assert summary.original_errors == 0
        assert summary.relaxed_errors == 0

    def test_metrics_recorded(self, case_study):
        summary = case_study.simulate(runs=4, seed=1)
        assert summary.records[0].metrics


class TestSwishSpecifics:
    def test_paper_proof_line_metadata(self):
        assert SWISH.paper_proof_lines == 330
        assert WATER.paper_proof_lines == 310
        assert LU.paper_proof_lines == 315

    def test_relaxed_never_presents_fewer_than_minimum(self):
        # (90, 17) and (30, 3) are the Section 5.1 differential-table runs.
        for runs, seed in ((20, 5), (90, 17), (30, 3)):
            summary = SWISH.simulate(runs=runs, seed=seed)
            assert summary.relate_violations == 0
            assert summary.relaxed_errors == 0
            for record in summary.records:
                original = record.metrics.get("presented_original", 0)
                relaxed = record.metrics.get("presented_relaxed", 0)
                if original >= MINIMUM_RESULTS:
                    assert relaxed >= MINIMUM_RESULTS
                else:
                    assert relaxed == original

    def test_broken_relaxation_is_rejected(self):
        # Lowering the floor to 5 in the relax statement must break the paper's
        # relate property (which promises at least 10 results).
        source = SWISH.source.replace(
            "original_max_r > 10 && max_r >= 10", "original_max_r > 10 && max_r >= 5"
        )
        assert source != SWISH.source
        broken = parse_program(source, name=SWISH.name)
        report = AcceptabilityVerifier().verify(broken, SWISH.acceptability_spec(broken))
        assert report.original.verified
        assert not report.relaxed.verified


class TestLUSpecifics:
    def test_pivot_deviation_within_bound_dynamically(self):
        for runs in (15, 20):
            summary = LU.simulate(
                runs=runs,
                seed=2,
                chooser_factory=functools.partial(approx_memory_chooser, error_bound=4),
            )
            assert summary.relate_violations == 0
            for record in summary.records:
                assert record.metrics["pivot_deviation"] <= record.metrics["error_bound"]

    def test_accuracy_envelope_sweep(self):
        """Section 5.3's accuracy envelope over the memory error bound ``e``:
        every observed pivot deviation stays within ``e``, ``e = 0`` is
        exact, and the envelope does not shrink as ``e`` grows."""
        worst = []
        for bound in (0, 1, 2, 4, 8):
            summary = LU.simulate(
                runs=50,
                seed=bound + 1,
                chooser_factory=functools.partial(approx_memory_chooser, error_bound=bound),
            )
            assert summary.relate_violations == 0
            deviations = MetricSeries("pivot_deviation")
            for record in summary.records:
                if record.initial_state.scalar("e") == bound:
                    deviations.add(record.metrics["pivot_deviation"])
            assert deviations.count > 0
            assert fraction_within(deviations.values, bound) == 1.0
            worst.append(deviations.maximum)
        assert worst[0] == 0.0
        assert worst[-1] >= worst[1]

    def test_zero_error_bound_gives_exact_results(self):
        states = [s for s in LU.workloads(10, seed=0) if s.scalar("e") == 0]
        program = LU.build_program()
        from repro.semantics.interpreter import run_original, run_relaxed

        for state in states:
            original = run_original(program, state)
            chooser = approx_memory_chooser(1, error_bound=0)
            relaxed = run_relaxed(program, state, chooser=chooser)
            assert isinstance(original, Terminated) and isinstance(relaxed, Terminated)
            assert original.state.scalar("maxval") == relaxed.state.scalar("maxval")


class TestWaterSpecifics:
    def test_ff_writes_stay_in_bounds(self):
        # (60, 23) is the Section 5.2 racy differential run.
        for runs, seed in ((12, 7), (60, 23)):
            summary = WATER.simulate(runs=runs, seed=seed)
            assert summary.relate_violations == 0
            assert summary.relaxed_errors == 0
            for record in summary.records:
                relaxed = record.relaxed
                assert isinstance(relaxed, Terminated)
                length = record.initial_state.scalar("len_FF")
                assert all(index < length for index in relaxed.state.array("FF"))

    def test_racy_updates_observed(self):
        # Across enough runs, at least one relaxed execution should differ from
        # the original in RS (otherwise the substrate is not exercising races).
        summary = WATER.simulate(runs=12, seed=11)
        deviations = summary.metric_values("rs_total_absolute_deviation")
        assert any(value > 0 for value in deviations)
