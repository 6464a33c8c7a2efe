"""The differential funnel: parity legs, divergence shrinking, reproducers.

A small fixed-seed corpus runs the real funnel end-to-end (this is the
CI ``fuzz-smoke`` job's little sibling); the shrinking and fixture-writing
machinery is additionally exercised on a *synthetic* divergence, since a
healthy tree never produces a real one.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import (
    ProgramSynthesizer,
    generated_study,
    run_fuzz,
    shrink_program,
    synthesize_corpus,
)
from repro.fuzz.funnel import (
    Divergence,
    VerifySignature,
    available_backends,
    compare_signatures,
    verify_leg,
)
from repro.fuzz.shrink import shrink_source, write_reproducer
from repro.lang.parser import parse_program


@pytest.fixture(scope="module")
def report():
    return run_fuzz(seed=11, count=6, depth=1, jobs=2, samples=3)


class TestFunnel:
    def test_funnel_is_divergence_free(self, report):
        assert report.ok, report.summary()
        assert report.lint_failures == 0
        assert not report.expectation_failures

    def test_all_parity_legs_ran(self, report):
        legs = set(report.verify_legs)
        assert "backend=tree" in legs
        assert "backend=compiled" in legs
        assert "backend=compiled,jobs=2" in legs
        assert "cache=cold" in legs and "cache=warm" in legs
        assert available_backends() == ("tree", "compiled")
        assert report.backends == available_backends()
        assert not any("vector" in leg for leg in legs)

    def test_every_program_completed_every_stage(self, report):
        assert len(report.programs) == 6
        for record in report.programs:
            assert record.lint_ok
            assert record.obligations > 0
            assert len(record.obligations_digest) == 16
            assert record.explore_candidates > 0

    def test_report_round_trips_through_json(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["count"] == 6
        assert len(payload["programs"]) == 6


class TestVerifyLegs:
    def test_legs_agree_signature_by_signature(self):
        generated = synthesize_corpus(5, 4)
        left = verify_leg(generated, backend="tree")
        right = verify_leg(generated, backend="compiled")
        for item in generated:
            assert (
                compare_signatures(
                    item.name, "tree", left[item.name], "compiled", right[item.name]
                )
                is None
            )

    def test_compare_signatures_reports_first_mismatch(self):
        a = VerifySignature(
            verified=True, error="", fingerprints=("f1",), statuses=("valid",),
            models=(None,),
        )
        b = VerifySignature(
            verified=False, error="", fingerprints=("f1",), statuses=("invalid",),
            models=((("x", "0"),),),
        )
        divergence = compare_signatures("p", "left", a, "right", b)
        assert divergence is not None
        assert divergence.stage == "verify"
        assert "verdict" in divergence.detail


class TestShrinking:
    def test_shrink_deletes_every_non_load_bearing_statement(self):
        generated = ProgramSynthesizer(0).generate(1)
        # Synthetic oracle: "diverges" iff the program still contains a
        # relax statement.  Everything else should be shrunk away.
        def still_fails(source):
            return "relax" in source

        shrunk = shrink_source(generated.source, still_fails)
        assert "relax" in shrunk
        assert len(shrunk) < len(generated.source)
        assert "while" not in shrunk  # loops are not load-bearing here
        parse_program(shrunk)  # still well-formed concrete syntax

    def test_shrink_program_keeps_failing_predicate_true(self):
        generated = ProgramSynthesizer(3).generate(0)

        def still_fails(source):
            return "assume" in source

        shrunk = shrink_program(generated.program, still_fails)
        from repro.lang.pretty import pretty_program

        assert "assume" in pretty_program(shrunk)

    def test_shrink_survives_crashing_predicate(self):
        generated = ProgramSynthesizer(3).generate(2)

        def boom(source):
            raise RuntimeError("oracle crashed")

        shrunk = shrink_program(generated.program, boom)
        # A crashing oracle counts as "does not fail": nothing is deleted.
        assert shrunk == generated.program

    def test_write_reproducer_fixture_layout(self, tmp_path):
        divergence = Divergence(
            program="fuzz-s0-0001",
            stage="verify",
            left="backend=compiled",
            right="backend=tree",
            detail="obligation statuses differ",
            left_value=["valid"],
            right_value=["invalid"],
            shrunk_source="// program: fuzz-s0-0001\nvars x;\nx = 1;\n",
        )
        fixture = Path(write_reproducer(str(tmp_path), divergence))
        assert (fixture / "program.rlx").read_text().startswith("// program")
        record = json.loads((fixture / "divergence.json").read_text())
        assert record["stage"] == "verify"
        assert record["left"] == "backend=compiled"
        assert record["shrunk_source"]


class TestGeneratedStudyAdapter:
    def test_workloads_satisfy_generated_assumes(self):
        generated = ProgramSynthesizer(2).generate(0)
        study = generated_study(generated.name, generated.source)
        program = study.build_program()
        for state in study.workloads(5, seed=1):
            for name in program.variables:
                assert 1 <= state.scalar(name) <= 4

    def test_workloads_are_seed_deterministic(self):
        generated = ProgramSynthesizer(2).generate(1)
        study = generated_study(generated.name, generated.source)
        assert study.workloads(3, seed=9) == study.workloads(3, seed=9)
        assert study.workloads(3, seed=9) != study.workloads(3, seed=10)
