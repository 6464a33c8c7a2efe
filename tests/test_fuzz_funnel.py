"""The differential funnel: parity legs, divergence shrinking, reproducers.

A small fixed-seed corpus runs the real funnel end-to-end (this is the
CI ``fuzz-smoke`` job's little sibling); the shrinking and fixture-writing
machinery is additionally exercised on *planted* divergences, one per leg,
since a healthy tree never produces a real one.
"""

import dataclasses
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
from repro.fuzz import funnel
from repro.fuzz.funnel import (
    Divergence,
    VerifySignature,
    compare_observations,
    funnel_legs,
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
        assert report.verify_legs == ["cache=cold", "cache=warm", "jobs=2"]
        assert report.explore_legs == [
            "strategy=exhaustive",
            "strategy=beam,width=1000000",
            "jobs=2",
        ]
        payload = report.as_dict()
        assert "backends" not in payload
        assert payload["verify_legs"] == report.verify_legs
        assert payload["explore_legs"] == report.explore_legs

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
        legs = funnel_legs(jobs=2)["verify"]
        runs = funnel._run_stage(legs, generated, funnel._ExploreSettings(5, 1, 3))
        assert list(runs) == ["cache=cold", "cache=warm", "jobs=2"]
        base, *others = legs
        for leg in others:
            for item in generated:
                assert funnel._leg_divergence(base, leg, item.name, runs) is None

    def test_compare_observations_reports_every_differing_field(self):
        a = VerifySignature(
            verified=True, error="", fingerprints=("f1",), statuses=("valid",),
            models=(None,),
        )
        b = VerifySignature(
            verified=False, error="", fingerprints=("f1",), statuses=("invalid",),
            models=((("x", "0"),),),
        )
        divergence = compare_observations(
            "verify", "p", "left", a.as_dict(), "right", b.as_dict()
        )
        assert divergence is not None
        assert divergence.stage == "verify"
        assert divergence.detail == (
            "verified, statuses, models differ between left and right"
        )
        assert divergence.left_value == {
            "verified": True, "statuses": ["valid"], "models": [None],
        }
        assert compare_observations(
            "verify", "p", "left", a.as_dict(), "right", a.as_dict()
        ) is None


def _perturb(observation):
    """A leg's observation of one program, deliberately made to disagree."""
    if isinstance(observation, VerifySignature):
        return dataclasses.replace(observation, verified=not observation.verified)
    return dict(observation, verified_candidates=observation["verified_candidates"] + 1)


_PLANTED = [
    (stage, leg.label)
    for stage, legs in funnel_legs(jobs=2).items()
    for leg in legs[1:]
]


class TestPlantedDivergences:
    """Every non-baseline leg records, shrinks and writes its divergence."""

    @pytest.mark.parametrize(
        "stage,label", _PLANTED, ids=[f"{stage}-{label}" for stage, label in _PLANTED]
    )
    def test_divergence_is_recorded_shrunk_and_written(
        self, stage, label, monkeypatch, tmp_path
    ):
        generated = synthesize_corpus(4, 2)
        target = generated[0]
        observe = funnel._observe

        def planted(leg, programs, settings, cache_dir):
            runs = observe(leg, programs, settings, cache_dir)
            if (leg.stage, leg.label) == (stage, label) and target.name in runs:
                runs[target.name] = _perturb(runs[target.name])
            return runs

        monkeypatch.setattr(funnel, "_observe", planted)
        report = run_fuzz(
            seed=4, count=2, depth=1, jobs=2, samples=2,
            divergence_dir=str(tmp_path),
        )
        assert not report.ok
        assert [(d.program, d.stage, d.right) for d in report.divergences] == [
            (target.name, stage, label)
        ]
        assert [record.divergences for record in report.programs] == [1, 0]
        divergence = report.divergences[0]
        assert divergence.left == funnel_legs(jobs=2)[stage][0].label
        # The plant survives every deletion, so the shrinker must make progress.
        assert divergence.shrunk_source
        assert len(divergence.shrunk_source) < len(target.source)
        fixture = Path(divergence.fixture_dir)
        assert fixture.parent == tmp_path
        assert (fixture / "program.rlx").read_text() == divergence.shrunk_source
        record = json.loads((fixture / "divergence.json").read_text())
        assert (record["stage"], record["left"], record["right"]) == (
            stage, divergence.left, label,
        )


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
            left="cache=cold",
            right="cache=warm",
            detail="obligation statuses differ",
            left_value=["valid"],
            right_value=["invalid"],
            shrunk_source="// program: fuzz-s0-0001\nvars x;\nx = 1;\n",
        )
        fixture = Path(write_reproducer(str(tmp_path), divergence))
        assert (fixture / "program.rlx").read_text().startswith("// program")
        record = json.loads((fixture / "divergence.json").read_text())
        assert record["stage"] == "verify"
        assert record["left"] == "cache=cold"
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
