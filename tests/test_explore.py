"""Tests for the relaxation-space explorer (repro.explore)."""

import json

import pytest

from repro.casestudies.lu import LU
from repro.cli import main
from repro.diagnostics.explain import explain_case_study
from repro.engine import ObligationEngine, program_items, verify_batch
from repro.explore import (
    enumerate_candidates,
    estimated_savings,
    explore,
    pareto_flags,
    program_fingerprint,
    resolve_case_study,
    score_candidate,
)
from repro.explore.candidates import Candidate
from repro.hoare.verifier import AcceptabilitySpec, AcceptabilityVerifier
from repro.lang import builder as b
from repro.lang import source
from repro.lang.pretty import pretty_program, print_with_spans


class TestFingerprint:
    def test_name_independent(self):
        one = b.program("one", b.assign("x", 1), variables=("x",))
        two = b.program("two", b.assign("x", 1), variables=("x",))
        assert program_fingerprint(one) == program_fingerprint(two)

    def test_body_sensitive(self):
        one = b.program("p", b.assign("x", 1), variables=("x",))
        two = b.program("p", b.assign("x", 2), variables=("x",))
        assert program_fingerprint(one) != program_fingerprint(two)

    def test_declaration_sensitive(self):
        one = b.program("p", b.assign("x", 1), variables=("x",))
        two = b.program("p", b.assign("x", 1), variables=("x", "y"))
        assert program_fingerprint(one) != program_fingerprint(two)


class TestEnumeration:
    def test_depth_zero_is_baseline_only(self):
        case = LU
        program = case.build_program()
        enumeration = enumerate_candidates(program, case.relaxation_sites, depth=0)
        assert [candidate.depth for candidate in enumeration.candidates] == [0]
        assert enumeration.candidates[0].program is program

    def test_depth_one_covers_every_site(self):
        case = LU
        program = case.build_program()
        sites = case.relaxation_sites(program)
        enumeration = enumerate_candidates(program, case.relaxation_sites, depth=1)
        assert len(enumeration.candidates) == 1 + len(sites)
        names = [candidate.name for candidate in enumeration.candidates]
        assert len(names) == len(set(names))

    def test_depth_two_composes_and_dedups(self):
        case = LU
        program = case.build_program()
        enumeration = enumerate_candidates(
            program, case.relaxation_sites, depth=2, max_candidates=64
        )
        assert any(candidate.depth == 2 for candidate in enumeration.candidates)
        fingerprints = [c.fingerprint for c in enumeration.candidates]
        assert len(fingerprints) == len(set(fingerprints))

    def test_cap_is_reported_not_silent(self):
        case = LU
        program = case.build_program()
        enumeration = enumerate_candidates(
            program, case.relaxation_sites, depth=2, max_candidates=3
        )
        assert len(enumeration.candidates) == 3
        assert enumeration.capped > 0

    def test_candidates_are_printed_once_at_enumeration(self, monkeypatch):
        case = LU
        program = case.build_program()
        enumeration = enumerate_candidates(program, case.relaxation_sites, depth=2)
        printed = []

        def counting_print(program):
            printed.append(program.name)
            return print_with_spans(program)

        monkeypatch.setattr(source, "print_with_spans", counting_print)
        verifier = AcceptabilityVerifier(engine=ObligationEngine())
        for candidate in enumeration.candidates:
            verifier.collect(candidate.program, case.acceptability_spec(candidate.program))
        assert printed == []
        # Each child carries its own printed form, headed by its name (the
        # baseline keeps the study's source).
        children = enumeration.candidates[1:]
        assert children
        for candidate in children:
            text = candidate.program.source
            assert text == pretty_program(candidate.program)
            assert text.startswith(f"// program: {candidate.name}\n")

    def test_invalid_parameters(self):
        case = LU
        program = case.build_program()
        with pytest.raises(ValueError):
            enumerate_candidates(program, case.relaxation_sites, depth=-1)
        with pytest.raises(ValueError):
            enumerate_candidates(program, case.relaxation_sites, max_candidates=0)


class TestPareto:
    def test_frontier_flags(self):
        points = [(0.0, 0.0), (1.0, 0.5), (2.0, 0.4), (2.0, 0.9)]
        assert pareto_flags(points) == [True, True, False, True]

    def test_duplicates_both_kept(self):
        assert pareto_flags([(1.0, 0.5), (1.0, 0.5)]) == [True, True]

    def test_empty(self):
        assert pareto_flags([]) == []


class TestScoring:
    def test_savings_bounds(self):
        assert estimated_savings(0.0, 0.0) == 0.0
        assert 0.0 < estimated_savings(0.0, 4.0) < 0.5
        assert estimated_savings(1.0, 100.0) == 1.0

    def test_score_baseline_lu(self):
        case = LU
        program = case.build_program()
        score = score_candidate(case, program, samples=4, seed=0)
        assert score.samples == 8  # 4 workloads x 2 policies
        assert score.errors == 0
        assert score.relate_violations == 0
        assert score.distortion_max <= 8  # never beyond the largest error bound
        assert 0.0 <= score.savings <= 1.0

    def test_score_is_reproducible(self):
        case = LU
        program = case.build_program()
        one = score_candidate(case, program, samples=4, seed=7)
        two = score_candidate(case, program, samples=4, seed=7)
        assert one.as_dict() == two.as_dict()


class TestExplorePipeline:
    def test_lu_depth_one(self, tmp_path):
        report = explore("lu", depth=1, samples=4, seed=0)
        assert report.candidates >= 5
        rejected = [o for o in report.outcomes if not o.verified]
        assert rejected, "expected at least one statically rejected candidate"
        # Statically rejected candidates are never scored (the gate is hard).
        assert all(outcome.score is None for outcome in rejected)
        assert all(outcome.score is not None for outcome in report.survivors)
        assert report.frontier
        payload = report.as_dict()
        assert payload["candidates"] == report.candidates
        assert "cache" in payload and "engine" in payload
        csv_text = report.to_csv()
        assert csv_text.count("\n") == report.candidates + 1

    def test_rejected_candidates_carry_failure_attribution(self):
        report = explore("lu", depth=1, samples=2, seed=0)
        rejected = [
            o for o in report.outcomes if not o.verified and not o.error
        ]
        assert rejected, "expected statically rejected candidates"
        for outcome in rejected:
            assert outcome.failures, f"{outcome.name} has no failure attribution"
            failure = outcome.failures[0]
            # Attribution names the rule, the source location and the sites
            # of *this* candidate, so rejections are debuggable per row.
            assert failure["rule"]
            assert failure["location"].startswith("line")
            assert failure["sites"] == list(outcome.candidate.site_ids)
            assert failure["status"] in ("invalid", "unknown", "unsat")
        # Survivors carry none, and the JSON only includes the key when set.
        for outcome in report.survivors:
            assert outcome.failures == []
            assert "failures" not in outcome.as_dict()
        assert "failures" in rejected[0].as_dict()

    def test_attribution_never_rechecks_the_model(self, monkeypatch):
        from repro.diagnostics import report as report_module

        def forbidden(*args, **kwargs):
            raise AssertionError("explore must not re-check counterexamples")

        monkeypatch.setattr(report_module, "_reevaluate_with_arrays", forbidden)
        monkeypatch.setattr(report_module, "evaluate_atoms", forbidden)
        report = explore("lu", depth=1, samples=2, seed=0)
        rejected = [
            o for o in report.outcomes if not o.verified and not o.error
        ]
        assert rejected, "expected statically rejected candidates"
        assert all(outcome.failures for outcome in rejected)

    def test_failures_agree_with_explain(self):
        # The attribution stage and the full diagnostic share provenance
        # code, so a row's failures are what `repro explain` attributes.
        report = explore("lu", depth=1, samples=2, seed=0)
        rejected = [
            o for o in report.outcomes if not o.verified and not o.error
        ]
        assert rejected, "expected statically rejected candidates"
        for outcome in rejected:
            explained = explain_case_study("lu", outcome.candidate.site_ids)
            assert outcome.failures == [
                diagnostic.attribution() for diagnostic in explained.diagnostics
            ]

    def test_warm_cache_round_has_strictly_higher_hit_rate(self, tmp_path):
        cache_dir = str(tmp_path / "explore-cache")
        first = explore("lu", depth=1, samples=2, seed=0, cache_dir=cache_dir)
        second = explore("lu", depth=1, samples=2, seed=0, cache_dir=cache_dir)
        assert second.cache_hit_rate > first.cache_hit_rate
        assert second.cache_hit_rate == 1.0
        # The same candidates verify either way.
        assert [o.verified for o in second.outcomes] == [
            o.verified for o in first.outcomes
        ]

    def test_resolve_case_study(self):
        assert resolve_case_study("lu").name == "lu-approximate-memory"
        assert resolve_case_study("lu-approximate-memory").name == "lu-approximate-memory"
        with pytest.raises(ValueError):
            resolve_case_study("nonexistent")

    def test_program_items_carries_construction_failures(self):
        items = program_items([("broken", None, AcceptabilitySpec())])
        report = verify_batch(items, engine=ObligationEngine())
        assert not report.all_verified
        assert report.programs[0].error


class TestExploreCli:
    def test_explore_command_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "explore.json"
        csv_path = tmp_path / "explore.csv"
        exit_code = main(
            [
                "explore",
                "lu",
                "--depth",
                "1",
                "--samples",
                "2",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert payload["candidates"] >= 5
        assert payload["verified_candidates"] >= 1
        assert payload["pareto_candidates"]
        assert "hits" in payload["cache"] and "misses" in payload["cache"]
        rejected = [r for r in payload["results"] if not r["verified"]]
        assert rejected and all(r["score"] is None for r in rejected)
        assert csv_path.read_text().startswith("name,depth,sites")

    def test_explore_depth_zero_baseline(self, capsys):
        assert main(["explore", "lu", "--depth", "0", "--samples", "2"]) == 0

    def test_explore_unknown_case_study(self):
        with pytest.raises(SystemExit):
            main(["explore", "nonexistent", "--depth", "0"])

    def test_explore_rejects_non_positive_budget(self):
        with pytest.raises(SystemExit, match="budget") as excinfo:
            main(["explore", "lu", "--depth", "0", "--budget", "-1"])
        assert excinfo.value.code not in (0, None)

    def test_explore_rejects_bad_flags(self):
        with pytest.raises(SystemExit):
            main(["explore", "lu", "--depth", "-1"])
        with pytest.raises(SystemExit):
            main(["explore", "lu", "--samples", "0"])
