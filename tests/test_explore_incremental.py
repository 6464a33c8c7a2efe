"""Incremental re-verification + guided frontier search (repro.explore).

Covers the search-session verdict store (obligations settled once per
search, UNKNOWN replay included), the generational explorer's strategy
parity guarantee — a beam wide enough to hold every generation produces
byte-identical verified sets, Pareto frontiers, obligation fingerprints
and verdicts to the exhaustive walk, for every registered case study —
the warm-cache zero-solver-call property, the frontier scheduler, and the
fixed cap-accounting semantics of candidate enumeration.

The parity property runs each study at the deepest affordable
configuration: depth 2 for the cheap studies, depth 1 with a tight
candidate cap for the two whose relaxed children take tens of solver
seconds each (stencil, pipeline).  Both strategy runs share one persistent
cache directory so the second run answers conclusive obligations without
solver calls — verdicts are unaffected (the cache replays, never decides).
"""

import json
import time

import pytest

from repro.cli import main
from repro.engine import VerdictStore
from repro.explore import (
    STRATEGIES,
    CandidateSpace,
    FrontierScheduler,
    RewardTable,
    enumerate_candidates,
    explore,
)
from repro.casestudies.lu import LU
from repro.hoare.obligations import (
    ObligationKind,
    ObligationResult,
    ProofObligation,
    ProofSystem,
)
from repro.logic.formula import eq, sym, var
from repro.solver.lia import Status


def _obligation(value: int) -> ProofObligation:
    return ProofObligation(
        formula=eq(var(sym("x")), value),
        kind=ObligationKind.SATISFIABILITY,
        system=ProofSystem.ORIGINAL,
        rule="test",
        description="test obligation",
    )


class TestVerdictStore:
    def test_records_and_replays(self):
        store = VerdictStore()
        obligation = _obligation(1)
        assert store.get("key") is None
        store.record(
            "key",
            ObligationResult(
                obligation=obligation,
                status=Status.SAT,
                counterexample={sym("x"): 1},
                elapsed_seconds=0.5,
                reason="found model",
            ),
        )
        verdict = store.get("key")
        assert verdict is not None
        assert verdict.status is Status.SAT
        assert verdict.model == {sym("x"): 1}
        assert verdict.reason == "found model"

    def test_replays_unknown_verdicts(self):
        # Unlike the persistent cache (which refuses UNKNOWN so bigger
        # budgets can retry), the session store replays it — matching the
        # engine's in-wave dedup contract, which is what keeps a
        # generational search byte-identical to a single exhaustive wave.
        store = VerdictStore()
        store.record(
            "key",
            ObligationResult(
                obligation=_obligation(1), status=Status.UNKNOWN, reason="budget"
            ),
        )
        verdict = store.get("key")
        assert verdict is not None
        assert verdict.status is Status.UNKNOWN

    def test_counters_partition_the_total(self):
        store = VerdictStore()
        result = ObligationResult(obligation=_obligation(1), status=Status.SAT)
        store.record("a", result)
        store.record("b", result)
        assert store.get("a") is not None
        assert store.get("a") is not None
        assert store.get("missing") is None
        assert store.reused == 2
        assert store.delta == 2
        assert store.total == 4
        assert store.reuse_rate == 0.5
        stats = store.stats()
        assert stats["reused"] == 2.0
        assert stats["delta_obligations"] == 2.0
        assert stats["total_obligations"] == 4.0
        assert stats["store_entries"] == 2.0
        assert len(store) == 2


class TestRewardTable:
    def test_untried_kind_is_optimistic(self):
        table = RewardTable()
        assert table.expected("perforate-loop") == 1.0

    def test_mean_reward(self):
        table = RewardTable()
        table.record("dynamic-knob", 0.4)
        table.record("dynamic-knob", 0.2)
        assert table.expected("dynamic-knob") == pytest.approx(0.3)
        payload = table.as_dict()
        assert payload["dynamic-knob"]["count"] == 2.0
        assert payload["dynamic-knob"]["mean"] == pytest.approx(0.3)


class TestFrontierScheduler:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FrontierScheduler(strategy="random")
        with pytest.raises(ValueError):
            FrontierScheduler(strategy="beam", beam_width=0)
        assert set(STRATEGIES) == {"exhaustive", "beam"}

    def test_exhaustive_keeps_everything(self):
        scheduler = FrontierScheduler(strategy="exhaustive", beam_width=1)
        outcomes = list(range(10))  # select() is shape-agnostic on this path
        assert scheduler.select(outcomes) == outcomes
        assert scheduler.pruned == 0

    def test_beam_truncates_and_preserves_discovery_order(self):
        class FakeSite:
            kind = "dynamic-knob"

        class FakeCandidate:
            def __init__(self, applied):
                self.applied = applied

        class FakeScore:
            def __init__(self, savings):
                self.savings = savings

        class FakeOutcome:
            def __init__(self, verified, savings):
                self.candidate = FakeCandidate((FakeSite(),))
                self.verified = verified
                self.score = FakeScore(savings) if savings is not None else None

        outcomes = [
            FakeOutcome(True, 0.1),
            FakeOutcome(False, None),
            FakeOutcome(True, 0.9),
            FakeOutcome(True, 0.5),
        ]
        scheduler = FrontierScheduler(strategy="beam", beam_width=2)
        kept = scheduler.select(outcomes)
        # The two best verified outcomes survive, returned in discovery
        # order (index 2 before 3 would be wrong: 2 ranks first but was
        # discovered after 0; kept order must follow discovery).
        assert kept == [outcomes[2], outcomes[3]]
        assert scheduler.pruned == 2
        # Unverified candidates rank below every verified one.
        narrow = FrontierScheduler(strategy="beam", beam_width=3)
        assert narrow.select(outcomes) == [outcomes[0], outcomes[2], outcomes[3]]

    def test_wide_beam_is_exhaustive(self):
        scheduler = FrontierScheduler(strategy="beam", beam_width=100)
        outcomes = list(range(10))
        assert scheduler.select(outcomes) == outcomes
        assert scheduler.pruned == 0


class TestCapAccounting:
    def test_capped_counts_distinct_skipped_applications_once(self):
        case = LU
        program = case.build_program()
        sites = case.relaxation_sites(program)
        enumeration = enumerate_candidates(
            program, case.relaxation_sites, depth=2, max_candidates=3
        )
        assert len(enumeration.candidates) == 3
        # The cap bit while expanding generation 1: the first two site
        # applications were admitted, the rest of the baseline's sites were
        # skipped — each distinct (parent, site) application counted once.
        # Generation 2 was never expanded; phantom deeper skips are a
        # consequence of the cap, not additional distinct work.
        assert enumeration.capped == len(sites) - 2

    def test_cap_stops_deeper_generations(self):
        case = LU
        program = case.build_program()
        space = CandidateSpace(program, case.relaxation_sites, max_candidates=3)
        first = space.expand([space.baseline], level=1)
        assert len(first) == 2
        assert space.exhausted
        assert space.expand(first, level=2) == []
        capped_after_stop = space.capped
        # Re-expanding after exhaustion never inflates the count.
        assert space.expand(first, level=3) == []
        assert space.capped == capped_after_stop

    def test_parent_links(self):
        case = LU
        program = case.build_program()
        enumeration = enumerate_candidates(
            program, case.relaxation_sites, depth=2, max_candidates=64
        )
        baseline = enumeration.candidates[0]
        assert baseline.parent_fingerprint == ""
        by_fingerprint = {c.fingerprint: c for c in enumeration.candidates}
        for candidate in enumeration.candidates[1:]:
            parent = by_fingerprint[candidate.parent_fingerprint]
            assert parent.depth == candidate.depth - 1
            assert candidate.site_ids[:-1] == parent.site_ids


#: Per-study parity configuration: the deepest depth/cap affordable in a
#: tier-1 run.  The stencil and pipeline studies verify relaxed children in
#: tens of solver seconds each, so they run shallow and tightly capped.
PARITY_CONFIGS = {
    "swish-dynamic-knobs": dict(depth=2, max_candidates=12),
    "water-parallelization": dict(depth=2, max_candidates=48),
    "lu-approximate-memory": dict(depth=2, max_candidates=48),
    "sum-reduction-perforation": dict(depth=2, max_candidates=48),
    "bnb-early-exit": dict(depth=2, max_candidates=48),
    "stencil-approx-memory": dict(depth=1, max_candidates=2),
    "pipeline-two-knobs": dict(depth=1, max_candidates=48),
}


def _signature(report):
    """Everything parity is stated over, per candidate in discovery order."""
    return [
        (
            outcome.candidate.fingerprint,
            outcome.candidate.parent_fingerprint,
            outcome.verified,
            outcome.pareto,
            outcome.obligation_fingerprints,
            outcome.obligation_statuses,
            outcome.obligations_digest(),
        )
        for outcome in report.outcomes
    ]


class TestStrategyParity:
    def test_every_registered_study_is_covered(self):
        from repro.casestudies import all_case_studies

        registered = {case.name for case in all_case_studies()}
        assert registered == set(PARITY_CONFIGS), (
            "every registered case study needs a parity configuration; "
            "update PARITY_CONFIGS for new studies"
        )

    @pytest.mark.parametrize("name", sorted(PARITY_CONFIGS))
    def test_full_width_beam_matches_exhaustive(self, name, tmp_path):
        config = PARITY_CONFIGS[name]
        cache_dir = str(tmp_path / "cache")
        exhaustive = explore(
            name, samples=2, seed=0, cache_dir=cache_dir, **config
        )
        beam = explore(
            name,
            samples=2,
            seed=0,
            cache_dir=cache_dir,
            strategy="beam",
            beam_width=10_000,
            **config,
        )
        assert _signature(beam) == _signature(exhaustive)
        # The beam Pareto frontier is (superset-or-)equal to the exhaustive
        # one — here byte-identical, fingerprints and verdicts included.
        assert {o.candidate.fingerprint for o in beam.frontier} == {
            o.candidate.fingerprint for o in exhaustive.frontier
        }
        assert [o.obligations_digest() for o in beam.frontier] == [
            o.obligations_digest() for o in exhaustive.frontier
        ]
        assert beam.beam_pruned == 0
        # Incremental accounting partitions the pooled total on both paths.
        for report in (exhaustive, beam):
            assert (
                report.incremental["reused"] + report.incremental["delta_obligations"]
                == report.incremental["total_obligations"]
            )
            assert report.incremental["total_obligations"] == sum(
                outcome.obligations for outcome in report.outcomes
            )


class TestIncrementalGate:
    def test_deep_search_reuses_parent_verdicts(self):
        report = explore("lu", depth=2, samples=2, seed=0)
        assert report.incremental["reused"] > 0
        assert report.reuse_rate >= 0.6
        # Per-candidate accounting is consistent with the session totals.
        assert report.incremental["reused"] == sum(
            outcome.reused_obligations for outcome in report.outcomes
        )
        assert report.incremental["delta_obligations"] == sum(
            outcome.delta_obligations for outcome in report.outcomes
        )
        # The baseline generation sees a cold store: everything is delta.
        baseline = report.outcomes[0]
        assert baseline.reused_obligations == 0
        assert baseline.delta_obligations == baseline.obligations
        # Engine statistics mirror the store's counters.
        assert report.engine_stats["incremental_reused"] == report.incremental["reused"]
        assert (
            report.engine_stats["delta_obligations"]
            == report.incremental["delta_obligations"]
        )

    def test_depth_four_beam_reuses_parent_verdicts(self):
        report = explore(
            "lu", depth=4, samples=5, seed=0, strategy="beam", beam_width=6
        )
        assert report.reuse_rate >= 0.6
        assert any(outcome.candidate.depth >= 3 for outcome in report.outcomes)

    def test_warm_cache_rerun_discharges_zero_solver_calls(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = explore("lu", depth=2, samples=2, seed=0, cache_dir=cache_dir)
        warm = explore("lu", depth=2, samples=2, seed=0, cache_dir=cache_dir)
        assert cold.engine_stats["solver_calls"] > 0
        assert warm.engine_stats["solver_calls"] == 0
        assert _signature(warm) == _signature(cold)

    def test_beam_run_is_deterministic(self):
        one = explore("lu", depth=2, samples=2, seed=0, strategy="beam", beam_width=4)
        two = explore("lu", depth=2, samples=2, seed=0, strategy="beam", beam_width=4)
        assert _signature(one) == _signature(two)
        assert one.reward_table == two.reward_table
        assert one.beam_pruned == two.beam_pruned

    def test_narrow_beam_prunes(self):
        exhaustive = explore("lu", depth=2, samples=2, seed=0)
        narrow = explore("lu", depth=2, samples=2, seed=0, strategy="beam", beam_width=2)
        assert narrow.beam_pruned > 0
        assert narrow.candidates < exhaustive.candidates
        # Every beam candidate is an exhaustive candidate (the beam only
        # prunes, never invents), with identical obligations and verdicts.
        exhaustive_digests = {
            o.candidate.fingerprint: o.obligations_digest()
            for o in exhaustive.outcomes
        }
        for outcome in narrow.outcomes:
            assert (
                exhaustive_digests[outcome.candidate.fingerprint]
                == outcome.obligations_digest()
            )

    def test_search_budget_truncates(self):
        report = explore(
            "lu", depth=3, samples=2, seed=0, search_budget_seconds=1e-6
        )
        assert report.truncated
        # Only the baseline generation ran before the budget bit.
        assert all(outcome.candidate.depth == 0 for outcome in report.outcomes)

    def test_search_budget_drops_the_ungated_lookahead_generation(self, monkeypatch):
        # The exhaustive search collects generation 2 before it books
        # generation 1; a budget that runs out at that booking must report
        # generations 0 and 1 only, as a depth-1 search does.
        from repro.explore import explorer

        class Clock:
            offset = 0.0

            @staticmethod
            def perf_counter():
                return time.perf_counter() + Clock.offset

        finish_wave = explorer._finish_wave

        def finish_then_spend_the_budget(case, collected, report, level):
            outcomes = finish_wave(case, collected, report, level)
            if level == 1:
                Clock.offset = 1000.0
            return outcomes

        monkeypatch.setattr(explorer, "time", Clock)
        monkeypatch.setattr(explorer, "_finish_wave", finish_then_spend_the_budget)
        truncated = explore("lu", depth=2, samples=2, seed=0, search_budget_seconds=100)
        monkeypatch.undo()
        depth1 = explore("lu", depth=1, samples=2, seed=0)
        assert truncated.truncated
        assert [o.candidate.fingerprint for o in truncated.outcomes] == [
            o.candidate.fingerprint for o in depth1.outcomes
        ]
        def counts(report):
            return (
                report.inapplicable_sites,
                report.capped_candidates,
                report.duplicate_candidates,
            )

        assert counts(truncated) == counts(depth1)
        # Generation 2 folds duplicates, so the drop is visible.
        assert explore("lu", depth=2, samples=2, seed=0).duplicate_candidates > 0

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            explore("lu", depth=1, samples=2, strategy="random")


class TestReportSurfacing:
    def test_summary_reports_duplicates_and_inapplicable(self):
        from repro.explore.explorer import ExploreReport

        report = ExploreReport(case_study="lu", depth=2, samples=2, seed=0)
        report.duplicate_candidates = 9
        report.inapplicable_sites = 4
        summary = report.summary()
        assert "9 structurally duplicate candidates" in summary
        assert "4 site applications" in summary and "stale anchors" in summary

    def test_summary_reports_incremental_reuse(self):
        report = explore("lu", depth=2, samples=2, seed=0)
        summary = report.summary()
        assert "incremental gate" in summary
        assert "reuse rate" in summary
        assert "structurally duplicate" in summary  # lu depth 2 folds dupes

    def test_as_dict_carries_search_keys(self):
        report = explore("lu", depth=1, samples=2, seed=0, strategy="beam", beam_width=3)
        payload = report.as_dict()
        assert payload["strategy"] == "beam"
        assert payload["beam_width"] == 3
        assert "beam_pruned" in payload and "truncated" in payload
        assert payload["incremental"]["total_obligations"] > 0
        assert isinstance(payload["reward_table"], dict)
        for row in payload["results"]:
            assert "parent" in row
            assert "reused_obligations" in row and "delta_obligations" in row
            assert "obligations_digest" in row


class TestExploreCliStrategies:
    def test_beam_flags_and_envelope(self, tmp_path, capsys):
        json_path = tmp_path / "explore.json"
        exit_code = main(
            [
                "explore",
                "lu",
                "--depth",
                "2",
                "--samples",
                "2",
                "--strategy",
                "beam",
                "--beam-width",
                "4",
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        from repro.cli_report import validate_payload

        assert validate_payload(payload) is None
        assert payload["strategy"] == "beam"
        assert payload["beam_width"] == 4
        assert payload["incremental"]["reuse_rate"] >= 0.6
        out = capsys.readouterr().out
        assert "incremental gate" in out

    def test_bad_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "lu", "--beam-width", "0"])
        with pytest.raises(SystemExit):
            main(["explore", "lu", "--search-budget", "0"])
        with pytest.raises(SystemExit):
            main(["explore", "lu", "--strategy", "random"])
