"""Tests for choosers, execution enumeration and observational compatibility."""

import pytest

from repro import telemetry
from repro.casestudies import get_case_study
from repro.explore import explore
from repro.explore.scoring import score_candidate
from repro.lang import builder as b
from repro.lang.analysis import gamma
from repro.lang.parser import parse_program, parse_statement
from repro.semantics.choosers import (
    AdversarialChooser,
    ChooserError,
    FixedChoiceChooser,
    MinimalChangeChooser,
    RandomChooser,
    SolverChooser,
    relax_witnesses,
)
from repro.semantics.enumerate import EnumerationConfig, enumerate_executions
from repro.semantics.observation import check_compatibility, relational_holds
from repro.semantics.state import Observation, State, Terminated, is_error, is_wrong
from repro.telemetry import TelemetrySession


def relax_statement(text="relax (x) st (0 <= x && x <= 3);"):
    return parse_statement(text)


class TestRelaxWitnesses:
    """Which witness path serves each study's relax steps, and what it returns."""

    @staticmethod
    def _counters(run):
        with telemetry.activated(TelemetrySession()) as session:
            run()
        return {
            path: session.counters.get(f"semantics.choose.{path}", 0)
            for path in ("interval", "sweep")
        }

    def test_lu_depth_one_never_sweeps(self):
        counters = self._counters(lambda: explore("lu", depth=1, samples=2, seed=0))
        assert counters["sweep"] == 0
        assert counters["interval"] > 0

    def test_water_array_relax_sweeps(self):
        study = get_case_study("water")
        counters = self._counters(
            lambda: score_candidate(study, study.build_program(), samples=2, seed=0)
        )
        assert counters["sweep"] > 0

    def test_witnesses_follow_the_spread_order(self):
        stmt = relax_statement("relax (x) st (y - 2 <= x && x <= y + 2 && x != y);")
        state = State.of({"x": 0, "y": 10})
        assert relax_witnesses(stmt, state, radius=3, limit=3) == [
            {"x": 8},
            {"x": 9},
            {"x": 11},
        ]

    def test_unpinned_variable_takes_the_sweep(self):
        stmt = relax_statement("relax (x) st (x == y);")
        counters = self._counters(lambda: relax_witnesses(stmt, State.of({}), 1, 8))
        assert counters == {"interval": 0, "sweep": 1}


class TestChoosers:
    def test_solver_chooser_satisfies_predicate(self):
        stmt = relax_statement()
        state = SolverChooser().choose(stmt, State.of({"x": 9}))
        assert 0 <= state.scalar("x") <= 3

    def test_solver_chooser_returns_none_when_unsatisfiable(self):
        stmt = relax_statement("relax (x) st (x < x);")
        assert SolverChooser().choose(stmt, State.of({"x": 0})) is None

    def test_minimal_change_keeps_current_value(self):
        stmt = relax_statement()
        state = MinimalChangeChooser().choose(stmt, State.of({"x": 2}))
        assert state.scalar("x") == 2

    def test_minimal_change_falls_back_when_violated(self):
        stmt = relax_statement()
        state = MinimalChangeChooser().choose(stmt, State.of({"x": 9}))
        assert 0 <= state.scalar("x") <= 3

    def test_random_chooser_is_reproducible(self):
        stmt = relax_statement()
        first = RandomChooser(seed=7).choose(stmt, State.of({"x": 9}))
        second = RandomChooser(seed=7).choose(stmt, State.of({"x": 9}))
        assert first.scalar("x") == second.scalar("x")

    def test_random_chooser_stays_in_predicate(self):
        stmt = relax_statement("relax (x) st (y - 2 <= x && x <= y + 2);")
        state = RandomChooser(seed=1).choose(stmt, State.of({"x": 20, "y": 20}))
        assert 18 <= state.scalar("x") <= 22

    def test_adversarial_chooser_prefers_extremes(self):
        stmt = relax_statement("relax (x) st (0 - 3 <= x && x <= 3);")
        state = AdversarialChooser(radius=5).choose(stmt, State.of({"x": 0}))
        assert abs(state.scalar("x")) == 3

    def test_fixed_choice_script_then_fallback(self):
        stmt = relax_statement()
        chooser = FixedChoiceChooser([{"x": 1}])
        assert chooser.choose(stmt, State.of({"x": 9})).scalar("x") == 1
        # Script exhausted: falls back to a valid choice.
        assert 0 <= chooser.choose(stmt, State.of({"x": 2})).scalar("x") <= 3

    def test_fixed_choice_strict_raises_when_exhausted(self):
        stmt = relax_statement()
        chooser = FixedChoiceChooser([], strict=True)
        with pytest.raises(ChooserError):
            chooser.choose(stmt, State.of({"x": 1}))

    def test_array_target_constrained_by_predicate_rejected(self):
        stmt = parse_statement("relax (A) st (A[0] == 1);")
        with pytest.raises(ChooserError):
            SolverChooser().choose(stmt, State.of({}, arrays={"A": {0: 0}}))


class TestEnumeration:
    def test_enumerates_all_relax_choices(self):
        program = parse_statement("relax (x) st (0 <= x && x <= 2); y = x * 2;")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=True)
        values = sorted(o.state.scalar("y") for o in outcomes if isinstance(o, Terminated))
        assert values == [0, 2, 4]

    def test_original_semantics_is_deterministic_without_havoc(self):
        program = parse_statement("relax (x) st (0 <= x && x <= 2); y = x * 2;")
        outcomes = enumerate_executions(program, State.of({"x": 1}), relaxed=False)
        assert len(outcomes) == 1
        assert outcomes[0].state.scalar("y") == 2

    def test_havoc_enumerated_in_both_semantics(self):
        program = parse_statement("havoc (x) st (0 <= x && x <= 1);")
        for relaxed in (False, True):
            outcomes = enumerate_executions(program, State.of({"x": 5}), relaxed=relaxed)
            values = sorted(o.state.scalar("x") for o in outcomes)
            assert values == [0, 1]

    def test_loop_with_nondeterministic_body(self):
        program = parse_statement(
            "i = 0; s = 0; while (i < 2) { havoc (d) st (0 <= d && d <= 1); s = s + d; i = i + 1; }"
        )
        outcomes = enumerate_executions(program, State.of({"d": 0}), relaxed=False)
        sums = sorted(o.state.scalar("s") for o in outcomes)
        assert sums == [0, 1, 1, 2]

    def test_error_outcomes_are_enumerated(self):
        program = parse_statement("havoc (x) st (0 <= x && x <= 1); assert x == 0;")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=False)
        assert any(is_wrong(o) for o in outcomes)
        assert any(isinstance(o, Terminated) for o in outcomes)

    def test_unsatisfiable_havoc_yields_wrong(self):
        program = parse_statement("havoc (x) st (false);")
        outcomes = enumerate_executions(program, State.of({"x": 0}), relaxed=False)
        assert len(outcomes) == 1 and is_wrong(outcomes[0])

    def test_array_relax_enumeration(self):
        program = parse_statement("relax (A) st (true); x = A[0];")
        config = EnumerationConfig(array_choice_values=(0, 1))
        outcomes = enumerate_executions(
            program, State.of({"x": 0}, arrays={"A": {0: 5}}), relaxed=True, config=config
        )
        values = sorted(o.state.scalar("x") for o in outcomes)
        assert values == [0, 1]

    def test_sibling_array_choices_do_not_alias(self):
        """Two sibling array choices must never observe each other's writes.

        The havoc expansion builds each choice's contents from
        ``state.array(name)`` and updates it in place; if that dict were
        shared with the state's internal storage (or between iterations),
        one sibling's write would leak into the next sibling and into the
        pre-havoc state.  Every enumerated state must be exactly
        base-contents-plus-one-choice, and the initial state unchanged.
        """
        program = parse_statement("havoc (A) st (true);")
        initial = State.of({}, arrays={"A": {0: 7, 1: 7}})
        config = EnumerationConfig(array_choice_values=(-1, 0, 1))
        outcomes = enumerate_executions(program, initial, relaxed=True, config=config)
        assert len(outcomes) == 9  # 3 values ** 2 cells
        observed = {tuple(sorted(o.state.array("A").items())) for o in outcomes}
        expected = {
            ((0, a), (1, b)) for a in (-1, 0, 1) for b in (-1, 0, 1)
        }
        assert observed == expected
        # The pre-havoc state is untouched by any of the sibling choices.
        assert initial.array("A") == {0: 7, 1: 7}

    def test_sibling_scalar_and_array_choices_are_independent(self):
        program = parse_statement("havoc (x, A) st (0 <= x && x <= 1);")
        initial = State.of({"x": 9}, arrays={"A": {0: 5}})
        config = EnumerationConfig(array_choice_values=(0, 1))
        outcomes = enumerate_executions(program, initial, relaxed=True, config=config)
        combos = {(o.state.scalar("x"), o.state.array("A")[0]) for o in outcomes}
        assert combos == {(x, a) for x in (0, 1) for a in (0, 1)}
        assert initial.scalar("x") == 9 and initial.array("A") == {0: 5}


class TestCompatibility:
    def test_compatible_observations(self):
        program = parse_program("vars x; x = x + 0; relate l: x<o> <= x<r>;")
        psi_o = (Observation("l", State.of({"x": 1})),)
        psi_r = (Observation("l", State.of({"x": 2})),)
        assert check_compatibility(gamma(program), psi_o, psi_r)

    def test_violated_condition(self):
        program = parse_program("vars x; relate l: x<o> == x<r>;")
        psi_o = (Observation("l", State.of({"x": 1})),)
        psi_r = (Observation("l", State.of({"x": 2})),)
        result = check_compatibility(gamma(program), psi_o, psi_r)
        assert not result and "violated" in result.reason

    def test_length_mismatch(self):
        program = parse_program("vars x; relate l: x<o> == x<r>;")
        result = check_compatibility(gamma(program), (), (Observation("l", State.of({})),))
        assert not result and result.failing_index is None

    def test_label_mismatch(self):
        gamma = {"a": b.same("x"), "b": b.same("x")}
        result = check_compatibility(
            gamma,
            (Observation("a", State.of({"x": 1})),),
            (Observation("b", State.of({"x": 1})),),
        )
        assert not result and result.failing_index == 0

    def test_unknown_label(self):
        result = check_compatibility(
            {},
            (Observation("ghost", State.of({})),),
            (Observation("ghost", State.of({})),),
        )
        assert not result

    def test_relational_holds_with_arrays(self):
        condition = b.eq(b.oread("A", b.o("i")), b.rread("A", b.r("i")))
        original = State.of({"i": 0}, arrays={"A": {0: 7}})
        relaxed = State.of({"i": 0}, arrays={"A": {0: 7}})
        assert relational_holds(condition, original, relaxed)


class TestPerRunInvariantsAreHoisted:
    """Scoring translates each predicate and relate condition once per node,
    not once per sample, and scores the same as with fresh caches."""

    @staticmethod
    def _count_calls(monkeypatch, module, name):
        calls = {}
        translate = getattr(module, name)

        def counting(node):
            calls[id(node)] = calls.get(id(node), 0) + 1
            return translate(node)

        monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize("study", ["water-parallelization", "lu-approximate-memory"])
    def test_predicate_variables_once_per_node(self, monkeypatch, study):
        from repro.semantics import choosers

        case = get_case_study(study)
        program = case.build_program()
        expected = score_candidate(case, program, samples=25, seed=1).as_dict()
        monkeypatch.setattr(choosers, "_PLANS", {})
        calls = self._count_calls(monkeypatch, choosers, "bool_vars")
        assert score_candidate(case, program, samples=25, seed=1).as_dict() == expected
        assert calls and max(calls.values()) == 1

    def test_relate_conditions_translated_once_per_node(self, monkeypatch):
        from repro.semantics import observation

        case = get_case_study("lu-approximate-memory")
        program = case.build_program()
        expected = score_candidate(case, program, samples=25, seed=1).as_dict()
        monkeypatch.setattr(observation, "_FORMULAS", {})
        calls = self._count_calls(monkeypatch, observation, "formula_of_rel_bool")
        assert score_candidate(case, program, samples=25, seed=1).as_dict() == expected
        assert calls and max(calls.values()) == 1
