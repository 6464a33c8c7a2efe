"""Tests for the dynamic original and relaxed big-step interpreters."""

import pytest

from repro.lang import builder as b
from repro.lang.parser import parse_program, parse_statement
from repro.semantics.choosers import FixedChoiceChooser, MinimalChangeChooser, SolverChooser
from repro.semantics.interpreter import (
    Interpreter,
    NonTerminationError,
    eval_bool,
    eval_expr,
    run_original,
    run_relaxed,
)
from repro.semantics.state import State, Terminated, is_bad_assume, is_error, is_wrong


class TestExpressionEvaluation:
    def test_arithmetic(self):
        state = State.of({"x": 3, "y": 4})
        assert eval_expr(b.add(b.mul("x", 2), "y"), state) == 10

    def test_array_read(self):
        state = State.of({"i": 1}, arrays={"A": {0: 5, 1: 9}})
        assert eval_expr(b.aread("A", "i"), state) == 9

    def test_boolean(self):
        state = State.of({"x": 3})
        assert eval_bool(b.and_(b.gt("x", 0), b.not_(b.eq("x", 5))), state) is True


class TestBasicStatements:
    def test_assignment_sequence(self):
        program = parse_statement("x = 1; y = x + 2;")
        outcome = run_original(program, State.of({}))
        assert isinstance(outcome, Terminated)
        assert outcome.state.scalar_map() == {"x": 1, "y": 3}

    def test_array_assignment(self):
        program = parse_statement("A[i] = x * 2;")
        outcome = run_original(program, State.of({"i": 1, "x": 5}, arrays={"A": {}}))
        assert outcome.state.array_element("A", 1) == 10

    def test_assert_failure_is_wrong(self):
        outcome = run_original(parse_statement("assert x > 0;"), State.of({"x": 0}))
        assert is_wrong(outcome)

    def test_assume_failure_is_bad_assume(self):
        outcome = run_original(parse_statement("assume x > 0;"), State.of({"x": 0}))
        assert is_bad_assume(outcome)

    def test_undefined_variable_is_wrong(self):
        outcome = run_original(parse_statement("y = x + 1;"), State.of({}))
        assert is_wrong(outcome)

    def test_division_by_zero_is_wrong(self):
        outcome = run_original(parse_statement("y = x / z;"), State.of({"x": 1, "z": 0}))
        assert is_wrong(outcome)

    def test_if_branches(self):
        program = parse_statement("if (x < 0) { y = 0 - x; } else { y = x; }")
        assert run_original(program, State.of({"x": -4})).state.scalar("y") == 4
        assert run_original(program, State.of({"x": 4})).state.scalar("y") == 4

    def test_while_loop(self):
        program = parse_statement("s = 0; i = 0; while (i < n) { s = s + i; i = i + 1; }")
        outcome = run_original(program, State.of({"n": 5}))
        assert outcome.state.scalar("s") == 10

    def test_nontermination_raises(self):
        program = parse_statement("while (true) { x = x + 1; }")
        with pytest.raises(NonTerminationError):
            run_original(program, State.of({"x": 0}), fuel=50)

    def test_error_propagates_through_seq(self):
        program = parse_statement("assert false; x = 1;")
        outcome = run_original(program, State.of({}))
        assert is_wrong(outcome)

    def test_error_propagates_out_of_loop(self):
        program = parse_statement("i = 0; while (i < 3) { assert i < 2; i = i + 1; }")
        assert is_wrong(run_original(program, State.of({})))


class TestRelaxSemantics:
    SOURCE = """
    y = x;
    relax (x) st (y - 1 <= x && x <= y + 1);
    """

    def test_relax_is_noop_in_original_semantics(self):
        outcome = run_original(parse_statement(self.SOURCE), State.of({"x": 5}))
        assert outcome.state.scalar("x") == 5

    def test_relax_predicate_checked_in_original_semantics(self):
        # If the current values do not satisfy the relaxation predicate, the
        # original execution goes wrong (relax behaves like assert).
        source = "relax (x) st (x == 99);"
        outcome = run_original(parse_statement(source), State.of({"x": 5}))
        assert is_wrong(outcome)

    def test_relax_modifies_state_in_relaxed_semantics(self):
        chooser = FixedChoiceChooser([{"x": 6}])
        outcome = run_relaxed(parse_statement(self.SOURCE), State.of({"x": 5}), chooser=chooser)
        assert outcome.state.scalar("x") == 6

    def test_relaxed_choice_must_satisfy_predicate(self):
        # A scripted choice violating the predicate falls back to a valid one.
        chooser = FixedChoiceChooser([{"x": 50}])
        outcome = run_relaxed(parse_statement(self.SOURCE), State.of({"x": 5}), chooser=chooser)
        assert isinstance(outcome, Terminated)
        assert 4 <= outcome.state.scalar("x") <= 6

    def test_havoc_unsatisfiable_is_wrong_in_both(self):
        source = "havoc (x) st (x < x);"
        assert is_wrong(run_original(parse_statement(source), State.of({"x": 0})))
        assert is_wrong(run_relaxed(parse_statement(source), State.of({"x": 0})))

    def test_havoc_choice_satisfies_predicate(self):
        source = "havoc (x) st (3 <= x && x <= 4);"
        outcome = run_relaxed(parse_statement(source), State.of({"x": 0}), chooser=SolverChooser())
        assert 3 <= outcome.state.scalar("x") <= 4


class TestObservations:
    def test_relate_emits_observation(self):
        program = parse_statement("x = 1; relate l: x<o> == x<r>;")
        outcome = run_original(program, State.of({}))
        assert len(outcome.observations) == 1
        assert outcome.observations[0].label == "l"
        assert outcome.observations[0].state.scalar("x") == 1

    def test_observations_ordered_chronologically(self):
        program = parse_statement(
            "i = 0; while (i < 2) { relate step: i<o> == i<r>; i = i + 1; } relate end: true;"
        )
        outcome = run_original(program, State.of({}))
        assert [obs.label for obs in outcome.observations] == ["step", "step", "end"]

    def test_default_interpreter_choosers(self):
        original = Interpreter(relaxed=False)
        relaxed = Interpreter(relaxed=True)
        assert isinstance(original.chooser, MinimalChangeChooser)
        assert isinstance(relaxed.chooser, SolverChooser)

    def test_interpreter_accepts_program_objects(self):
        program = parse_program("vars x; x = 1; relate l: x<o> == x<r>;")
        outcome = Interpreter().run(program, State.of({}))
        assert isinstance(outcome, Terminated)


class TestCompiledExpressionCache:
    def test_precompile_populates_caches(self):
        from repro.semantics.interpreter import (
            clear_expr_cache,
            expr_cache_stats,
            precompile_program,
        )

        clear_expr_cache()
        program = parse_program(
            "vars x, y; arrays A; x = y + 1; if (x > 0) { A[0] = x * 2; } "
            "while (x < 5) { x = x + 1; } assert x >= 5;"
        )
        cached = precompile_program(program)
        assert cached > 0
        stats = expr_cache_stats()
        assert stats["exprs"] > 0 and stats["bools"] > 0
        # Statement closures, one set per semantics.
        assert stats["stmts"] == cached and cached % 2 == 0
        # Idempotent: a second pass compiles nothing new.
        assert precompile_program(program) == cached
        assert expr_cache_stats() == stats
        # Running the program reuses the precompiled closures.
        run_relaxed(program, State.of({"y": 1}, arrays={"A": {}}))
        assert expr_cache_stats() == stats
        clear_expr_cache()
        assert expr_cache_stats() == {"exprs": 0, "bools": 0, "stmts": 0}

    def test_statement_closures_are_per_semantics(self):
        from repro.semantics.interpreter import clear_expr_cache, expr_cache_stats

        clear_expr_cache()
        stmt = parse_statement("relax (x) st (x == 5);")
        # Under the original semantics relax is an assert...
        assert is_wrong(run_original(stmt, State.of({"x": 1})))
        assert expr_cache_stats()["stmts"] == 1
        # ...under the relaxed semantics a havoc, compiled separately.
        outcome = run_relaxed(stmt, State.of({"x": 1}))
        assert outcome.state.scalar("x") == 5
        assert expr_cache_stats()["stmts"] == 2

    def test_eval_uses_cached_closures_across_states(self):
        from repro.semantics.interpreter import expr_cache_stats

        expr = parse_statement("y = x * x + 1;").value
        before = expr_cache_stats()["exprs"]
        assert eval_expr(expr, State.of({"x": 3})) == 10
        after_first = expr_cache_stats()["exprs"]
        assert after_first > before
        assert eval_expr(expr, State.of({"x": -2})) == 5
        assert expr_cache_stats()["exprs"] == after_first

    def test_compiled_errors_match_uncompiled_semantics(self):
        stmt = parse_statement("x = 1 / y;")
        outcome = run_original(stmt, State.of({"y": 0}))
        assert is_wrong(outcome)
        outcome = run_original(stmt, State.of({}))
        assert is_wrong(outcome)


class TestStateStorage:
    def test_functional_updates_share_structure_safely(self):
        base = State.of({"x": 1}, arrays={"A": {0: 1, 1: 2}})
        left = base.set_scalar("x", 10)
        right = base.set_scalar("x", 20)
        assert base.scalar("x") == 1
        assert left.scalar("x") == 10 and right.scalar("x") == 20
        # Array stores are shared between derived states, but a write to
        # one must not surface in the others.
        written = left.set_array_element("A", 0, 99)
        assert written.array("A") == {0: 99, 1: 2}
        assert left.array("A") == base.array("A") == {0: 1, 1: 2}

    def test_handed_out_arrays_are_copies(self):
        state = State.of({}, arrays={"A": {0: 1}})
        contents = state.array(name="A")
        contents[0] = 42
        assert state.array("A") == {0: 1}
        mapping = state.array_map()
        mapping["A"][0] = 42
        assert state.array("A") == {0: 1}

    def test_hash_and_equality_ignore_insertion_order(self):
        forward = State.of({"a": 1, "b": 2}, arrays={"A": {0: 1, 1: 2}})
        backward = State.of({"b": 2, "a": 1}, arrays={"A": {1: 2, 0: 1}})
        assert forward == backward
        assert hash(forward) == hash(backward)
        assert len({forward, backward}) == 1

    def test_legacy_tuple_views_are_sorted(self):
        state = State.of({"b": 2, "a": 1}, arrays={"B": {1: 4}, "A": {0: 3}})
        assert state.scalars == (("a", 1), ("b", 2))
        assert state.arrays == (("A", ((0, 3),)), ("B", ((1, 4),)))
        assert state.variables() == ("a", "b")
        assert state.array_names() == ("A", "B")

    def test_state_pickles_by_value(self):
        import pickle

        state = State.of({"x": 7}, arrays={"A": {0: 1}})
        clone = pickle.loads(pickle.dumps(state))
        assert clone == state and hash(clone) == hash(state)
