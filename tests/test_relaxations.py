"""Tests for the relaxation transformations (Section 1's mechanism list)."""

import pytest

from repro.lang import builder as b
from repro.lang.analysis import contains_relax, no_rel
from repro.lang.ast import Assign, Relax, While
from repro.relaxations import (
    approximate_memoization,
    approximate_reads,
    dynamic_knob,
    eliminate_synchronization,
    perforate_loop,
    sample_reduction,
    skip_tasks,
)
from repro.semantics.choosers import FixedChoiceChooser
from repro.semantics.interpreter import run_original, run_relaxed
from repro.semantics.state import State, Terminated


def summation_program():
    loop = While(
        condition=b.lt("i", "n"),
        body=b.block(b.assign("s", b.add("s", "i")), b.assign("i", b.add("i", 1))),
        invariant=b.true,
    )
    return (
        b.program(
            "sum",
            b.assign("s", 0),
            b.assign("i", 0),
            loop,
            variables=("s", "i", "n"),
        ),
        loop,
    )


class TestLoopPerforation:
    def test_inserts_relax_and_stride(self):
        program, loop = summation_program()
        result = perforate_loop(program, loop, counter="i")
        assert contains_relax(result.program.body)
        assert "stride" in result.program.variables

    def test_original_semantics_unchanged(self):
        program, loop = summation_program()
        result = perforate_loop(program, loop, counter="i")
        original = run_original(result.program, State.of({"n": 6}))
        baseline = run_original(program, State.of({"n": 6}))
        assert original.state.scalar("s") == baseline.state.scalar("s")

    def test_relaxed_semantics_skips_iterations(self):
        program, loop = summation_program()
        result = perforate_loop(program, loop, counter="i", max_stride=2)
        relaxed = run_relaxed(
            result.program, State.of({"n": 6}), chooser=FixedChoiceChooser([{"stride": 2}])
        )
        assert isinstance(relaxed, Terminated)
        # Stride 2 sums only the even indices 0, 2, 4.
        assert relaxed.state.scalar("s") == 6


class TestDynamicKnob:
    def test_knob_relaxation_shape(self):
        program = b.program("serve", b.assign("served", "max_r"), variables=("served", "max_r"))
        result = dynamic_knob(program, knob="max_r", floor=10)
        assert isinstance(result.inserted_relax[0], Relax)
        assert "original_max_r" in result.program.variables

    def test_original_run_keeps_requested_value(self):
        program = b.program("serve", b.assign("served", "max_r"), variables=("served", "max_r"))
        result = dynamic_knob(program, knob="max_r", floor=10)
        outcome = run_original(result.program, State.of({"max_r": 30}))
        assert outcome.state.scalar("served") == 30

    def test_relaxed_run_respects_floor(self):
        program = b.program("serve", b.assign("served", "max_r"), variables=("served", "max_r"))
        result = dynamic_knob(program, knob="max_r", floor=10)
        outcome = run_relaxed(
            result.program,
            State.of({"max_r": 30}),
            chooser=FixedChoiceChooser([{"max_r": 12}]),
        )
        assert outcome.state.scalar("served") == 12


class TestTaskSkippingAndSampling:
    def test_skip_tasks_bounds(self):
        program = b.program("tasks", b.assign("done", "tasks"), variables=("done", "tasks"))
        result = skip_tasks(program, remaining_tasks_var="tasks", max_skipped=3)
        outcome = run_relaxed(
            result.program, State.of({"tasks": 10}), chooser=FixedChoiceChooser([{"tasks": 7}])
        )
        assert outcome.state.scalar("done") == 7
        assert result.suggested_relates

    def test_skip_tasks_original_unchanged(self):
        program = b.program("tasks", b.assign("done", "tasks"), variables=("done", "tasks"))
        result = skip_tasks(program, remaining_tasks_var="tasks", max_skipped=3)
        outcome = run_original(result.program, State.of({"tasks": 10}))
        assert outcome.state.scalar("done") == 10

    def test_sample_reduction_fraction(self):
        program = b.program("reduce", b.assign("used", "samples"), variables=("used", "samples", "population"))
        result = sample_reduction(
            program, sample_count_var="samples", population_var="population",
            minimum_fraction_percent=50,
        )
        outcome = run_relaxed(
            result.program,
            State.of({"samples": 100, "population": 100}),
            chooser=FixedChoiceChooser([{"samples": 60}]),
        )
        assert outcome.state.scalar("used") == 60


class TestApproximateReadsAndMemoization:
    def test_approximate_reads_envelope(self):
        read = Assign("a", b.aread("A", "i"))
        program = b.program("read", read, b.assign("out", "a"),
                            variables=("a", "i", "out", "e"), arrays=("A",))
        result = approximate_reads(program, value_var="a", error_bound_var="e", insert_after=read)
        state = State.of({"i": 0, "e": 2, "a": 0, "out": 0}, arrays={"A": {0: 10}})
        outcome = run_relaxed(result.program, state, chooser=FixedChoiceChooser([{"a": 12}]))
        assert outcome.state.scalar("out") == 12
        assert result.suggested_relates

    def test_memoization_allows_cached_result(self):
        compute = Assign("result", b.mul("arg", 2))
        program = b.program(
            "memo", compute, variables=("result", "arg", "cached_arg", "cached_result")
        )
        result = approximate_memoization(
            program,
            result_var="result",
            argument_var="arg",
            cached_argument_var="cached_arg",
            cached_result_var="cached_result",
            argument_tolerance=1,
            result_tolerance=2,
            insert_after=compute,
        )
        state = State.of({"arg": 5, "cached_arg": 5, "cached_result": 10, "result": 0})
        original = run_original(result.program, state)
        assert original.state.scalar("result") == 10
        relaxed = run_relaxed(
            result.program, state, chooser=FixedChoiceChooser([{"result": 10}])
        )
        assert relaxed.state.scalar("result") == 10


class TestSynchronizationElimination:
    def test_racy_arrays_relaxed(self):
        program = b.program(
            "reduce", b.assign("x", b.aread("RS", 0)), variables=("x",), arrays=("RS",)
        )
        result = eliminate_synchronization(program, racy_arrays=("RS",))
        relax_stmt = result.inserted_relax[0]
        assert relax_stmt.targets == ("RS",)
        original = run_original(result.program, State.of({"x": 0}, arrays={"RS": {0: 4}}))
        assert original.state.scalar("x") == 4


def array_summation_program():
    loop = While(
        condition=b.lt("i", "n"),
        body=b.block(
            b.assign("s", b.add("s", b.aread("A", "i"))),
            b.assign("i", b.add("i", 1)),
        ),
        invariant=b.true,
    )
    program = b.program(
        "kernel", b.assign("s", 0), b.assign("i", 0), loop,
        variables=("s", "i", "n"), arrays=("A",),
    )
    return program, loop


def array_state(n):
    return State.of({"n": n}, arrays={"A": {i: (i % 5) + 1 for i in range(n)}})


class TestMechanismCoverage:
    """Section 1's mechanism catalogue applied to one array-summation kernel."""

    def test_every_mechanism_preserves_the_original_semantics(self):
        program, loop = array_summation_program()
        read = Assign("a", b.aread("A", "i"))
        reader = b.program(
            "reader", b.assign("i", 0), read, variables=("a", "i", "e"), arrays=("A",)
        )
        transformed = {
            "loop perforation": (program, perforate_loop(program, loop, counter="i")),
            "dynamic knobs": (program, dynamic_knob(program, knob="n", floor=10)),
            "task skipping": (
                program, skip_tasks(program, remaining_tasks_var="n", max_skipped=4)
            ),
            "reduction sampling": (program, sample_reduction(
                program, sample_count_var="n", population_var="n", minimum_fraction_percent=50
            )),
            "approximate memory": (reader, approximate_reads(
                reader, value_var="a", error_bound_var="e", insert_after=read
            )),
            "synchronization elimination": (
                program, eliminate_synchronization(program, racy_arrays=("A",))
            ),
        }
        assert len(transformed) == 6
        for name, (baseline_program, result) in transformed.items():
            state = array_state(48)
            if name == "approximate memory":
                state = state.set_scalars({"e": 2, "a": 0})
            baseline = run_original(baseline_program, state)
            relaxed_original = run_original(result.program, state)
            assert isinstance(baseline, Terminated) and isinstance(relaxed_original, Terminated)
            for variable, value in baseline.state.scalars:
                assert relaxed_original.state.scalar(variable) == value, name

    def test_perforation_tradeoff_curve(self):
        """Work falls monotonically with the stride, stride 1 is exact, and
        the relative error stays well below 100%."""
        program, loop = array_summation_program()
        result = perforate_loop(program, loop, counter="i", max_stride=6)
        state = array_state(60)
        exact = run_original(result.program, state).state.scalar("s")
        iterations, errors = [], []
        for stride in (1, 2, 3, 4, 6):
            outcome = run_relaxed(
                result.program, state, chooser=FixedChoiceChooser([{"stride": stride}])
            )
            iterations.append((60 + stride - 1) // stride)
            errors.append(abs(exact - outcome.state.scalar("s")) / exact)
        assert iterations == sorted(iterations, reverse=True)
        assert errors[0] == 0.0
        assert all(error < 0.9 for error in errors)
        perforated = perforate_loop(program, loop, counter="i", max_stride=4)
        outcome = run_relaxed(
            perforated.program, array_state(64), chooser=FixedChoiceChooser([{"stride": 4}])
        )
        assert isinstance(outcome, Terminated)
