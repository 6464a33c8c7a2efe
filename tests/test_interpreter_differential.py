"""The compiled interpreter against the reference tree walker.

:class:`repro.semantics.interpreter.Interpreter` runs statements as
closures compiled once per node and semantics; ``reference_interpreter``
keeps the tree walk it replaced.  Both must agree exactly on everything the
explorer's scores are built from: the outcome (state, observations, error
kind and message), ``steps_executed``, ``relax_deviation``, and where fuel
runs out.  Each side gets its own chooser built from the same policy and
seed, so both see the same nondeterministic choices.
"""

import pytest
from hypothesis import given, settings

from casestudy_ids import study_id
from reference_interpreter import ReferenceInterpreter
from strategies import any_programs

from repro.casestudies import all_case_studies
from repro.explore.candidates import enumerate_candidates
from repro.lang.parser import parse_program
from repro.semantics.choosers import make_chooser
from repro.semantics.interpreter import Interpreter, NonTerminationError
from repro.semantics.state import State

POLICIES = ("random", "adversarial", "minimal")

#: Initial states for generated programs over ``x, y, z`` and ``A, B``: a
#: full one, and an empty one on which most programs go wrong.
STATES = (
    State.of({"x": 1, "y": -2, "z": 0}, arrays={"A": {0: 3, 1: -1}, "B": {2: 5}}),
    State.of({}),
)


def _execute(interp, program, state):
    try:
        outcome = interp.run(program, state)
    except NonTerminationError as error:
        return ("fuel", str(error), interp.steps_executed, interp.relax_deviation)
    return (outcome, interp.steps_executed, interp.relax_deviation)


def assert_same_runs(program, state, fuel=10_000, seed=0):
    for relaxed in (False, True):
        for policy in POLICIES:
            runs = [
                _execute(
                    cls(relaxed=relaxed, chooser=make_chooser(policy, seed=seed), fuel=fuel),
                    program,
                    state,
                )
                for cls in (Interpreter, ReferenceInterpreter)
            ]
            assert runs[0] == runs[1], (relaxed, policy)


@settings(max_examples=150, deadline=None)
@given(any_programs())
def test_generated_programs_agree(program):
    for state in STATES:
        assert_same_runs(program, state, fuel=200)
        # A tiny fuel budget: both must run out at the same loop test.
        assert_same_runs(program, state, fuel=2)


@pytest.mark.parametrize("study", all_case_studies(), ids=study_id)
def test_depth2_candidates_agree(study):
    enumeration = enumerate_candidates(study.build_program(), study.relaxation_sites, depth=2)
    assert len(enumeration.candidates) > 1
    workloads = study.workloads(5, seed=3)
    for candidate in enumeration.candidates:
        for index, state in enumerate(workloads):
            assert_same_runs(candidate.program, state, seed=index)


def test_fuel_exhaustion_raises_the_same_error():
    program = parse_program("vars x; x = 0; while (x < 10) { x = x + 1; relate l: true; }")
    runs = [
        _execute(cls(relaxed=True, fuel=4), program, State.of({})) for cls in
        (Interpreter, ReferenceInterpreter)
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == "fuel" and "fuel bound of 4" in runs[0][1]


def test_errors_and_observations_agree_on_a_relaxed_loop():
    program = parse_program(
        "vars x, n, s; s = 0; while (x < n) { relax (s) st (s >= 0 && s <= x); "
        "relate l: s<r> <= s<o> + x<o>; x = x + 1; } assume s < 100; assert s >= 0;"
    )
    for state in (State.of({"x": 0, "n": 4}), State.of({"n": 2})):
        assert_same_runs(program, state)
    outcome = Interpreter(relaxed=True).run(program, State.of({"x": 0, "n": 4}))
    assert [obs.label for obs in outcome.observations] == ["l"] * 4
