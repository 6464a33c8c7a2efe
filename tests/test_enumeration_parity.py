"""Pins of the bounded execution enumerator and of the oracle built on it.

Every property of :mod:`repro.metatheory.properties` quantifies over the
outcomes of :func:`repro.semantics.enumerate.enumerate_executions`, so
these tests pin what it returns under ``EnumerationConfig(max_executions=512)``:

* the sorted outcome ``repr``s (state, observations, error kind and
  message) of every depth-1 candidate of the registered studies and of
  every corpus program, on three workloads each, under both semantics,
  folded into one digest per family;
* which of those runs overrun the budget;
* ``check_all`` on the studies: each property's verdict and execution count;
* the error contracts: a predicate that reads an array raises
  ``ChooserError``, and a loop that never ends raises
  ``EnumerationBudgetError``.
"""

import hashlib
from pathlib import Path

import pytest

from casestudy_ids import study_id

from repro.casestudies import all_case_studies
from repro.explore.candidates import enumerate_candidates
from repro.fuzz.generator import generated_study
from repro.lang.parser import parse_program
from repro.metatheory.properties import check_all
from repro.semantics.choosers import ChooserError
from repro.semantics.enumerate import (
    EnumerationBudgetError,
    EnumerationConfig,
    enumerate_executions,
)
from repro.semantics.state import State

CONFIG = EnumerationConfig(max_executions=512)
CORPUS = Path(__file__).parent / "corpus" / "programs"

STUDY_DIGEST = "442dae09f69afd50db9ed0187189087a7c90c3d88f12936ebb21054f334c18cb"
CORPUS_DIGEST = "8541fc9ac94fdc74425e9c11a7a6ffe48a966724b275904c0079722480a14ffd"

#: The study runs (``candidate/workload/semantics``) that overrun the budget:
#: all relaxed, on LU and stencil workloads 1-2 and sum-reduction's knob.
BUDGET_RUNS = frozenset(
    f"{candidate}/{index}/r"
    for candidates, indexes in (
        (
            (
                "lu-approximate-memory",
                "lu-approximate-memory+perforate:i@L0:s2",
                "lu-approximate-memory+perforate:i@L0:s4",
                "lu-approximate-memory+restrict:a@R0:d1",
                "lu-approximate-memory+restrict:a@R0:d2",
                "lu-approximate-memory+knob:N:f1",
                "stencil-approx-memory",
                "stencil-approx-memory+perforate:i@L0:s2",
                "stencil-approx-memory+perforate:i@L0:s4",
                "stencil-approx-memory+restrict:right@R0:d2",
                "stencil-approx-memory+knob:N:f1",
            ),
            (1, 2),
        ),
        (("sum-reduction-perforation+knob:N:f1",), (0, 1)),
    )
    for candidate in candidates
    for index in indexes
)


def _runs(study, programs):
    for name, program in programs:
        for index, state in enumerate(study.workloads(3, seed=0)):
            for relaxed in (False, True):
                yield f"{name}/{index}/{'r' if relaxed else 'o'}", program, state, relaxed


def _study_runs():
    for study in all_case_studies():
        enumeration = enumerate_candidates(
            study.build_program(), study.relaxation_sites, depth=1
        )
        yield from _runs(
            study, [(candidate.name, candidate.program) for candidate in enumeration.candidates]
        )


def _corpus_runs():
    for path in sorted(CORPUS.glob("*.rlx")):
        study = generated_study(path.stem, path.read_text())
        yield from _runs(study, [(path.stem, study.build_program())])


def _digest(runs):
    digest, count = hashlib.sha256(), 0
    for key, program, state, relaxed in runs:
        outcomes = enumerate_executions(program, state, relaxed, CONFIG)
        count += len(outcomes)
        digest.update(key.encode() + b"\n")
        for text in sorted(map(repr, outcomes)):
            digest.update(text.encode() + b"\n")
    return count, digest.hexdigest()


@pytest.fixture(scope="module")
def study_runs():
    return list(_study_runs())


def test_study_outcomes_are_pinned(study_runs):
    runs = [run for run in study_runs if run[0] not in BUDGET_RUNS]
    assert len(runs) == 252
    assert _digest(runs) == (6625, STUDY_DIGEST)


def test_corpus_outcomes_are_pinned():
    runs = list(_corpus_runs())
    assert len(runs) == 192
    assert _digest(runs) == (492, CORPUS_DIGEST)


def test_budget_overruns_are_pinned(study_runs):
    overruns = {key for key, *_ in study_runs} & BUDGET_RUNS
    assert overruns == BUDGET_RUNS
    for key, program, state, relaxed in study_runs:
        if key in BUDGET_RUNS:
            with pytest.raises(EnumerationBudgetError):
                enumerate_executions(program, state, relaxed, CONFIG)


#: Per study, each property's ``(holds, executions_checked)`` in
#: ``check_all`` order, or ``None`` where the enumeration overruns.
PROPERTIES = (
    "original-progress-modulo-assumptions",
    "soundness-of-relational-assertions",
    "relative-relaxed-progress",
    "relaxed-progress",
    "relaxed-progress-modulo-original-assumptions",
    "original-subsumed-by-relaxed",
)
CHECK_ALL = {
    "swish-dynamic-knobs": ((True, 3), (True, 42), (True, 42), (True, 42), (True, 0), (True, 3)),
    "water-parallelization": (
        (True, 3), (True, 81), (True, 81), (True, 81), (True, 0), (False, 1)
    ),
    "lu-approximate-memory": None,
    "sum-reduction-perforation": (
        (True, 3), (True, 288), (True, 288), (True, 288), (True, 0), (True, 3)
    ),
    "bnb-early-exit": ((True, 3), (True, 20), (True, 20), (True, 20), (True, 0), (True, 3)),
    "stencil-approx-memory": None,
    "pipeline-two-knobs": ((True, 3), (True, 38), (True, 38), (True, 38), (True, 0), (False, 2)),
}


@pytest.mark.parametrize("study", all_case_studies(), ids=study_id)
def test_check_all_on_the_studies(study):
    expected = CHECK_ALL[study.name]
    run = lambda: check_all(study.build_program(), study.workloads(3, seed=0), True, True, CONFIG)
    if expected is None:
        with pytest.raises(EnumerationBudgetError):
            run()
        return
    report = run()
    assert [check.name for check in report.checks] == list(PROPERTIES)
    assert tuple((check.holds, check.executions_checked) for check in report.checks) == expected


def test_predicate_reading_an_array_raises():
    program = parse_program("vars x; arrays A; havoc (x) st (x == A[0]);")
    state = State.of({"x": 0}, arrays={"A": {0: 1}})
    for relaxed in (False, True):
        with pytest.raises(ChooserError):
            enumerate_executions(program, state, relaxed)


def test_nontermination_overruns_the_budget():
    program = parse_program("vars x; while (true) { skip; }")
    for relaxed in (False, True):
        with pytest.raises(EnumerationBudgetError):
            enumerate_executions(program, State.of({"x": 0}), relaxed)


def test_two_array_targets_take_every_combination():
    program = parse_program("vars x; arrays A, B; havoc (A, B) st (x == 0);")
    state = State.of({"x": 0}, arrays={"A": {0: 5}, "B": {0: 6, 1: 7}})
    config = EnumerationConfig(array_choice_values=(0, 1))
    outcomes = enumerate_executions(program, state, True, config)
    cells = [
        (o.state.array("A")[0], o.state.array("B")[0], o.state.array("B")[1]) for o in outcomes
    ]
    assert sorted(cells) == [(a, b0, b1) for a in (0, 1) for b0 in (0, 1) for b1 in (0, 1)]
