"""Every solver answer of two cold batches, pinned by digest.

Each run records every :meth:`Solver.check_sat` query (validity queries
arrive here negated) and hashes the sorted lines
``fingerprint(formula, "satisfiability"):status:reason:model`` into one
digest, the model written as its sorted ``symbol=value`` pairs.  A change
to the solver's passes that moves any query's status, reason or model
changes its run's digest; one that only makes the passes faster does not.
The runs also pin how many DNF cubes the queries walked and how many of
those the interval box pruned, which shows the same waves were walked.
"""

import hashlib

import pytest

from repro.engine import case_study_items, fingerprint, program_items, verify_batch
from repro.fuzz.generator import synthesize_corpus
from repro.hoare.verifier import AcceptabilitySpec
from repro.solver.interface import Solver

EXPECTED = {
    "studies": ("79 queries", "2091f11b9e1e43a1", "3894 cubes", "2773 pruned"),
    "corpus": ("46 queries", "5350ce1b16f5c022", "136 cubes", "0 pruned"),
}


def _corpus_items():
    programs = synthesize_corpus(0, 3)
    return program_items(
        [(item.name, item.program, AcceptabilitySpec.of(item.program)) for item in programs],
        study="fuzz",
    )


RUNS = {
    "studies": lambda: case_study_items(None),
    "corpus": _corpus_items,
}


def _answers(monkeypatch, items):
    lines = []
    cubes = pruned = 0
    check_sat = Solver.check_sat

    def recording(self, formula):
        nonlocal cubes, pruned
        before = self.statistics.cube_count, self.statistics.prefiltered_cubes
        result = check_sat(self, formula)
        cubes += self.statistics.cube_count - before[0]
        pruned += self.statistics.prefiltered_cubes - before[1]
        model = sorted(f"{symbol}={value}" for symbol, value in (result.model or {}).items())
        lines.append(
            f"{fingerprint(formula, 'satisfiability')}:{result.status.value}:"
            f"{result.reason}:{','.join(model)}"
        )
        return result

    monkeypatch.setattr(Solver, "check_sat", recording)
    verify_batch(items)
    lines.sort()
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()[:16]
    return (f"{len(lines)} queries", digest, f"{cubes} cubes", f"{pruned} pruned")


@pytest.mark.parametrize("run", sorted(RUNS))
def test_answer_digest(monkeypatch, run):
    assert _answers(monkeypatch, RUNS[run]()) == EXPECTED[run]
