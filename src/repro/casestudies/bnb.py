"""Case study 6 — branch-and-bound search with an early-exit relaxation.

A search loop scans candidate scores, keeping the best one seen (scores are
clamped against the known upper bound ``UB``, the branch-and-bound pruning
invariant).  The relaxation is *early exit* — under load the search may
stop after fewer candidates, modelled as a dynamic knob on the scan cutoff:

.. code-block:: none

    original_cutoff = cutoff;
    relax (cutoff) st (1 <= cutoff && cutoff <= original_cutoff);

The loop's trip count depends on the relaxed cutoff, so the executions
diverge at the loop; the proof uses the diverge rule with the incumbent
characterisation ``first <= best && best <= UB`` proved independently on
each side (the floor ``1 <= cutoff`` guarantees even the most aggressive
early exit scanned the seed candidate).  The acceptability property is that
the relaxed search still returns a *valid incumbent*:

.. code-block:: none

    relate incumbent: first<r> <= best<r> && best<r> <= UB<r>
                      && first<o> <= best<o> && best<o> <= UB<o>

The characterisation is the loop's ``diverge`` annotation, so it travels
with the loop into every relaxed candidate.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..semantics.state import Outcome, State, Terminated
from ..substrates.workloads import generate_search_workloads
from .base import CaseStudy, random_chooser
from .registry import register_case_study

SOURCE = """
vars i, N, UB, cutoff, original_cutoff, first, v, best;
arrays A;
shared A;
rel_requires (i<o> == i<r> && N<o> == N<r> && UB<o> == UB<r> && cutoff<o> == cutoff<r>
              && original_cutoff<o> == original_cutoff<r> && first<o> == first<r>
              && v<o> == v<r> && best<o> == best<r>);
assume(N >= 1);
assume(1 <= cutoff);
first = A[0];
assume(first <= UB);
best = first;
original_cutoff = cutoff;
relax (cutoff) st (1 <= cutoff && cutoff <= original_cutoff);
i = 1;
// The scan's trip count depends on the relaxed cutoff, so the loop
// diverges; both sides keep the incumbent within [first, UB].
while (i < N && i < cutoff)
    invariant (first <= best && best <= UB && 1 <= i)
    diverge (first <= best && best <= UB) (first <= best && best <= UB)
{
    v = A[i];
    v = min(v, UB);
    if (v > best) {
        best = v;
    }
    i = i + 1;
}
relate incumbent: (first<r> <= best<r> && best<r> <= UB<r>
                   && first<o> <= best<o> && best<o> <= UB<o>);
"""


def _workloads(count: int, seed: int = 0):
    states = []
    for workload in generate_search_workloads(count, seed=seed):
        scores = {index: value for index, value in enumerate(workload.scores)}
        states.append(
            State.of(
                {
                    "i": 0,
                    "N": len(workload.scores),
                    "UB": workload.upper_bound,
                    "cutoff": workload.cutoff,
                    "original_cutoff": 0,
                    "first": 0,
                    "v": 0,
                    "best": 0,
                },
                arrays={"A": scores},
            )
        )
    return states


def _distortion(
    initial: State, original: Outcome, relaxed: Outcome
) -> Optional[float]:
    """Accuracy loss = how much incumbent quality the early exit gave up."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    return float(
        abs(original.state.scalar("best") - relaxed.state.scalar("best"))
    )


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        best_original = original.state.scalar("best")
        best_relaxed = relaxed.state.scalar("best")
        metrics["best_original"] = float(best_original)
        metrics["best_relaxed"] = float(best_relaxed)
        metrics["incumbent_gap"] = float(best_original - best_relaxed)
        # Final i = how many candidates each execution actually scanned.
        scanned_original = original.state.scalar("i")
        scanned_relaxed = relaxed.state.scalar("i")
        metrics["scanned_original"] = float(scanned_original)
        metrics["scanned_relaxed"] = float(scanned_relaxed)
        metrics["candidates_skipped"] = float(scanned_original - scanned_relaxed)
        metrics["incumbent_valid"] = float(
            relaxed.state.scalar("first") <= best_relaxed
            and best_relaxed <= relaxed.state.scalar("UB")
        )
    return metrics


BRANCH_AND_BOUND = register_case_study(
    CaseStudy(
        name="bnb-early-exit",
        source=SOURCE,
        workloads_hook=_workloads,
        paper_section="1 (early-exit / dynamic knobs)",
        chooser_hook=random_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["BRANCH_AND_BOUND", "SOURCE"]
