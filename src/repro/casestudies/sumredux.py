"""Case study 4 — sum reduction under loop perforation .

The paper's introduction lists loop perforation and reduction sampling as
canonical relaxations: skip part of a reduction's work and accept a bounded
accuracy loss.  This kernel accumulates bounded non-negative terms and lets
the relaxed execution *drop* any iteration's contribution —

.. code-block:: none

    original_term = term;
    relax (term) st (term == original_term || term == 0);

— while the program threads an explicit additive *distortion budget*: every
iteration adds the per-term bound ``M`` to ``slack``, so the acceptability
property is the linear envelope

.. code-block:: none

    relate sum: s<r> <= s<o> && s<o> - s<r> <= slack<r>

(the relaxed sum is an under-approximation within the additive budget).
Both executions stay in lockstep — perforation here drops *work*, not loop
iterations — so the proof is a convergent relational loop invariant, with
no diverge rule at all: the invariant carries the running envelope
``s<o> - s<r> <= slack`` and the relax rule's premises re-establish it from
``term<r> ∈ {term<o>, 0}`` and the in-loop integrity assumes
``0 <= term <= M``.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..semantics.state import Outcome, State, Terminated
from ..substrates.workloads import generate_reduction_workloads
from .base import CaseStudy, random_chooser
from .registry import register_case_study

SOURCE = """
vars i, N, M, term, original_term, s, slack;
arrays A;
shared A;
rel_requires (i<o> == i<r> && N<o> == N<r> && M<o> == M<r> && term<o> == term<r>
              && original_term<o> == original_term<r> && s<o> == s<r>
              && slack<o> == slack<r>);
assume(N >= 1);
assume(M >= 0);
s = 0;
slack = 0;
i = 0;
while (i < N)
    invariant (0 <= s && 0 <= slack && 0 <= M)
    rel_invariant (i<o> == i<r> && N<o> == N<r> && M<o> == M<r>
                   && slack<o> == slack<r> && M<r> >= 0
                   && s<r> <= s<o> && s<o> - s<r> <= slack<r>)
{
    term = A[i];
    assume(0 <= term);
    assume(term <= M);
    original_term = term;
    relax (term) st (term == original_term || term == 0);
    s = s + term;
    slack = slack + M;
    i = i + 1;
}
relate sum: (s<r> <= s<o> && s<o> - s<r> <= slack<r>);
"""


def _workloads(count: int, seed: int = 0):
    states = []
    for workload in generate_reduction_workloads(count, seed=seed):
        terms = {index: value for index, value in enumerate(workload.terms)}
        states.append(
            State.of(
                {
                    "i": 0,
                    "N": len(workload.terms),
                    "M": workload.term_bound,
                    "term": 0,
                    "original_term": 0,
                    "s": 0,
                    "slack": 0,
                },
                arrays={"A": terms},
            )
        )
    return states


def _distortion(
    initial: State, original: Outcome, relaxed: Outcome
) -> Optional[float]:
    """Accuracy loss = how much of the sum the perforation dropped."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    return float(abs(original.state.scalar("s") - relaxed.state.scalar("s")))


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        sum_original = original.state.scalar("s")
        sum_relaxed = relaxed.state.scalar("s")
        budget = relaxed.state.scalar("slack")
        metrics["sum_original"] = float(sum_original)
        metrics["sum_relaxed"] = float(sum_relaxed)
        metrics["sum_dropped"] = float(sum_original - sum_relaxed)
        metrics["distortion_budget"] = float(budget)
        metrics["within_budget"] = float(0 <= sum_original - sum_relaxed <= budget)
    return metrics


SUM_REDUCTION = register_case_study(
    CaseStudy(
        name="sum-reduction-perforation",
        source=SOURCE,
        workloads_hook=_workloads,
        paper_section="1 (loop perforation / reduction sampling)",
        chooser_hook=random_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["SUM_REDUCTION", "SOURCE"]
