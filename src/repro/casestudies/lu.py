"""Case study 3 — LU decomposition with approximate memory (Section 5.3).

The SciMark2 LU kernel selects, for each column, the pivot row containing
the maximum element.  When the matrix is stored in approximate memory,
every read may return a value within a bounded error ``e`` of the stored
value; the paper models the read error with

.. code-block:: none

    original_a = a;
    relax (a) st (original_a - e <= a && a <= original_a + e);

The acceptability property is an *accuracy* property — the selected pivot
value differs from the exact pivot value by at most ``e`` (a Lipschitz-
continuity statement about the max reduction):

.. code-block:: none

    relate pivot: max<o> - max<r> <= e && max<r> - max<o> <= e

The proof (315 lines of Coq script in the paper's artifact) shows the
relate condition is a relational loop invariant.  In this reproduction the
branch that updates the running maximum diverges (it depends on the relaxed
value), so the invariant is re-established after the branch from the frame
(the relations over ``a``, ``old_max`` and ``e``) plus the unary
characterisation ``max = max(old_max, a)`` proved independently on each
side (the branch's ``diverge`` annotation) — the same case analysis the
paper performs.

The substrate model (:func:`approx_memory_chooser`) perturbs each read by
at most :data:`READ_ERROR_BOUND`; pass ``chooser_factory=`` to
:meth:`~repro.casestudies.base.CaseStudy.simulate` to sweep other bounds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..semantics.choosers import Chooser
from ..semantics.state import Outcome, State, Terminated
from ..substrates.approxmem import ApproxMemoryChooser, ErrorModel
from ..substrates.workloads import generate_lu_workloads
from .base import CaseStudy
from .registry import register_case_study

#: The largest read error the approximate-memory substrate injects.
READ_ERROR_BOUND = 2

SOURCE = """
vars i, N, a, original_a, old_max, maxval, p, e;
arrays A;
shared A;
rel_requires (i<o> == i<r> && N<o> == N<r> && maxval<o> == maxval<r> && p<o> == p<r>
              && e<o> == e<r> && a<o> == a<r> && original_a<o> == original_a<r>
              && old_max<o> == old_max<r>);
assume(e >= 0);
assume(N >= 1);
maxval = A[0];
p = 0;
i = 1;
while (i < N)
    invariant (e >= 0)
    rel_invariant (i<o> == i<r> && N<o> == N<r> && e<o> == e<r> && e<r> >= 0
                   && (maxval<o> - maxval<r> <= e<r> && maxval<r> - maxval<o> <= e<r>))
{
    // Read A[i] from approximate memory: the exact value first, then the
    // relaxation models the bounded read error.
    a = A[i];
    original_a = a;
    relax (a) st (original_a - e <= a && a <= original_a + e);
    old_max = maxval;
    // The max-update branch depends on the relaxed read, so it diverges;
    // both sides establish that the running maximum is max(old_max, a).
    if (a > maxval)
        diverge (maxval == max(old_max, a)) (maxval == max(old_max, a))
    {
        maxval = a;
        p = i;
    }
    i = i + 1;
}
relate pivot: (maxval<o> - maxval<r> <= e<r> && maxval<r> - maxval<o> <= e<r>);
"""


def _workloads(count: int, seed: int = 0) -> List[State]:
    states = []
    for workload in generate_lu_workloads(count, seed=seed):
        column = {index: value for index, value in enumerate(workload.column)}
        states.append(
            State.of(
                {
                    "i": 0,
                    "N": len(workload.column),
                    "a": 0,
                    "original_a": 0,
                    "old_max": 0,
                    "maxval": 0,
                    "p": 0,
                    "e": workload.error_bound,
                },
                arrays={"A": column},
            )
        )
    return states


def approx_memory_chooser(seed: int, error_bound: int = READ_ERROR_BOUND) -> Chooser:
    """Approximate memory whose reads err by at most ``error_bound`` (and ``e``)."""
    return ApproxMemoryChooser(
        error_model=ErrorModel(max_magnitude=error_bound),
        error_bound_var="e",
        seed=seed,
    )


def _distortion(initial: State, original: Outcome, relaxed: Outcome) -> Optional[float]:
    """Accuracy loss = how far the selected pivot value drifted."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    return float(abs(original.state.scalar("maxval") - relaxed.state.scalar("maxval")))


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        max_original = original.state.scalar("maxval")
        max_relaxed = relaxed.state.scalar("maxval")
        error_bound = initial.scalar("e")
        metrics["pivot_value_original"] = float(max_original)
        metrics["pivot_value_relaxed"] = float(max_relaxed)
        metrics["pivot_deviation"] = float(abs(max_original - max_relaxed))
        metrics["error_bound"] = float(error_bound)
        metrics["within_bound"] = float(abs(max_original - max_relaxed) <= error_bound)
        metrics["pivot_row_changed"] = float(
            original.state.scalar("p") != relaxed.state.scalar("p")
        )
    return metrics


LU = register_case_study(
    CaseStudy(
        name="lu-approximate-memory",
        source=SOURCE,
        workloads_hook=_workloads,
        paper_section="5.3",
        paper_proof_lines=315,
        chooser_hook=approx_memory_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["LU", "SOURCE", "READ_ERROR_BOUND", "approx_memory_chooser"]
