"""Case study 5 — approximate-memory stencil with per-cell envelopes.

A three-tap stencil (``cell = left + mid + right``) sweeps a row stored in
approximate memory.  Unlike the LU study's single global error bound, the
error envelope here is *per cell*: the auxiliary row ``E`` gives each
cell's read-error magnitude, and every read is relaxed against its own
envelope —

.. code-block:: none

    original_right = right;
    relax (right) st (original_right - er <= right && right <= original_right + er);

The kernel keeps a rolling window (``left``/``mid``/``right`` with envelope
ghosts ``el``/``em``/``er``), reading each cell exactly once, and states a
per-output-cell accuracy property *inside* the loop:

.. code-block:: none

    relate cell: cell<o> - cell<r> <= el<r> + em<r> + er<r>
                 && cell<r> - cell<o> <= el<r> + em<r> + er<r>

— each output cell deviates by at most the sum of the envelopes of the
three cells it reads.  The executions stay in lockstep, so the proof is a
convergent relational loop invariant carrying the window's three per-tap
envelope bounds; there is no divergence and the per-cell relate is proved
once per iteration from the invariant plus the relax rule's premises.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..semantics.state import Outcome, State, Terminated
from ..substrates.approxmem import ApproxMemoryChooser, ErrorModel
from ..substrates.workloads import generate_stencil_workloads
from .base import CaseStudy
from .registry import register_case_study

SOURCE = """
vars i, N, el, em, er, left, mid, right, original_right, cell, acc;
arrays A, E;
shared A, E;
rel_requires (i<o> == i<r> && N<o> == N<r> && el<o> == el<r> && em<o> == em<r>
              && er<o> == er<r> && left<o> == left<r> && mid<o> == mid<r>
              && right<o> == right<r> && original_right<o> == original_right<r>
              && cell<o> == cell<r> && acc<o> == acc<r>);
assume(N >= 1);
left = 0;
mid = 0;
right = 0;
el = 0;
em = 0;
er = 0;
cell = 0;
acc = 0;
i = 0;
while (i < N)
    invariant (0 <= el && 0 <= em && 0 <= er)
    rel_invariant (i<o> == i<r> && N<o> == N<r>
                   && el<o> == el<r> && em<o> == em<r> && er<o> == er<r>
                   && 0 <= el<r> && 0 <= em<r> && 0 <= er<r>
                   && left<o> - left<r> <= el<r> && left<r> - left<o> <= el<r>
                   && mid<o> - mid<r> <= em<r> && mid<r> - mid<o> <= em<r>
                   && right<o> - right<r> <= er<r> && right<r> - right<o> <= er<r>)
{
    left = mid;
    el = em;
    mid = right;
    em = er;
    right = A[i];
    er = E[i];
    assume(0 <= er);
    original_right = right;
    relax (right) st (original_right - er <= right && right <= original_right + er);
    cell = left + mid + right;
    relate cell: (cell<o> - cell<r> <= el<r> + em<r> + er<r>
                  && cell<r> - cell<o> <= el<r> + em<r> + er<r>);
    acc = acc + cell;
    i = i + 1;
}
"""


def _workloads(count: int, seed: int = 0):
    states = []
    for workload in generate_stencil_workloads(count, seed=seed):
        cells = {index: value for index, value in enumerate(workload.cells)}
        envelopes = {index: value for index, value in enumerate(workload.envelopes)}
        states.append(
            State.of(
                {
                    "i": 0,
                    "N": len(workload.cells),
                    "el": 0,
                    "em": 0,
                    "er": 0,
                    "left": 0,
                    "mid": 0,
                    "right": 0,
                    "original_right": 0,
                    "cell": 0,
                    "acc": 0,
                },
                arrays={"A": cells, "E": envelopes},
            )
        )
    return states


def _chooser(seed: int):
    """Approximate-memory substrate: perturb each read within its envelope.

    ``error_bound_var='er'`` reads the *per-cell* bound the program just
    loaded from ``E``, so the substrate honours each cell's own envelope.
    """
    return ApproxMemoryChooser(
        error_model=ErrorModel(max_magnitude=3), error_bound_var="er", seed=seed
    )


def _distortion(
    initial: State, original: Outcome, relaxed: Outcome
) -> Optional[float]:
    """Accuracy loss = deviation of the accumulated stencil output."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    return float(abs(original.state.scalar("acc") - relaxed.state.scalar("acc")))


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        acc_original = original.state.scalar("acc")
        acc_relaxed = relaxed.state.scalar("acc")
        envelopes = initial.array("E")
        # Every cell is read by up to three output cells, so the end-to-end
        # deviation of the accumulated output is bounded by 3 * sum(E).
        total_envelope = 3 * sum(envelopes.values())
        metrics["acc_original"] = float(acc_original)
        metrics["acc_relaxed"] = float(acc_relaxed)
        metrics["acc_deviation"] = float(abs(acc_original - acc_relaxed))
        metrics["envelope_total"] = float(total_envelope)
        metrics["within_envelope"] = float(
            abs(acc_original - acc_relaxed) <= total_envelope
        )
    return metrics


STENCIL = register_case_study(
    CaseStudy(
        name="stencil-approx-memory",
        source=SOURCE,
        workloads_hook=_workloads,
        paper_section="1 (approximate memory)",
        chooser_hook=_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["STENCIL", "SOURCE"]
