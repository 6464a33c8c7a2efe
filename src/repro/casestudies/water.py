"""Case study 2 — statistical automatic parallelization of Water (Section 5.2).

The Water computation is parallelised by eliding the locks that make the
updates of the reduction array ``RS`` atomic; CPU-scheduling races then make
``RS`` nondeterministic, which the paper models wholesale with

.. code-block:: none

    relax (RS) st (true);

A later loop consumes ``RS``:

.. code-block:: none

    while (K < N) {
        if (RS[K] < gCUT2) { FF[K] = EXP(RS[K]); }
        K = K + 1;
    }

The acceptability property is an *integrity* property: the developer has
established (by standard reasoning on the original program) that the write
``FF[K]`` stays in bounds, and records that belief with
``assume (K < len_FF)``.  Verification must show the relaxation does not
invalidate the assumption.  Because the assumption sits under the branch on
the relaxed value ``RS[K]``, control flow diverges there; the paper's proof
(310 lines of Coq script) inserts a second ``assume (K < len_FF)`` *before*
the branch, proves it by noninterference (``K`` and ``len_FF`` are equal in
both executions), and propagates it through the divergent branch with the
intermediate semantics.  This module reproduces exactly that structure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..semantics.choosers import Chooser
from ..semantics.state import Outcome, State, Terminated
from ..substrates.parallel import RacyArrayChooser
from ..substrates.workloads import generate_water_workloads
from .base import CaseStudy
from .registry import register_case_study

SOURCE = """
vars K, N, len_FF, gCUT2;
arrays RS, FF;
rel_requires (K<o> == K<r> && N<o> == N<r> && len_FF<o> == len_FF<r>
              && gCUT2<o> == gCUT2<r>);
assume(N >= 0);
// The parallel phase: lock elision makes RS nondeterministic.
relax (RS) st (true);
K = 0;
while (K < N)
    invariant (K >= 0)
    rel_invariant (K<o> == K<r> && N<o> == N<r> && len_FF<o> == len_FF<r>
                   && gCUT2<o> == gCUT2<r>)
{
    assume(K < len_FF);
    // EXP(RS[K]) is modelled by a linear expression; its exact shape is
    // irrelevant to the integrity property being verified.  The branch on
    // RS[K] diverges with no diverge annotation: the relational frame
    // carries the propagated outer assume, which re-establishes the inner one.
    if (RS[K] < gCUT2) {
        assume(K < len_FF);
        FF[K] = 2 * RS[K] + 1;
    }
    K = K + 1;
}
relate bounds: (K<o> == K<r> && len_FF<o> == len_FF<r>);
"""


def _workloads(count: int, seed: int = 0) -> List[State]:
    states = []
    for workload in generate_water_workloads(count, seed=seed):
        molecules = len(workload.interactions)
        rs = {index: value for index, value in enumerate(workload.interactions)}
        ff = {index: 0 for index in range(workload.array_length)}
        states.append(
            State.of(
                {
                    "K": 0,
                    "N": molecules,
                    "len_FF": workload.array_length,
                    "gCUT2": workload.cutoff,
                },
                arrays={"RS": rs, "FF": ff},
            )
        )
    return states


def _chooser(seed: int) -> Chooser:
    return RacyArrayChooser(array_name="RS", threads=4, seed=seed)


def _differing_cells(original: Outcome, relaxed: Outcome) -> int:
    ff_original = original.state.array("FF")
    ff_relaxed = relaxed.state.array("FF")
    return sum(
        1 for index in ff_original if ff_original[index] != ff_relaxed.get(index, 0)
    )


def _distortion(initial: State, original: Outcome, relaxed: Outcome) -> Optional[float]:
    """Accuracy loss = fraction of FF cells the races perturbed."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    cells = len(original.state.array("FF"))
    return _differing_cells(original, relaxed) / cells if cells else 0.0


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        ff_original = original.state.array("FF")
        ff_relaxed = relaxed.state.array("FF")
        updated_original = sum(1 for value in ff_original.values() if value != 0)
        updated_relaxed = sum(1 for value in ff_relaxed.values() if value != 0)
        metrics["ff_updates_original"] = float(updated_original)
        metrics["ff_updates_relaxed"] = float(updated_relaxed)
        differing = _differing_cells(original, relaxed)
        metrics["ff_cells_differing"] = float(differing)
        metrics["ff_fraction_differing"] = differing / max(1, len(ff_original))
        rs_original = original.state.array("RS")
        rs_relaxed = relaxed.state.array("RS")
        lost = sum(
            abs(rs_original[index] - rs_relaxed.get(index, 0)) for index in rs_original
        )
        metrics["rs_total_absolute_deviation"] = float(lost)
    return metrics


WATER = register_case_study(
    CaseStudy(
        name="water-parallelization",
        source=SOURCE,
        workloads_hook=_workloads,
        paper_section="5.2",
        paper_proof_lines=310,
        chooser_hook=_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["WATER", "SOURCE"]
