"""Case study 1 — Swish++ dynamic knobs (paper Section 5.1).

Swish++ formats and presents search results in a loop; ``max_r`` caps how
many results are presented.  The Dynamic Knobs relaxation may lower
``max_r`` under load, subject to the constraint that when the original cap
exceeded 10 the relaxed cap is still at least 10 (the user always sees the
top results):

.. code-block:: none

    original_max_r = max_r;
    relax (max_r) st ((original_max_r <= 10 && max_r == original_max_r)
                      || (10 < original_max_r && 10 <= max_r));

The acceptability property (the paper's relate statement) says the relaxed
execution presents either exactly the same number of results (when the
original presented fewer than 10) or at least 10:

.. code-block:: none

    relate results: (num_r<o> < 10 && num_r<o> == num_r<r>)
                    || (10 <= num_r<o> && 10 <= num_r<r>);

The formatting loop's trip count depends on the relaxed ``max_r``, so the
original and relaxed executions diverge at the loop; the proof uses the
diverge rule with a unary characterisation of the loop's result
(``num_r = min(N, max(max_r, 0))`` expressed as guarded implications) on
both sides, then re-establishes the relational property after control flow
converges — exactly the proof structure the paper describes (330 lines of
Coq proof script in the original artifact).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..hoare.relational import DivergenceSpec, RelationalConfig
from ..hoare.verifier import AcceptabilitySpec
from ..lang import builder as b
from ..lang.ast import Program
from ..semantics.choosers import Chooser
from ..semantics.state import Outcome, State, Terminated
from ..substrates.search import DynamicKnobChooser, DynamicKnobController, LoadModel
from ..substrates.workloads import generate_swish_workloads
from .base import CaseStudy
from .registry import register_case_study
from .spec import loop_at, source_program

#: The number of results the relaxed program must always keep (paper value;
#: the ``10`` in the relax predicate and the relate condition below).
MINIMUM_RESULTS = 10

SOURCE = """
vars N, max_r, original_max_r, num_r;
assume(N >= 0);
original_max_r = max_r;
relax (max_r) st ((original_max_r <= 10 && max_r == original_max_r)
                  || (original_max_r > 10 && max_r >= 10));
num_r = 0;
while (num_r < N && num_r < max_r)
    invariant (num_r >= 0 && num_r <= N && (num_r <= max_r || num_r == 0))
{
    num_r = num_r + 1;
}
relate results: ((num_r<o> < 10 && num_r<o> == num_r<r>)
                 || (num_r<o> >= 10 && num_r<r> >= 10));
"""


def loop_result_characterisation() -> "b.BoolExpr":
    """The unary postcondition of the formatting loop.

    ``num_r = min(N, max(max_r, 0))`` expressed as guarded linear implications
    so the obligation stays in the decidable fragment:
    """
    return b.and_(
        b.ge("num_r", 0),
        b.le("num_r", "N"),
        b.implies(b.le("N", "max_r"), b.eq("num_r", "N")),
        b.implies(b.and_(b.ge("max_r", 0), b.le("max_r", "N")), b.eq("num_r", "max_r")),
        b.implies(b.le("max_r", 0), b.eq("num_r", 0)),
    )


def _spec(program: Program) -> AcceptabilitySpec:
    characterisation = loop_result_characterisation()
    config = RelationalConfig(
        divergence_specs={
            loop_at(source_program(SOURCE)): DivergenceSpec(
                original_post=characterisation,
                relaxed_post=characterisation,
                comment="formatting loop: trip count depends on the relaxed max_r",
            )
        },
    )
    return AcceptabilitySpec(
        precondition=b.true,
        postcondition=b.true,
        rel_precondition=b.all_same("N", "max_r", "original_max_r", "num_r"),
        rel_postcondition=None,
        relational_config=config,
    )


def _workloads(count: int, seed: int = 0) -> List[State]:
    states = []
    for workload in generate_swish_workloads(count, seed):
        states.append(
            State.of(
                {
                    "N": workload.num_results,
                    "max_r": workload.requested_max_r,
                    "original_max_r": 0,
                    "num_r": 0,
                }
            )
        )
    return states


def _chooser(seed: int) -> Chooser:
    return DynamicKnobChooser(
        controller=DynamicKnobController(minimum_results=MINIMUM_RESULTS),
        load_model=LoadModel(seed=seed),
        knob_var="max_r",
        seed=seed,
    )


def _distortion(initial: State, original: Outcome, relaxed: Outcome) -> Optional[float]:
    """Accuracy loss = number of results the relaxed execution dropped."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    return float(abs(original.state.scalar("num_r") - relaxed.state.scalar("num_r")))


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        presented_original = original.state.scalar("num_r")
        presented_relaxed = relaxed.state.scalar("num_r")
        metrics["presented_original"] = float(presented_original)
        metrics["presented_relaxed"] = float(presented_relaxed)
        metrics["results_dropped"] = float(presented_original - presented_relaxed)
        # Loop iterations saved is the performance proxy (fewer results formatted).
        metrics["iterations_saved"] = float(presented_original - presented_relaxed)
        if presented_original > 0:
            metrics["fraction_presented"] = presented_relaxed / presented_original
        else:
            metrics["fraction_presented"] = 1.0
    return metrics


SWISH = register_case_study(
    CaseStudy(
        name="swish-dynamic-knobs",
        source=SOURCE,
        spec_hook=_spec,
        workloads_hook=_workloads,
        paper_section="5.1",
        paper_proof_lines=330,
        chooser_hook=_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["SWISH", "SOURCE", "MINIMUM_RESULTS", "loop_result_characterisation"]
