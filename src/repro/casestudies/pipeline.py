"""Case study 7 — two-stage pipeline with a *joint* dynamic-knob relaxation.

Two pipeline stages process up to ``k1`` / ``k2`` items each.  Where the
Swish++ study relaxes one knob in isolation, here one relax statement
constrains both knobs *together*: each keeps a per-stage floor, and the
combined degradation across the pipeline is capped by a shared drop
budget — a relational invariant over the two knobs:

.. code-block:: none

    relax (k1, k2) st (4 <= k1 && k1 <= original_k1
                       && 4 <= k2 && k2 <= original_k2
                       && (original_k1 - k1) + (original_k2 - k2) <= budget);

Both stage loops diverge (their trip counts depend on the relaxed knobs);
each is characterised by the closed form ``n = min(N, max(k, 0))`` on both
sides, and the relate statement recombines the two per-stage facts into the
end-to-end guarantee — stagewise monotonicity plus the shared budget:

.. code-block:: none

    relate throughput: n1<r> <= n1<o> && n2<r> <= n2<o>
                       && (n1<o> - n1<r>) + (n2<o> - n2<r>) <= budget<r>

(the Lipschitz step — items dropped by a stage never exceed the knob
reduction of that stage — is exactly the case analysis the solver performs
when it eliminates the ``min``/``max`` terms).

Both divergence annotations anchor to their loops by positional selector.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..hoare.relational import DivergenceSpec, RelationalConfig
from ..hoare.verifier import AcceptabilitySpec
from ..lang import builder as b
from ..lang.ast import Program
from ..lang.parser import parse_bool
from ..semantics.state import Outcome, State, Terminated
from ..substrates.workloads import generate_pipeline_workloads
from .base import CaseStudy, random_chooser
from .registry import register_case_study
from .spec import loop_at

#: Per-stage floor both knobs must respect (the Swish++ "top results" idea,
#: applied to each stage of the pipeline).
STAGE_FLOOR = 4

SOURCE = """
vars N1, N2, k1, k2, original_k1, original_k2, budget, n1, n2;
assume(N1 >= 0);
assume(N2 >= 0);
assume(0 <= budget);
assume(4 <= k1);
assume(4 <= k2);
original_k1 = k1;
original_k2 = k2;
relax (k1, k2) st (4 <= k1 && k1 <= original_k1 && 4 <= k2 && k2 <= original_k2
                   && (original_k1 - k1) + (original_k2 - k2) <= budget);
n1 = 0;
while (n1 < N1 && n1 < k1)
    invariant (0 <= n1 && n1 <= N1 && (n1 <= k1 || n1 == 0) && 0 <= N1 && 0 <= N2)
{
    n1 = n1 + 1;
}
n2 = 0;
while (n2 < N2 && n2 < k2)
    invariant (0 <= n2 && n2 <= N2 && (n2 <= k2 || n2 == 0) && 0 <= N2)
{
    n2 = n2 + 1;
}
relate throughput: (n1<r> <= n1<o> && n2<r> <= n2<o>
                    && (n1<o> - n1<r>) + (n2<o> - n2<r>) <= budget<r>);
"""


def _spec(program: Program) -> AcceptabilitySpec:
    stage1 = loop_at(program, 0)
    stage2 = loop_at(program, 1)
    char1 = parse_bool("0 <= n1 && n1 == min(N1, max(k1, 0))")
    char2 = parse_bool("0 <= n2 && n2 == min(N2, max(k2, 0))")
    return AcceptabilitySpec(
        rel_precondition=b.all_same(
            "N1", "N2", "k1", "k2", "original_k1", "original_k2",
            "budget", "n1", "n2",
        ),
        relational_config=RelationalConfig(
            divergence_specs={
                stage1: DivergenceSpec(
                    original_post=char1, relaxed_post=char1,
                    comment="stage-1 trip count depends on the relaxed k1",
                ),
                stage2: DivergenceSpec(
                    original_post=char2, relaxed_post=char2,
                    comment="stage-2 trip count depends on the relaxed k2",
                ),
            },
        ),
    )


def _workloads(count: int, seed: int = 0):
    states = []
    for workload in generate_pipeline_workloads(
        count, seed=seed, knob_floor=STAGE_FLOOR
    ):
        states.append(
            State.of(
                {
                    "N1": workload.stage1_items,
                    "N2": workload.stage2_items,
                    "k1": workload.knob1,
                    "k2": workload.knob2,
                    "original_k1": 0,
                    "original_k2": 0,
                    "budget": workload.budget,
                    "n1": 0,
                    "n2": 0,
                }
            )
        )
    return states


def _distortion(
    initial: State, original: Outcome, relaxed: Outcome
) -> Optional[float]:
    """Accuracy loss = total items the relaxed pipeline dropped."""
    if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
        return None
    drop1 = original.state.scalar("n1") - relaxed.state.scalar("n1")
    drop2 = original.state.scalar("n2") - relaxed.state.scalar("n2")
    return float(abs(drop1) + abs(drop2))


def _metrics(initial: State, original: Outcome, relaxed: Outcome) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
        drop1 = original.state.scalar("n1") - relaxed.state.scalar("n1")
        drop2 = original.state.scalar("n2") - relaxed.state.scalar("n2")
        budget = relaxed.state.scalar("budget")
        metrics["stage1_processed"] = float(relaxed.state.scalar("n1"))
        metrics["stage2_processed"] = float(relaxed.state.scalar("n2"))
        metrics["stage1_dropped"] = float(drop1)
        metrics["stage2_dropped"] = float(drop2)
        metrics["total_dropped"] = float(drop1 + drop2)
        metrics["drop_budget"] = float(budget)
        metrics["within_budget"] = float(0 <= drop1 + drop2 <= budget)
    return metrics


PIPELINE_KNOBS = register_case_study(
    CaseStudy(
        name="pipeline-two-knobs",
        source=SOURCE,
        spec_hook=_spec,
        workloads_hook=_workloads,
        paper_section="5.1 (dynamic knobs, generalised)",
        chooser_hook=random_chooser,
        distortion_hook=_distortion,
        metrics_hook=_metrics,
    )
)

__all__ = ["PIPELINE_KNOBS", "SOURCE"]
