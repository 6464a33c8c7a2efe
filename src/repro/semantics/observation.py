"""Observational compatibility of original and relaxed executions (Theorem 6).

Executing a ``relate l : e*`` statement emits the observation ``(l, σ)``.
Two observation lists ``ψ1`` (from an original execution) and ``ψ2`` (from a
relaxed execution) are *observationally compatible* with respect to the
label map ``Γ`` — written ``Γ ⊢ ψ1 ∼ ψ2`` — when they have the same length,
corresponding observations carry the same label, and the label's relational
boolean expression evaluates to true over the pair of recorded states.

Theorem 6 of the paper states that a program verified under the axiomatic
relaxed semantics only produces compatible observation lists; the
metatheory harness checks this dynamically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..lang.ast import RelBoolExpr
from ..logic.evaluate import EvaluationError, Valuation, evaluate
from ..logic.formula import Symbol, Tag
from ..logic.translate import formula_of_rel_bool
from .state import Observation, ObservationList, State


@dataclass(frozen=True)
class CompatibilityResult:
    """The outcome of checking ``Γ ⊢ ψ1 ∼ ψ2``."""

    compatible: bool
    reason: str = ""
    failing_index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.compatible


def pair_valuation(original: State, relaxed: State) -> Valuation:
    """Build the logic valuation for a pair of states (σo, σr)."""
    scalars: Dict[Symbol, int] = {}
    arrays: Dict[Symbol, Dict[int, int]] = {}
    for name, value in original.scalars:
        scalars[Symbol(name, Tag.ORIGINAL)] = value
    for name, value in relaxed.scalars:
        scalars[Symbol(name, Tag.RELAXED)] = value
    for name, values in original.arrays:
        arrays[Symbol(name, Tag.ORIGINAL)] = dict(values)
    for name, values in relaxed.arrays:
        arrays[Symbol(name, Tag.RELAXED)] = dict(values)
    return Valuation(scalars=scalars, arrays=arrays)


def relational_holds(condition: RelBoolExpr, original: State, relaxed: State) -> bool:
    """Evaluate a relational boolean expression over a pair of states."""
    formula = formula_of_rel_bool(condition)
    valuation = pair_valuation(original, relaxed)
    try:
        return evaluate(formula, valuation)
    except EvaluationError:
        return False


def check_compatibility(
    gamma: Mapping[str, RelBoolExpr],
    original_observations: ObservationList,
    relaxed_observations: ObservationList,
) -> CompatibilityResult:
    """Check the observational compatibility relation ``Γ ⊢ ψ1 ∼ ψ2``."""
    if len(original_observations) != len(relaxed_observations):
        return CompatibilityResult(
            False,
            reason=(
                "observation lists have different lengths: "
                f"{len(original_observations)} vs {len(relaxed_observations)}"
            ),
        )
    for index, (obs_o, obs_r) in enumerate(
        zip(original_observations, relaxed_observations)
    ):
        if obs_o.label != obs_r.label:
            return CompatibilityResult(
                False,
                reason=f"labels differ at position {index}: {obs_o.label} vs {obs_r.label}",
                failing_index=index,
            )
        condition = gamma.get(obs_o.label)
        if condition is None:
            return CompatibilityResult(
                False,
                reason=f"label {obs_o.label!r} has no relate statement in the program",
                failing_index=index,
            )
        if not relational_holds(condition, obs_o.state, obs_r.state):
            return CompatibilityResult(
                False,
                reason=(
                    f"relate {obs_o.label!r} violated: condition {condition} does not "
                    f"hold for states {obs_o.state} / {obs_r.state}"
                ),
                failing_index=index,
            )
    return CompatibilityResult(True)
