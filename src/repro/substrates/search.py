"""Search-engine workload substrate (Section 5.1's Swish++ scenario).

The paper's dynamic-knobs case study reduces the number of search results
Swish++ formats when the server is under heavy load.  This module provides
the pieces a realistic differential experiment needs:

* :class:`QueryResult` / :func:`generate_query_results` — synthetic ranked
  result lists with Zipf-like score decay (users care about the head of the
  ranking, which is why returning the top 10 under load is acceptable),
* :class:`LoadModel` — a simple open-loop server load model (arrival bursts
  with exponential decay) driving the dynamic knob,
* :class:`DynamicKnobController` — maps the observed load to the ``max_r``
  control variable exactly as a Dynamic Knobs controller would (full results
  under low load, top-10 under high load),
* :class:`DynamicKnobChooser` — resolves ``relax (max_r) st (...)`` in the
  dynamic relaxed semantics using the controller, so simulations reproduce
  the deployed behaviour rather than arbitrary nondeterminism,
* quality metrics (:func:`result_quality`) measuring how much ranked mass
  the relaxed execution preserves.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..semantics.choosers import Chooser, MinimalChangeChooser
from ..semantics.state import State


@dataclass(frozen=True)
class QueryResult:
    """One ranked search result."""

    doc_id: int
    score: float


def generate_query_results(count: int, seed: int = 0) -> List[QueryResult]:
    """Generate a ranked result list with Zipf-like score decay."""
    rng = random.Random(seed)
    results = []
    for rank in range(count):
        base = 1.0 / (1 + rank)
        noise = rng.uniform(0.0, 0.05)
        results.append(QueryResult(doc_id=rng.randrange(1 << 30), score=base + noise))
    results.sort(key=lambda result: -result.score)
    return results


@dataclass
class LoadModel:
    """An open-loop server load model: bursty arrivals with decay."""

    burst_probability: float = 0.25
    burst_height: float = 3.0
    decay: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._level = 0.0

    def step(self) -> float:
        """Advance one time step and return the current load level."""
        self._level *= self.decay
        if self._rng.random() < self.burst_probability:
            self._level += self.burst_height
        return self._level


@dataclass
class DynamicKnobController:
    """Map observed load to the ``max_r`` knob (results shown to the user).

    Under low load the server formats every result (``max_r`` unchanged);
    under high load it clamps the number of formatted results, but never
    below ``minimum_results`` (10 in the paper) so the user still sees the
    head of the ranking.
    """

    high_load_threshold: float = 2.0
    minimum_results: int = 10

    def knob(self, requested_max_r: int, load: float) -> int:
        if requested_max_r <= self.minimum_results:
            # The relaxation may not drop results when few were requested.
            return requested_max_r
        if load < self.high_load_threshold:
            return requested_max_r
        # Heavy load: scale down, but never below the minimum.
        scaled = int(requested_max_r / (1.0 + load - self.high_load_threshold))
        return max(self.minimum_results, scaled)


class DynamicKnobChooser(Chooser):
    """Resolve ``relax (max_r) st (...)`` with the dynamic-knob controller."""

    def __init__(
        self,
        controller: Optional[DynamicKnobController] = None,
        load_model: Optional[LoadModel] = None,
        knob_var: str = "max_r",
        seed: int = 0,
    ) -> None:
        self._controller = controller or DynamicKnobController()
        self._load_model = load_model or LoadModel(seed=seed)
        self._knob_var = knob_var
        self._fallback = MinimalChangeChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        if self._knob_var not in statement.targets or not state.has_scalar(self._knob_var):
            return self._fallback.choose(statement, state)
        load = self._load_model.step()
        requested = state.scalar(self._knob_var)
        chosen = self._controller.knob(requested, load)
        return state.set_scalar(self._knob_var, chosen)


def result_quality(results: Sequence[QueryResult], presented: int) -> float:
    """Fraction of total ranked score mass contained in the first ``presented``
    results — the quality-of-result metric for the Swish++ experiments."""
    total = sum(result.score for result in results)
    if total == 0:
        return 1.0
    shown = sum(result.score for result in results[: max(0, presented)])
    return shown / total
