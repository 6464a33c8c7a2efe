"""Guided frontier search: beam scheduling with a site-kind reward table.

Exhaustive breadth-first enumeration expands *every* candidate of a
generation; depth is then capped by the width of the space.  The frontier
scheduler replaces that with a beam: each generation, only the
``beam_width`` most promising candidates are expanded, ranked by their
measured score plus a learned prior over their relaxation-site kinds.

The prior is a :class:`RewardTable` — per site *kind* (``perforate-loop``,
``restrict-relax``, ``dynamic-knob``) it accumulates the empirical reward
(the verified child's estimated savings; zero for rejected children) of
expanding along that kind: cheap counts, fully deterministic, and
persisted into the explore report rather than claimed.
Untried kinds carry an optimistic prior so the beam keeps exploring before
it starts exploiting.

Determinism contract (tested): selection depends only on candidate scores
(themselves deterministic in ``(samples, seed, policies)``), the reward
table (deterministic in the observation order), and discovery order as the
tie-break.  Selected parents are returned **in discovery order**, so a
beam wide enough to hold the whole generation expands exactly the
exhaustive parent sequence — which is what makes beam-vs-exhaustive
byte-identical fingerprints/verdicts a structural guarantee rather than a
coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: The search strategies ``repro explore --strategy`` accepts.
STRATEGIES: Tuple[str, ...] = ("exhaustive", "beam")

#: Expected reward for a site kind that has never been expanded: optimistic
#: (savings are fractions in [0, 1], so 1.0 dominates any measured mean)
#: to force at least one expansion along each kind before ranking by data.
OPTIMISTIC_REWARD = 1.0


@dataclass
class RewardTable:
    """Empirical reward per relaxation-site kind."""

    counts: Dict[str, int] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)

    def record(self, kind: str, reward: float) -> None:
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self.totals[kind] = self.totals.get(kind, 0.0) + reward

    def expected(self, kind: str) -> float:
        """Mean observed reward for ``kind``; optimistic when untried."""
        count = self.counts.get(kind, 0)
        if count == 0:
            return OPTIMISTIC_REWARD
        return self.totals[kind] / count

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            kind: {
                "count": float(self.counts[kind]),
                "total": self.totals[kind],
                "mean": self.totals[kind] / self.counts[kind],
            }
            for kind in sorted(self.counts)
        }


class FrontierScheduler:
    """Chooses which candidates of a generation to expand next.

    ``exhaustive`` expands every candidate (breadth-first, the classic
    path).  ``beam`` keeps the ``beam_width`` best: verified candidates
    ranked by ``savings + mean expected reward of their applied site
    kinds``, unverified candidates ranked below every verified one (they
    are still expandable — a child may restore acceptability — but only
    when the beam has room).  Ties break by discovery order, and the
    selected parents are returned in discovery order (see the module
    docstring's determinism contract).
    """

    def __init__(self, strategy: str = "exhaustive", beam_width: int = 8) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r} (expected one of {'/'.join(STRATEGIES)})"
            )
        if beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        self.strategy = strategy
        self.beam_width = beam_width
        self.rewards = RewardTable()
        #: Candidates dropped from the frontier by beam truncation.
        self.pruned = 0

    def priority(self, outcome) -> float:
        """The expansion priority of one scored candidate outcome."""
        score = outcome.score.savings if outcome.score is not None else 0.0
        kinds = [site.kind for site in outcome.candidate.applied]
        if kinds:
            prior = sum(self.rewards.expected(kind) for kind in kinds) / len(kinds)
        else:
            prior = OPTIMISTIC_REWARD  # the baseline: everything is open
        return score + prior

    def select(self, outcomes: Sequence) -> List:
        """The subset of a generation's outcomes to expand next."""
        if self.strategy == "exhaustive" or len(outcomes) <= self.beam_width:
            return list(outcomes)
        ranked = sorted(
            enumerate(outcomes),
            key=lambda pair: (not pair[1].verified, -self.priority(pair[1]), pair[0]),
        )
        kept = sorted(ranked[: self.beam_width], key=lambda pair: pair[0])
        self.pruned += len(outcomes) - len(kept)
        return [outcome for _index, outcome in kept]

    def observe(self, outcome) -> None:
        """Credit the newest applied site kind with the candidate's reward.

        The newest site is the action that produced this candidate from
        its parent; its reward is the verified candidate's estimated
        savings (zero for gate-rejected candidates).  The baseline applies
        no site, so it trains nothing.
        """
        if not outcome.candidate.applied:
            return
        kind = outcome.candidate.applied[-1].kind
        reward = 0.0
        if outcome.verified and outcome.score is not None:
            reward = outcome.score.savings
        self.rewards.record(kind, reward)
