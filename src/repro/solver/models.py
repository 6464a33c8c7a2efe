"""Bounded model search — the solver's fallback for hard formulas.

When a proof obligation falls outside the linear fragment (non-linear
products, unsupported constructs) the main pipeline cannot decide it.  This
module provides a bounded search for satisfying assignments over a small
box of integers.  A found model is a genuine model (so ``SAT`` answers are
sound); exhausting the box proves nothing, so the caller reports ``UNKNOWN``
rather than ``UNSAT``.

The search is *pruned* rather than a blind ``values ** n`` sweep, and
every candidate assignment is checked by the one evaluator of the
assertion logic, :func:`repro.logic.evaluate.evaluate`:

* *unit atoms* among the top-level conjuncts — comparisons of one symbol
  against a constant (``x == 3``, ``x >= 1``, ``!(x < 0)``) and
  single-symbol divisibility atoms — are propagated onto each symbol's
  candidate list before the cartesian sweep, shrinking the assignment space
  (often to a single point per pinned symbol);
* conjuncts are checked cheapest-first (by quantifier depth, then node
  count) so inexpensive frequently-failing atoms reject an assignment
  before its quantified conjuncts run their domain loops.

Both are search-space optimisations that never weaken soundness:
pruning only removes assignments that falsify a conjunct (never a model),
and an assignment accepted by the reordered conjunct check satisfies the
conjunction under any order.  When a reordered conjunct raises an
:class:`~repro.logic.evaluate.EvaluationError` the assignment is
re-checked in original operand order, so any error the checker *does*
surface is exactly the error of evaluating the whole formula for that
assignment.

Two deliberate divergences remain at the whole-search level, both in the
same direction — a blind sweep aborts the entire search (returning
``None``/partial models) when *any* visited evaluation raises, and the
pruned search can avoid some of those aborts:

* **pruned assignments are never visited** — a sweep a blind search
  aborts on (say) a division by zero at ``y = 0`` under the conjunct
  ``y >= 1`` runs to completion, because ``y = 0`` is pruned before
  evaluation;
* **a cheaper conjunct can reject first** — when a reordered cheap
  conjunct returns ``False``, the erroring conjunct the original-order
  short-circuit would have reached is never evaluated, so the assignment
  is rejected instead of aborting the sweep (the original-order re-check
  only runs when an error actually surfaces).

Every such divergence turns an abort (``UNKNOWN`` to the caller) into a
sound conclusive answer, never the reverse: a model is only ever reported
after its accepting evaluation completed without error.
``TestUnitPropagation::test_pruned_error_assignments_cannot_abort`` pins
the direction.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .. import telemetry
from ..logic.evaluate import EvaluationError, Valuation, evaluate
from ..logic.formula import (
    And,
    Atom,
    Const,
    Divides,
    Exists,
    Forall,
    Formula,
    Not,
    Rel,
    Symbol,
    SymTerm,
    free_symbols,
    formula_arrays,
    formula_size,
    quantifier_depth,
)
from ..logic.traverse import node_children


def _subformulas(node: Formula) -> Sequence[Formula]:
    """Immediate formula children: the terms of an atom are not descended
    into (the cost model counts connectives and quantifiers only)."""
    return [child for child in node_children(node) if isinstance(child, Formula)]


def _evaluation_blowup(formula: Formula, domain_size: int, cap: int = 10**9) -> int:
    """How much more expensive one evaluation is than the formula's size.

    Evaluating ``Forall``/``Exists`` iterates the whole quantifier domain
    (multiplicatively when nested, additively for siblings), so the true
    cost of one assignment check is the recursively weighted node count;
    the blowup is that cost relative to the plain node count, and it drives
    the assignment budget in :func:`bounded_model_search`.  Both counts are
    capped so pathological nestings cannot overflow.
    """

    def measure(node: Formula) -> Tuple[int, int]:
        cost = size = 1
        for child in _subformulas(node):
            child_cost, child_size = measure(child)
            cost = min(cap, cost + child_cost)
            size = min(cap, size + child_size)
        if isinstance(node, (Exists, Forall)):
            cost = min(cap, cost * domain_size)
        return cost, size

    cost, size = measure(formula)
    return max(1, cost // max(1, size))


def _candidate_values(radius: int) -> List[int]:
    """Values ordered by absolute magnitude: 0, 1, -1, 2, -2, ..."""
    values = [0]
    for magnitude in range(1, radius + 1):
        values.append(magnitude)
        values.append(-magnitude)
    return values


# ---------------------------------------------------------------------------
# Unit-atom propagation
# ---------------------------------------------------------------------------


class _UnitConstraints:
    """Accumulated single-symbol constraints from the top-level conjuncts."""

    __slots__ = ("lower", "upper", "pinned", "excluded", "divisors", "unsatisfiable")

    def __init__(self) -> None:
        self.lower: Optional[int] = None
        self.upper: Optional[int] = None
        self.pinned: Optional[int] = None
        self.excluded: set = set()
        self.divisors: List[int] = []
        self.unsatisfiable = False

    def add(self, rel: Rel, bound: int) -> None:
        if rel is Rel.LT:
            rel, bound = Rel.LE, bound - 1
        elif rel is Rel.GT:
            rel, bound = Rel.GE, bound + 1
        if rel is Rel.LE:
            if self.upper is None or bound < self.upper:
                self.upper = bound
        elif rel is Rel.GE:
            if self.lower is None or bound > self.lower:
                self.lower = bound
        elif rel is Rel.EQ:
            if self.pinned is not None and self.pinned != bound:
                self.unsatisfiable = True
            self.pinned = bound
        elif rel is Rel.NE:
            self.excluded.add(bound)

    def admits(self, value: int) -> bool:
        if self.pinned is not None and value != self.pinned:
            return False
        if self.lower is not None and value < self.lower:
            return False
        if self.upper is not None and value > self.upper:
            return False
        if value in self.excluded:
            return False
        return all(value % divisor == 0 for divisor in self.divisors)


def _flatten_conjuncts(formula: Formula) -> List[Formula]:
    """The top-level conjuncts of ``formula`` (nested ``And`` flattened)."""
    if not isinstance(formula, And):
        return [formula]
    conjuncts: List[Formula] = []
    for operand in formula.operands:
        conjuncts.extend(_flatten_conjuncts(operand))
    return conjuncts


def _unit_atom(conjunct: Formula) -> Optional[Tuple[Symbol, Rel, int]]:
    """Decompose ``conjunct`` as ``symbol rel constant`` if it has that shape."""
    negated = False
    if isinstance(conjunct, Not):
        conjunct, negated = conjunct.operand, True
    if not isinstance(conjunct, Atom):
        return None
    rel = conjunct.rel.negate() if negated else conjunct.rel
    left, right = conjunct.left, conjunct.right
    if isinstance(left, SymTerm) and isinstance(right, Const):
        return left.symbol, rel, right.value
    if isinstance(left, Const) and isinstance(right, SymTerm):
        return right.symbol, _FLIPPED_REL[rel], left.value
    return None


_FLIPPED_REL = {
    Rel.LT: Rel.GT,
    Rel.LE: Rel.GE,
    Rel.GT: Rel.LT,
    Rel.GE: Rel.LE,
    Rel.EQ: Rel.EQ,
    Rel.NE: Rel.NE,
}


def _unit_constraints(conjuncts: Iterable[Formula]) -> Dict[Symbol, _UnitConstraints]:
    """Collect per-symbol unit constraints from the top-level conjuncts."""
    constraints: Dict[Symbol, _UnitConstraints] = {}
    for conjunct in conjuncts:
        unit = _unit_atom(conjunct)
        if unit is not None:
            symbol, rel, bound = unit
            constraints.setdefault(symbol, _UnitConstraints()).add(rel, bound)
            continue
        if (
            isinstance(conjunct, Divides)
            and conjunct.divisor != 0
            and isinstance(conjunct.term, SymTerm)
        ):
            constraints.setdefault(
                conjunct.term.symbol, _UnitConstraints()
            ).divisors.append(conjunct.divisor)
    return constraints


def _prune_values(
    symbols: Sequence[Symbol],
    per_symbol_values: Sequence[Sequence[int]],
    constraints: Dict[Symbol, _UnitConstraints],
) -> Optional[List[List[int]]]:
    """Filter each symbol's candidate list through its unit constraints.

    Preserves candidate order (so the first model found is the first the
    unpruned sweep would find).  Returns ``None`` when some symbol has no
    admissible candidate — the conjunction has no model in the box.
    """
    pruned: List[List[int]] = []
    for symbol, values in zip(symbols, per_symbol_values):
        constraint = constraints.get(symbol)
        if constraint is None:
            kept = list(values)
        elif constraint.unsatisfiable:
            kept = []
        else:
            kept = [value for value in values if constraint.admits(value)]
        pruned.append(kept)
    if any(not kept for kept in pruned):
        return None
    return pruned


# ---------------------------------------------------------------------------
# Assignment checking
# ---------------------------------------------------------------------------


def _assignment_checker(
    formula: Formula, conjuncts: Sequence[Formula]
) -> Callable[[Valuation, Optional[Sequence[int]]], bool]:
    """A cheap-conjuncts-first satisfaction check for ``formula``.

    Conjuncts run ordered by (quantifier depth, node count): constant-time
    atoms reject an assignment before quantified conjuncts loop over their
    domains.  Reordering cannot change the boolean outcome of a conjunction,
    but it changes which errors surface: a newly-surfaced
    :class:`EvaluationError` triggers a re-check of the whole formula in
    original operand order, while an error the reordering *masks* — a
    cheaper conjunct rejected the assignment before the erroring one ran —
    simply rejects the assignment, where a blind sweep would have aborted
    the whole search (see the module docstring's divergence notes).
    """
    if len(conjuncts) <= 1:
        return lambda valuation, domain: evaluate(formula, valuation, domain)
    # The sort is stable: equally cheap conjuncts keep their original order.
    ordered = sorted(conjuncts, key=lambda c: (quantifier_depth(c), formula_size(c)))

    def check(valuation: Valuation, domain: Optional[Sequence[int]]) -> bool:
        try:
            for conjunct in ordered:
                if not evaluate(conjunct, valuation, domain):
                    return False
            return True
        except EvaluationError:
            return evaluate(formula, valuation, domain)

    return check


def _models(
    formula: Formula,
    candidates: Optional[Dict[Symbol, Sequence[int]]],
    radius: int,
    quantifier_domain_radius: int,
    budget: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> Iterator[Dict[Symbol, int]]:
    """The models of ``formula`` in its pruned candidate box, in sweep order.

    Each free symbol ranges over its ``candidates`` list where one is
    given, else over ``[-radius, radius]`` by magnitude; unit atoms prune
    each list first.  The sweep stops at the first
    :class:`~repro.logic.evaluate.EvaluationError`, after ``budget``
    assignments, or once ``max_seconds`` have passed (checked every 256
    assignments).  A closed formula is one assignment, the empty one.
    """
    symbols = sorted(free_symbols(formula))
    domain = range(-quantifier_domain_radius, quantifier_domain_radius + 1)
    conjuncts = _flatten_conjuncts(formula)
    check = _assignment_checker(formula, conjuncts)
    default_values = _candidate_values(radius)
    candidates = candidates or {}
    per_symbol_values = [
        # Deduplicated, in order.
        list(dict.fromkeys(candidates[symbol])) or default_values
        if symbol in candidates
        else default_values
        for symbol in symbols
    ]
    pruned = _prune_values(symbols, per_symbol_values, _unit_constraints(conjuncts))
    if pruned is None:
        return
    deadline = time.perf_counter() + max_seconds if max_seconds is not None else None
    # One valuation for the whole sweep: quantifiers bind on copies, so
    # evaluation never changes it.
    scalars: Dict[Symbol, int] = {}
    valuation = Valuation(scalars=scalars)
    for index, assignment in enumerate(itertools.product(*pruned)):
        if budget is not None and index >= budget:
            return
        if deadline is not None and index % 256 == 0 and time.perf_counter() > deadline:
            return
        for symbol, value in zip(symbols, assignment):
            scalars[symbol] = value
        try:
            if check(valuation, domain):
                yield dict(zip(symbols, assignment))
        except EvaluationError:
            return


def bounded_model_search(
    formula: Formula,
    radius: int = 4,
    max_assignments: int = 200_000,
    quantifier_domain_radius: int = 6,
    max_seconds: Optional[float] = 2.0,
) -> Optional[Dict[Symbol, int]]:
    """Search for a model of ``formula`` with all symbols in ``[-radius, radius]``.

    Returns a satisfying assignment or ``None`` if the bounded search space
    is exhausted (or a budget is reached).  Two budgets apply: the
    assignment count ``max_assignments``, and the wall clock ``max_seconds``
    — each assignment of a quantified formula costs an inner evaluation per
    domain element, so the count alone does not bound work.  A found model
    is still a genuine model; cutting the search short only turns a late
    ``None`` into an early one (the caller reports ``UNKNOWN`` either way).
    Formulas mentioning arrays are not supported here and yield ``None``.
    """
    with telemetry.span("solver.bounded_search", radius=radius) as search_span:
        model = _bounded_model_search(
            formula, radius, max_assignments, quantifier_domain_radius, max_seconds
        )
        search_span.set_attribute("found", model is not None)
        return model


def _bounded_model_search(
    formula: Formula,
    radius: int,
    max_assignments: int,
    quantifier_domain_radius: int,
    max_seconds: Optional[float],
) -> Optional[Dict[Symbol, int]]:
    if formula_arrays(formula):
        return None
    # Scale the assignment budget by the per-assignment evaluation cost:
    # quantified formulas evaluate their bodies once per domain element
    # (multiplicatively when nested), so expensive formulas get
    # proportionally fewer assignments — and pathological ones none at all
    # — instead of wedging the whole discharge pipeline on one obligation.
    # This guards the closed-formula path too: a fully quantified formula
    # is one "assignment" whose evaluation can still be astronomically deep.
    domain = range(-quantifier_domain_radius, quantifier_domain_radius + 1)
    budget = max_assignments // _evaluation_blowup(formula, len(domain))
    telemetry.observe("solver.bounded_search.budget", budget)
    if budget <= 0:
        telemetry.count("solver.bounded_search.starved")
        return None
    telemetry.count("solver.bounded_search.searches")
    models = _models(formula, None, radius, quantifier_domain_radius, budget, max_seconds)
    return next(models, None)


def enumerate_models(
    formula: Formula,
    radius: int = 4,
    limit: int = 100,
    quantifier_domain_radius: int = 6,
    candidates: Optional[Dict[Symbol, Sequence[int]]] = None,
) -> List[Dict[Symbol, int]]:
    """Enumerate up to ``limit`` models of ``formula`` within a candidate box.

    By default every free symbol ranges over ``[-radius, radius]``; the
    optional ``candidates`` mapping overrides the candidate value list per
    symbol (the dynamic-semantics enumerator uses this to centre the search
    around the values already in the program state).  Unit atoms among the
    top-level conjuncts prune each candidate list (order-preserving, so the
    model list matches the unpruned sweep's).

    Used by the nondeterminism strategies of the dynamic semantics (to pick
    havoc / relax witnesses) and by the metatheory harness (to enumerate the
    bounded state space).
    """
    if formula_arrays(formula):
        return []
    telemetry.count("solver.enumerate_models.calls")
    models = _models(formula, candidates, radius, quantifier_domain_radius)
    return list(itertools.islice(models, limit))
