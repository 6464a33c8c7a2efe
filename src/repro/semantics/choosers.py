"""Nondeterminism resolution strategies for ``havoc`` and ``relax`` statements.

The dynamic semantics of ``havoc (X) st (e)`` (and, in the relaxed
semantics, ``relax (X) st (e)``) nondeterministically assigns the variables
in ``X`` any values satisfying ``e``.  A concrete interpreter must resolve
that nondeterminism; a :class:`Chooser` encapsulates the policy:

* :class:`SolverChooser` — ask the decision procedure for some satisfying
  assignment (deterministic given the solver's search order),
* :class:`RandomChooser` — sample uniformly among the satisfying
  assignments within a bounded box (seeded, reproducible),
* :class:`MinimalChangeChooser` — prefer keeping the previous values when
  they already satisfy the predicate (models "the relaxed execution follows
  the original unless it chooses otherwise"),
* :class:`FixedChoiceChooser` — replay a scripted sequence of choices
  (used by tests),
* :class:`AdversarialChooser` — prefer extreme values within the bounded
  box (useful for stress-testing acceptability properties dynamically).

A chooser returns ``None`` when it cannot find any satisfying assignment;
the interpreter then produces the ``wr`` outcome as required by the
``havoc-f`` rule of Figure 3.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..lang.analysis import bool_vars
from ..logic.evaluate import EvaluationError, Valuation
from ..logic.evaluate import evaluate as evaluate_formula
from ..logic.formula import (
    And,
    Atom,
    Const,
    FalseF,
    Formula,
    Not,
    Or,
    Rel,
    Symbol,
    SymTerm,
    TrueF,
    conj,
    eq,
)
from ..logic.translate import formula_of_bool
from ..solver.interface import Solver
from ..solver.linear import LinearTerm, NonLinearError, atom_linear
from ..solver.models import enumerate_models
from .state import State


ChoiceUpdate = Dict[str, int]


class ChooserError(Exception):
    """Raised when a chooser cannot handle a havoc/relax statement (e.g. an
    array target with a predicate that constrains the array contents)."""


class _WitnessPlan:
    """What the witness search of one havoc/relax statement reuses.

    Built once per AST node (see :func:`_witness_plan`): the predicate's
    formula, its sorted free variables, and per scalar target the interval
    solver of :func:`_interval_solver` (``None`` when the predicate falls
    outside the interval fragment).
    """

    __slots__ = ("statement", "formula", "reads", "_solvers")

    def __init__(self, statement) -> None:
        self.statement = statement
        self.formula = formula_of_bool(statement.predicate)
        self.reads: Tuple[str, ...] = tuple(sorted(bool_vars(statement.predicate)))
        self._solvers: Dict[str, Optional[Tuple["_Solve", Tuple[str, ...]]]] = {}

    def solver(self, target: str) -> Optional[Tuple["_Solve", Tuple[str, ...]]]:
        """The interval solver for ``target`` and the variables it pins."""
        if target not in self._solvers:
            solve = None
            if target in self.reads:
                solve = _interval_solver(self.formula, Symbol(target))
            pinned = tuple(name for name in self.reads if name != target)
            self._solvers[target] = None if solve is None else (solve, pinned)
        return self._solvers[target]


# Plans keyed by statement identity, like the interpreter's closure caches;
# each plan holds its statement, so a cached id cannot be reused.
_PLANS: Dict[int, _WitnessPlan] = {}
_PLAN_LIMIT = 1 << 16


def _witness_plan(statement) -> _WitnessPlan:
    plan = _PLANS.get(id(statement))
    if plan is None:
        plan = _WitnessPlan(statement)
        if len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.clear()
        _PLANS[id(statement)] = plan
    return plan


def _predicate_formula(statement, state: State) -> Formula:
    """Build the satisfiability query for a havoc/relax statement.

    Returns the predicate formula with non-target variables fixed to their
    current values; the targets are its unknowns.
    """
    plan = _witness_plan(statement)
    targets = set(statement.targets)
    fixes: List[Formula] = []
    for name in plan.reads:
        if name in targets:
            continue
        if state.has_scalar(name):
            fixes.append(eq(SymTerm(Symbol(name)), Const(state.scalar(name))))
        elif state.has_array(name):
            raise ChooserError(
                f"predicate of {statement} reads array {name!r}; array-valued "
                "havoc/relax predicates must not constrain array contents"
            )
    return conj(plan.formula, *fixes)


def _candidate_spread(state: State, radius: int, max_candidates: int = 200) -> List[int]:
    """Candidate values for a havoc/relax target, in first-seen order.

    The values lie within ``radius`` of every scalar value currently in the
    state (plus zero), collected centre by centre in ascending order up to
    ``max_candidates`` distinct values — so a predicate such as
    ``y - e <= x <= y + e`` finds witnesses near ``y`` even when ``y`` is
    far from zero.  Callers try them nearest to zero first, by a stable
    sort on the absolute value.
    """
    centres = sorted(set(state.scalar_map().values()) | {0})
    # Each centre adds a value no earlier centre reaches (its top value
    # c + radius), so the cap falls within the first max_candidates centres.
    spread = dict.fromkeys(
        itertools.chain.from_iterable(
            range(centre - radius, centre + radius + 1)
            for centre in centres[:max_candidates]
        )
    )
    return list(spread)[:max_candidates]


def _candidate_values_map(
    statement, state: State, radius: int, max_candidates: int = 200
) -> Dict[Symbol, List[int]]:
    """Candidate values per free symbol of a havoc/relax predicate query.

    Non-target variables are pinned to their current value; target
    variables get the :func:`_candidate_spread`, nearest to zero first.
    """
    targets = set(statement.targets)
    spread = sorted(_candidate_spread(state, radius, max_candidates), key=abs)
    candidates: Dict[Symbol, List[int]] = {}
    for name in sorted(set(_witness_plan(statement).reads) | targets):
        if state.has_array(name):
            continue
        if name in targets:
            candidates[Symbol(name)] = list(spread)
        elif state.has_scalar(name):
            candidates[Symbol(name)] = [state.scalar(name)]
    return candidates


# ---------------------------------------------------------------------------
# Interval solving of a predicate in one target
# ---------------------------------------------------------------------------

#: A set of integers as sorted, disjoint, non-adjacent closed intervals
#: ``(lo, hi)``; the outermost bounds may be ``-inf``/``inf``.
Intervals = Tuple[Tuple[float, float], ...]
_Solve = Callable[[State], Intervals]

_FULL: Intervals = ((-math.inf, math.inf),)
_EMPTY: Intervals = ()


def _intersect(left: Intervals, right: Intervals) -> Intervals:
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def _union(left: Intervals, right: Intervals) -> Intervals:
    out: List[Tuple[float, float]] = []
    for lo, hi in sorted(left + right):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def _complement(intervals: Intervals) -> Intervals:
    out = []
    start = -math.inf
    for lo, hi in intervals:
        if lo > start:
            out.append((start, lo - 1))
        start = hi + 1
    if start < math.inf:
        out.append((start, math.inf))
    return tuple(out)


def _contains(intervals: Intervals, value: int) -> bool:
    for lo, hi in intervals:
        if value < lo:
            return False
        if value <= hi:
            return True
    return False


def _atom_rows(atom: Atom) -> Optional[Tuple[LinearTerm, ...]]:
    """The shared ``row <= 0`` rows of ``atom`` (of ``==`` for a ``!=``),
    or ``None`` when the atom is not linear."""
    try:
        linear = atom_linear(atom)
    except NonLinearError:
        return None
    if atom.rel is Rel.NE:
        return (linear.term, linear.term.negate())
    return linear.rows


def _rows_solver(rows: Sequence[LinearTerm], target: Symbol) -> _Solve:
    """Solve the conjunction of ``rows`` for ``target``: one interval.

    Every row reads ``a*target + c <= 0`` once the pinned variables are
    folded into ``c``, so it bounds the target by ``floor(-c/a)`` from
    above (``a > 0``), by ``ceil(-c/a)`` from below (``a < 0``), or holds
    outright or never (``a == 0``).
    """
    folded = tuple(
        (
            row.coefficient(target),
            tuple((symbol.name, coeff) for symbol, coeff in row.coeffs if symbol is not target),
            row.constant,
        )
        for row in rows
    )

    def solve(state: State) -> Intervals:
        lo, hi = -math.inf, math.inf
        for a, pinned, constant in folded:
            c = constant
            for name, coeff in pinned:
                c += coeff * state.scalar(name)
            if a > 0:
                hi = min(hi, -c // a)
            elif a < 0:
                lo = max(lo, -(-c // -a))
            elif c > 0:
                return _EMPTY
        return ((lo, hi),) if lo <= hi else _EMPTY

    return solve


def _interval_solver(formula: Formula, target: Symbol) -> Optional[_Solve]:
    """Compile ``formula`` into a function from a state that pins every
    other variable to the target's satisfying values, as :data:`Intervals`.

    ``And``, ``Or`` and ``Not`` intersect, unite and complement their
    operands' intervals; ``!=`` is the complement of ``==``, and the rows
    of a conjunction's other atoms are solved together as one interval.
    Returns ``None`` outside that fragment: divisibility, non-linear atoms,
    quantifiers, ``Implies`` and ``Iff``.
    """
    kind = type(formula)
    if kind is TrueF:
        return lambda state: _FULL
    if kind is FalseF:
        return lambda state: _EMPTY
    if kind is Atom:
        rows = _atom_rows(formula)
        if rows is None:
            return None
        solve = _rows_solver(rows, target)
        if formula.rel is Rel.NE:
            return lambda state: _complement(solve(state))
        return solve
    if kind is Not:
        operand = _interval_solver(formula.operand, target)
        if operand is None:
            return None
        return lambda state: _complement(operand(state))
    if kind is not And and kind is not Or:
        return None
    operands: List[_Solve] = []
    rows: List[LinearTerm] = []
    for child in formula.operands:
        if kind is And and type(child) is Atom and child.rel is not Rel.NE:
            child_rows = _atom_rows(child)
            if child_rows is None:
                return None
            rows.extend(child_rows)
            continue
        operand = _interval_solver(child, target)
        if operand is None:
            return None
        operands.append(operand)
    if rows:
        operands.insert(0, _rows_solver(rows, target))
    if len(operands) == 1:
        return operands[0]
    combine = _intersect if kind is And else _union
    first, rest = operands[0], operands[1:]

    def solve_all(state: State) -> Intervals:
        intervals = first(state)
        for operand in rest:
            intervals = combine(intervals, operand(state))
        return intervals

    return solve_all


def relax_witnesses(statement, state: State, radius: int, limit: int) -> List[ChoiceUpdate]:
    """The satisfying scalar-target updates of a havoc/relax statement.

    Candidates come from :func:`_candidate_spread`, nearest to zero first;
    the result keeps the first ``limit`` satisfying ones.  When the
    statement has exactly one scalar target and the state pins every other
    variable of the predicate, the predicate is solved as integer intervals
    in the target and the spread is filtered against them.  Everything
    else sweeps the spread through
    :func:`~repro.solver.models.enumerate_models`.  Both give the same
    list, so seeded choices do not depend on the path.
    """
    scalar_targets = _scalar_targets(statement, state)
    if len(scalar_targets) == 1:
        target = scalar_targets[0]
        solver = _witness_plan(statement).solver(target)
        if solver is not None and all(state.has_scalar(name) for name in solver[1]):
            telemetry.count("semantics.choose.interval")
            intervals = solver[0](state)
            if not intervals:
                return []
            spread = _candidate_spread(state, radius)
            if len(intervals) == 1:
                lo, hi = intervals[0]
                values = [value for value in spread if lo <= value <= hi]
            else:
                values = [value for value in spread if _contains(intervals, value)]
            # Filtering before the stable sort keeps the sorted spread's order.
            values.sort(key=abs)
            return [{target: value} for value in values[:limit]]
    telemetry.count("semantics.choose.sweep")
    models = enumerate_models(
        _predicate_formula(statement, state),
        radius=radius,
        limit=limit,
        candidates=_candidate_values_map(statement, state, radius),
    )
    return [
        {name: model.get(Symbol(name), 0) for name in scalar_targets} for model in models
    ]


def _scalar_targets(statement, state: State) -> List[str]:
    return [name for name in statement.targets if not state.has_array(name)]


def _array_targets(statement, state: State) -> List[str]:
    return [name for name in statement.targets if state.has_array(name)]


def _check_array_targets_unconstrained(statement, state: State) -> None:
    """Array targets are only supported with predicates that do not read them."""
    array_targets = _array_targets(statement, state)
    if not array_targets:
        return
    predicate_vars = _witness_plan(statement).reads
    for name in array_targets:
        if name in predicate_vars:
            raise ChooserError(
                f"array {name!r} is a havoc/relax target but the predicate "
                "constrains its contents; this fragment is not supported"
            )


class Chooser:
    """Base class of nondeterminism resolution strategies."""

    def choose(self, statement, state: State) -> Optional[State]:
        """Return a new state satisfying the statement's predicate, or None."""
        raise NotImplementedError

    # Array contents for unconstrained array targets: default keeps them.
    def _apply_array_targets(self, statement, state: State) -> State:
        return state


class SolverChooser(Chooser):
    """Resolve nondeterminism by asking the decision procedure for a model."""

    def __init__(self, solver: Optional[Solver] = None) -> None:
        self._solver = solver or Solver()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        result = self._solver.check_sat(_predicate_formula(statement, state))
        if not result.is_sat:
            return None
        model = result.model or {}
        updates: ChoiceUpdate = {}
        for name in _scalar_targets(statement, state):
            updates[name] = model.get(Symbol(name), 0)
        new_state = state.set_scalars(updates)
        return self._apply_array_targets(statement, new_state)


class MinimalChangeChooser(Chooser):
    """Keep the current values whenever they already satisfy the predicate.

    This chooser makes the relaxed execution coincide with the original
    execution whenever possible; it falls back to a delegate chooser when
    the current values violate the predicate (or targets are undefined).
    """

    def __init__(self, fallback: Optional[Chooser] = None) -> None:
        self._fallback = fallback or SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        try:
            targets = _scalar_targets(statement, state)
            if all(state.has_scalar(name) for name in targets):
                valuation = Valuation(
                    scalars={Symbol(k): v for k, v in state.scalar_map().items()}
                )
                formula = _witness_plan(statement).formula
                if evaluate_formula(formula, valuation, domain=None):
                    return state
        except EvaluationError:
            pass
        return self._fallback.choose(statement, state)


class RandomChooser(Chooser):
    """Sample uniformly among satisfying assignments within a bounded box."""

    def __init__(self, seed: int = 0, radius: int = 8, limit: int = 256) -> None:
        self._rng = random.Random(seed)
        self._radius = radius
        self._limit = limit
        self._fallback = SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        witnesses = relax_witnesses(statement, state, self._radius, self._limit)
        if not witnesses:
            return self._fallback.choose(statement, state)
        new_state = state.set_scalars(self._rng.choice(witnesses))
        # Array targets with unconstrained predicates: randomly perturb contents.
        for name in _array_targets(statement, state):
            values = state.array(name)
            perturbed = {
                index: self._rng.randint(-self._radius, self._radius)
                for index in values
            }
            new_state = new_state.set_array(name, perturbed)
        return new_state


class AdversarialChooser(Chooser):
    """Prefer extreme satisfying assignments (stress-tests acceptability).

    ``seed`` controls the tie-break among equally extreme assignments, so
    adversarial simulation runs are reproducible end to end: the same seed
    replays the same choices, different seeds explore different corners of
    the satisfying set.
    """

    def __init__(
        self,
        radius: int = 8,
        limit: int = 512,
        maximize: bool = True,
        seed: int = 0,
    ) -> None:
        self._radius = radius
        self._limit = limit
        self._maximize = maximize
        self._rng = random.Random(seed)
        self._fallback = SolverChooser()

    def choose(self, statement, state: State) -> Optional[State]:
        _check_array_targets_unconstrained(statement, state)
        witnesses = relax_witnesses(statement, state, self._radius, self._limit)
        if not witnesses:
            return self._fallback.choose(statement, state)
        scores = [sum(abs(value) for value in update.values()) for update in witnesses]
        best = max(scores) if self._maximize else min(scores)
        extremes = [
            update for update, value in zip(witnesses, scores) if value == best
        ]
        return state.set_scalars(self._rng.choice(extremes))


class FixedChoiceChooser(Chooser):
    """Replay an explicit sequence of choices (one update dict per havoc/relax).

    Each entry maps target variable names to values (and optionally array
    names to full ``{index: value}`` dictionaries).  When the script is
    exhausted, the fallback chooser takes over.
    """

    def __init__(
        self,
        script: Sequence[Mapping[str, object]],
        fallback: Optional[Chooser] = None,
        strict: bool = False,
    ) -> None:
        self._script = list(script)
        self._position = 0
        self._fallback = fallback or MinimalChangeChooser()
        self._strict = strict

    def choose(self, statement, state: State) -> Optional[State]:
        if self._position >= len(self._script):
            if self._strict:
                raise ChooserError("fixed-choice script exhausted")
            return self._fallback.choose(statement, state)
        entry = self._script[self._position]
        self._position += 1
        new_state = state
        for name, value in entry.items():
            if isinstance(value, Mapping):
                new_state = new_state.set_array(name, dict(value))  # type: ignore[arg-type]
            else:
                new_state = new_state.set_scalar(name, int(value))  # type: ignore[arg-type]
        # Validate the scripted choice against the predicate where possible.
        try:
            valuation = Valuation(
                scalars={Symbol(k): v for k, v in new_state.scalar_map().items()},
                arrays={Symbol(k): dict(v) for k, v in new_state.array_map().items()},
            )
            formula = formula_of_bool(statement.predicate)
            if not evaluate_formula(formula, valuation, domain=None):
                if self._strict:
                    raise ChooserError(
                        f"scripted choice {entry} violates the predicate of {statement}"
                    )
                return self._fallback.choose(statement, state)
        except EvaluationError:
            pass
        return new_state


# ---------------------------------------------------------------------------
# Chooser registry
# ---------------------------------------------------------------------------

#: Policy names accepted by :func:`make_chooser` (and the CLI's ``--chooser``).
CHOOSER_POLICIES = ("random", "adversarial", "minimal", "solver")


def make_chooser(policy: str, seed: int = 0, radius: int = 8) -> Chooser:
    """Construct a chooser by policy name with an explicit seed.

    This is the single point through which the CLI and the explorer build
    nondeterminism strategies, so every simulation run is reproducible from
    ``(policy, seed)`` alone.
    """
    if policy == "random":
        return RandomChooser(seed=seed, radius=radius)
    if policy == "adversarial":
        return AdversarialChooser(radius=radius, seed=seed)
    if policy == "minimal":
        return MinimalChangeChooser()
    if policy == "solver":
        return SolverChooser()
    raise ValueError(
        f"unknown chooser policy {policy!r}; expected one of {CHOOSER_POLICIES}"
    )
