"""Integer feasibility of conjunctions of linear literals (the cube solver).

Given a cube — a conjunction of linear-arithmetic literals — this module
decides whether it has an integer solution and, if so, produces one.  The
procedure is:

1. translate literals into linear constraints over
   :class:`~repro.solver.linear.LinearTerm`: inequalities ``t <= 0``,
   equalities ``t == 0``, disequalities ``t != 0`` and (possibly negated)
   divisibility constraints ``d | t``;
2. eliminate equalities that contain a unit-coefficient variable by
   substitution (recording the eliminations for model reconstruction),
   apply the GCD test to the rest, and substitute the eliminations into
   the cube's inequalities.  A :class:`CubeSolver` lives for one query
   and does this once per distinct equality set, keeping each literal's
   substituted row for the next cube with the same equalities;
3. split disequalities into strict inequalities (case split); each branch
   takes its own two substituted branch rows;
4. a cube with divisibility constraints instead keeps the order split →
   residue → eliminate: after the split, residue enumeration substitutes
   ``x = L*x' + r`` for the lcm ``L`` of the relevant divisors and each
   residue ``r``, which makes the constraints ground one variable at a
   time, and step 2 then runs in every residue branch;
5. tighten each inequality by dividing through by the gcd of its
   coefficients (integer rounding), run Fourier–Motzkin elimination (with
   the same tightening applied to derived constraints) to decide
   feasibility, and extract a sample point by back-substitution;
6. if the sample point is fractional, branch and bound on a fractional
   variable up to a configurable depth.

Steps 5–6 with integer tightening constitute a sound and, up to the
configured budgets, complete decision procedure for quantifier-free linear
integer arithmetic cubes; when a budget is exhausted the result is
``UNKNOWN`` (never a wrong answer).

:class:`IntervalBox` is the cheap refutation the solver's DNF walk runs
before any of this: interval reasoning over the cube's rows, pushed one
literal at a time and undone on backtracking.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd
from typing import AbstractSet, Dict, List, Optional, Sequence, Set, Tuple

from .. import telemetry
from ..logic.formula import Atom, Divides, Formula, Not, Rel, Symbol
from .linear import ONE, LinearTerm, NonLinearError, atom_linear


class Status(enum.Enum):
    """Result status of a satisfiability or validity query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"
    VALID = "valid"
    INVALID = "invalid"


@dataclass
class CubeResult:
    """Result of deciding a single cube."""

    status: Status
    model: Optional[Dict[Symbol, int]] = None


def tighten(row: LinearTerm) -> LinearTerm:
    """The row ``row <= 0`` divided by the gcd of its coefficients, the
    constant rounded soundly: the same integer solutions, a smaller
    rational hull."""
    content = row.content()
    if content <= 1:
        return row
    # Dividing every (nonzero) coefficient by their positive gcd keeps
    # the tuple sorted and zero-free.
    coeffs = tuple([(s, c // content) for s, c in row.coeffs])
    # sum(c_i x_i) + k <= 0  <=>  sum(c_i/g x_i) <= -k/g
    # integer left side  =>  sum <= floor(-k/g)  <=>  sum + ceil(k/g) <= 0
    return LinearTerm(coeffs, -(-row.constant // content))


@dataclass(frozen=True)
class Divisibility:
    """The constraint ``divisor | term`` (or its negation when not positive)."""

    divisor: int
    term: LinearTerm
    positive: bool = True

    def holds_for_constant(self) -> bool:
        assert self.term.is_constant()
        divides = self.term.constant % self.divisor == 0
        return divides if self.positive else not divides


_MAX_DISEQUALITY_SPLITS = 10
_MAX_DIV_LCM = 64
_MAX_DIV_BRANCHES = 4096
_BRANCH_DEPTH = 40


def _lcm(a: int, b: int) -> int:
    return abs(a * b) // gcd(a, b) if a and b else max(abs(a), abs(b), 1)


def _eliminate(
    term: LinearTerm,
    eliminations: Sequence[Tuple[Symbol, LinearTerm]],
    eliminated: AbstractSet[Symbol],
) -> LinearTerm:
    """``term`` with each ``(symbol, replacement)`` of ``eliminations``
    substituted in order, canonicalised once at the end; ``term`` itself
    when it mentions none of the ``eliminated`` symbols."""
    for symbol, _ in term.coeffs:
        if symbol in eliminated:
            break
    else:
        return term
    coeffs = term.as_dict()
    constant = term.constant
    for symbol, replacement in eliminations:
        coeff = coeffs.pop(symbol, 0)
        if coeff:
            for other, other_coeff in replacement.coeffs:
                coeffs[other] = coeffs.get(other, 0) + coeff * other_coeff
            constant += coeff * replacement.constant
    return LinearTerm.of(coeffs, constant)


class _Elimination:
    """The elimination of one set of equalities, and the rows substituted
    through it.

    ``eliminations`` are the ``(symbol, replacement)`` substitutions in
    order and ``eliminated`` their symbols; ``pairs`` are the tightened
    ``term <= 0`` rows standing for equalities without a unit coefficient.
    :meth:`row` and :meth:`sides` substitute and tighten a literal's rows
    once and keep them, so the cubes of one query that share the equality
    set share them too.
    """

    __slots__ = ("eliminations", "eliminated", "pairs", "_rows", "_sides")

    def __init__(
        self,
        eliminations: List[Tuple[Symbol, LinearTerm]],
        eliminated: Set[Symbol],
        pairs: List[LinearTerm],
    ) -> None:
        self.eliminations = eliminations
        self.eliminated = eliminated
        self.pairs = [self.substitute(term) for term in pairs]
        self._rows: Dict[Formula, LinearTerm] = {}
        self._sides: Dict[Formula, Tuple[LinearTerm, LinearTerm]] = {}

    def substitute(self, row: LinearTerm) -> LinearTerm:
        """``row <= 0`` after the eliminations, tightened."""
        return tighten(_eliminate(row, self.eliminations, self.eliminated))

    def row(self, literal: Formula) -> LinearTerm:
        """The substituted row of an inequality literal."""
        row = self._rows.get(literal)
        if row is None:
            row = self._rows[literal] = self.substitute(atom_linear(literal).rows[0])
        return row

    def sides(self, literal: Formula) -> Tuple[LinearTerm, LinearTerm]:
        """The substituted branch rows of a disequality ``term != 0``:
        ``term <= -1`` and ``-term <= -1``."""
        sides = self._sides.get(literal)
        if sides is None:
            term = atom_linear(literal).term
            sides = self._sides[literal] = (
                self.substitute(term.add(ONE)),
                self.substitute(term.negate().add(ONE)),
            )
        return sides

    def model(self, model: Dict[Symbol, int]) -> Dict[Symbol, int]:
        """A model of the substituted rows extended to the eliminated symbols."""
        model = dict(model)
        for symbol, replacement in reversed(self.eliminations):
            for s in replacement.symbols():
                model.setdefault(s, 0)
            model[symbol] = replacement.evaluate(model)
        return model


def _eliminate_equalities(equalities: Sequence[LinearTerm]) -> Optional[_Elimination]:
    """Eliminate the equalities ``term == 0`` by unit-coefficient substitution.

    ``None`` when an equality is refuted outright (a nonzero constant, or
    the GCD test).  Eliminations are substituted lazily: into an equality
    when it is popped, and by :meth:`_Elimination.substitute` into the
    rows afterwards.  Applying them in order gives the terms an eager
    substitution after each elimination would, but leaves every
    constraint that mentions no eliminated symbol untouched.
    """
    eliminations: List[Tuple[Symbol, LinearTerm]] = []
    eliminated: Set[Symbol] = set()
    pairs: List[LinearTerm] = []
    pending = list(equalities)
    while pending:
        term = _eliminate(pending.pop(), eliminations, eliminated)
        if term.is_constant():
            if term.constant != 0:
                return None
            continue
        unit_symbol = None
        unit_coeff = 0
        for symbol, coeff in term.coeffs:
            if abs(coeff) == 1:
                unit_symbol, unit_coeff = symbol, coeff
                break
        if unit_symbol is None:
            content = term.content()
            if term.constant % content != 0:
                return None
            pairs.append(term)
            pairs.append(term.negate())
            continue
        # unit_coeff * x + rest = 0  =>  x = -rest / unit_coeff
        rest = term.drop(unit_symbol)
        replacement = rest.negate() if unit_coeff == 1 else rest
        eliminations.append((unit_symbol, replacement))
        eliminated.add(unit_symbol)
    return _Elimination(eliminations, eliminated, pairs)


def _literal_rows(literal: Formula) -> Tuple[LinearTerm, ...]:
    """The shared ``term <= 0`` rows of one literal (see
    :func:`cube_inequality_rows`); none for a literal without such content."""
    if isinstance(literal, Atom):
        try:
            return atom_linear(literal).rows
        except NonLinearError:
            pass
    return ()


def cube_inequality_rows(literals: Sequence[Formula]) -> List[LinearTerm]:
    """The *hard* linear content of a cube, as ``term <= 0`` rows.

    Each row is a :class:`LinearTerm` ``sum(c*x) + k`` that every integer
    model of the cube keeps at or below zero: the cached
    :attr:`LinearAtom.rows <repro.solver.linear.LinearAtom.rows>` of its
    atoms, which are exactly the inequality rows :class:`CubeSolver` builds
    plus both sides of its equalities.  The rows are shared with
    every other cube mentioning the same atom, so they are immutable.
    Literals that carry no such content (disequalities, divisibility
    constraints, non-linear atoms) are *skipped*, which is conservative for
    :class:`IntervalBox`: proving the rows infeasible proves the cube UNSAT
    regardless of what was dropped, and nothing here is ever used to
    conclude SAT.
    """
    rows: List[LinearTerm] = []
    for literal in literals:
        rows.extend(_literal_rows(literal))
    return rows


#: Minimum DNF wave size worth running the box prefilter on.
PREFILTER_MIN_CUBES = 8


class IntervalBox:
    """Interval reasoning over a growing set of ``term <= 0`` rows.

    :meth:`push` adds a literal's :func:`cube_inequality_rows` and reports
    whether the rows pushed so far are provably infeasible over the
    integers: a constant row is positive, a symbol's integer bounds (from
    its unit rows ``c*x + k <= 0``) cross, or a multi-symbol row's minimum
    over the box is still positive.  All three are proofs, so a refuted
    set of rows refutes every cube that contains it; "not refuted" means
    "no proof", never "SAT".  Arithmetic is exact (Python integers).

    The check is incremental: a new unit row tightens one bound and
    rechecks only the wide rows whose minimum reads that bound, and a new
    wide row is checked once.  Pushing rows only ever tightens the box, so
    the answer for a row set does not depend on the order the rows
    arrived in, and a refuted prefix stays refuted whatever follows it.
    Every change goes on an undo trail: :meth:`undo` returns to an earlier
    :meth:`mark`, which is how the DNF walk backtracks.  A refuted box
    must be undone (or dropped) before its next push.
    """

    __slots__ = ("_lower", "_upper", "_reads_lower", "_reads_upper", "_trail")

    def __init__(self) -> None:
        self._lower: Dict[Symbol, int] = {}
        self._upper: Dict[Symbol, int] = {}
        #: Wide rows by a symbol whose lower (positive coefficient) or
        #: upper (negative coefficient) bound their minimum reads.
        self._reads_lower: Dict[Symbol, List[LinearTerm]] = {}
        self._reads_upper: Dict[Symbol, List[LinearTerm]] = {}
        #: ``(bounds, symbol, previous bound)`` per tightened bound, and the
        #: reader list itself per appended wide row.
        self._trail: List[object] = []

    def mark(self) -> int:
        return len(self._trail)

    def undo(self, mark: int) -> None:
        trail = self._trail
        while len(trail) > mark:
            entry = trail.pop()
            if type(entry) is list:
                entry.pop()
                continue
            bounds, symbol, previous = entry
            if previous is None:
                del bounds[symbol]
            else:
                bounds[symbol] = previous

    def push(self, literal: Formula) -> bool:
        """Add ``literal``'s rows; True when the box is now refuted."""
        for row in _literal_rows(literal):
            if self._add_row(row):
                return True
        return False

    def _add_row(self, row: LinearTerm) -> bool:
        coeffs = row.coeffs
        if not coeffs:
            return row.constant > 0
        if len(coeffs) >= 2:
            for symbol, coeff in coeffs:
                readers = (self._reads_lower if coeff > 0 else self._reads_upper).setdefault(
                    symbol, []
                )
                readers.append(row)
                self._trail.append(readers)
            return self._minimum_positive(row)
        ((symbol, coeff),) = coeffs
        if coeff > 0:  # x <= floor(-k / c)
            bound = -row.constant // coeff
            previous = self._upper.get(symbol)
            if previous is not None and previous <= bound:
                return False
            self._upper[symbol] = bound
            self._trail.append((self._upper, symbol, previous))
            low = self._lower.get(symbol)
            if low is not None and low > bound:
                return True
            readers = self._reads_upper.get(symbol, ())
        else:  # x >= ceil(-k / c)
            bound = -(-row.constant // -coeff)
            previous = self._lower.get(symbol)
            if previous is not None and previous >= bound:
                return False
            self._lower[symbol] = bound
            self._trail.append((self._lower, symbol, previous))
            high = self._upper.get(symbol)
            if high is not None and bound > high:
                return True
            readers = self._reads_lower.get(symbol, ())
        for wide in readers:
            if self._minimum_positive(wide):
                return True
        return False

    def _minimum_positive(self, row: LinearTerm) -> bool:
        minimum = row.constant
        for symbol, coeff in row.coeffs:
            bound = (self._lower if coeff > 0 else self._upper).get(symbol)
            if bound is None:
                return False  # unbounded in the minimising direction: no proof
            minimum += coeff * bound
        return minimum > 0


def prefilter_unsat_cubes(cubes: Sequence[Sequence[Formula]]) -> List[bool]:
    """Which cubes of a DNF wave are provably UNSAT by interval reasoning:
    each cube's literals pushed into a fresh :class:`IntervalBox`.

    The solver does not call this: its DNF walk
    (:class:`~repro.solver.normalize.DnfWalk`) pushes the literals of a
    shared prefix once and drops every cube below a refuted one, which
    refutes exactly the cubes this marks ``True``.
    """
    infeasible: List[bool] = []
    for cube in cubes:
        box = IntervalBox()
        infeasible.append(any(box.push(literal) for literal in cube))
    return infeasible


class CubeSolver:
    """Decides integer feasibility of cubes of linear literals.

    The solver builds one per query and feeds it the query's cubes, which
    share most of their equalities.  It keeps the elimination of each
    distinct equality set, keyed by the cube's equality literals in cube
    order, with the rows substituted through it (:class:`_Elimination`),
    for as long as it lives.  Each answer is the one a fresh solver gives.
    """

    def __init__(self) -> None:
        self._aux_counter = 0
        self._eliminations: Dict[Tuple[Formula, ...], Optional[_Elimination]] = {}

    # -- public API -----------------------------------------------------------

    def solve(self, literals: Sequence[Formula]) -> CubeResult:
        """Decide a cube given as a sequence of literal formulas.

        Raises :class:`NonLinearError` for the first literal, in cube
        order, that is not linear.
        """
        telemetry.count("lia.cube_solves")
        inequalities: List[Formula] = []
        equalities: List[Formula] = []
        disequalities: List[Formula] = []
        divisibilities: List[Divisibility] = []
        for literal in literals:
            if isinstance(literal, Atom):
                atom_linear(literal)  # raises here for a non-linear atom
                rel = literal.rel
                if rel is Rel.EQ:
                    equalities.append(literal)
                elif rel is Rel.NE:
                    disequalities.append(literal)
                else:  # <, <=, >, >=: the atom's single one-sided row
                    inequalities.append(literal)
            elif isinstance(literal, Divides):
                divisor = abs(literal.divisor)
                if divisor == 0:
                    raise NonLinearError("divisibility by zero")
                divisibilities.append(Divisibility(divisor, atom_linear(literal).term, True))
            elif isinstance(literal, Not) and isinstance(literal.operand, Divides):
                divides = literal.operand
                divisor = abs(divides.divisor)
                if divisor == 0:
                    raise NonLinearError("negated divisibility by zero")
                divisibilities.append(Divisibility(divisor, atom_linear(divides).term, False))
            else:
                raise NonLinearError(f"unsupported literal {literal}")
        if len(disequalities) > _MAX_DISEQUALITY_SPLITS:
            return CubeResult(Status.UNKNOWN)
        if divisibilities:
            return self._solve_split(
                [atom_linear(literal).rows[0] for literal in inequalities],
                [atom_linear(literal).term for literal in equalities],
                [atom_linear(literal).term for literal in disequalities],
                divisibilities,
            )
        key = tuple(equalities)
        if key in self._eliminations:
            elimination = self._eliminations[key]
        else:
            elimination = self._eliminations[key] = _eliminate_equalities(
                [atom_linear(literal).term for literal in equalities]
            )
        if elimination is None:
            return CubeResult(Status.UNSAT)
        return self._solve_eliminated(
            elimination,
            [elimination.row(literal) for literal in inequalities],
            [elimination.sides(literal) for literal in disequalities],
        )

    def _fresh_aux(self, base: str) -> Symbol:
        self._aux_counter += 1
        return Symbol(f"{base}_aux{self._aux_counter}")

    # -- disequality splitting ----------------------------------------------------

    def _solve_split(
        self,
        inequalities: List[LinearTerm],
        equalities: List[LinearTerm],
        disequalities: List[LinearTerm],
        divisibilities: List[Divisibility],
    ) -> CubeResult:
        if not disequalities:
            return self._solve_divisibility(inequalities, equalities, divisibilities, _MAX_DIV_BRANCHES)
        first, rest = disequalities[0], disequalities[1:]
        saw_unknown = False
        # term != 0  <=>  term <= -1  or  -term <= -1
        for branch_term in (first.add(ONE), first.negate().add(ONE)):
            result = self._solve_split(
                inequalities + [branch_term], equalities, rest, divisibilities
            )
            if result.status is Status.SAT:
                return result
            if result.status is Status.UNKNOWN:
                saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    # -- divisibility elimination by residue enumeration ---------------------------

    def _solve_divisibility(
        self,
        inequalities: List[LinearTerm],
        equalities: List[LinearTerm],
        divisibilities: List[Divisibility],
        branch_budget: int,
    ) -> CubeResult:
        # Evaluate constant divisibility constraints outright.
        pending: List[Divisibility] = []
        for constraint in divisibilities:
            if constraint.term.is_constant():
                if not constraint.holds_for_constant():
                    return CubeResult(Status.UNSAT)
            else:
                pending.append(constraint)
        if not pending:
            elimination = _eliminate_equalities(equalities)
            if elimination is None:
                return CubeResult(Status.UNSAT)
            rows = [elimination.substitute(term) for term in inequalities]
            return self._solve_eliminated(elimination, rows, [])

        # Pick a variable occurring in a divisibility constraint and enumerate
        # its residues modulo the lcm of the divisors that mention it.
        symbol = sorted(pending[0].term.symbols())[0]
        modulus = 1
        for constraint in pending:
            if constraint.term.coefficient(symbol) != 0:
                modulus = _lcm(modulus, constraint.divisor)
        if modulus > _MAX_DIV_LCM or branch_budget <= 0:
            return CubeResult(Status.UNKNOWN)

        replacement_symbol = self._fresh_aux(symbol.name)
        saw_unknown = False
        for residue in range(modulus):
            replacement = LinearTerm.of({replacement_symbol: modulus}, residue)
            new_inequalities = [term.substitute(symbol, replacement) for term in inequalities]
            new_equalities = [term.substitute(symbol, replacement) for term in equalities]
            new_divisibilities: List[Divisibility] = []
            infeasible = False
            for constraint in pending:
                term = constraint.term.substitute(symbol, replacement)
                coefficient = term.coefficient(replacement_symbol)
                if coefficient % constraint.divisor == 0:
                    # The substituted variable contributes a multiple of the
                    # divisor; drop it from the divisibility constraint.
                    term = term.drop(replacement_symbol)
                if term.is_constant():
                    check = Divisibility(constraint.divisor, term, constraint.positive)
                    if not check.holds_for_constant():
                        infeasible = True
                        break
                else:
                    new_divisibilities.append(
                        Divisibility(constraint.divisor, term, constraint.positive)
                    )
            if infeasible:
                continue
            result = self._solve_divisibility(
                new_inequalities,
                new_equalities,
                new_divisibilities,
                branch_budget // modulus,
            )
            if result.status is Status.SAT:
                model = dict(result.model or {})
                base = model.get(replacement_symbol, 0)
                model[symbol] = modulus * base + residue
                return CubeResult(Status.SAT, model)
            if result.status is Status.UNKNOWN:
                saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    # -- after equality elimination -------------------------------------------------

    def _solve_eliminated(
        self,
        elimination: _Elimination,
        rows: List[LinearTerm],
        sides: List[Tuple[LinearTerm, LinearTerm]],
    ) -> CubeResult:
        """A cube, or a residue branch of one, without divisibility
        constraints, once its equalities are eliminated: ``rows`` are its
        substituted inequalities and ``sides`` the substituted branch rows
        of each disequality.

        The branches come in the order :meth:`_solve_split` splits them
        (the ``term <= -1`` side first), so the first SAT branch and its
        model are those a split before the elimination would find.
        """
        saw_unknown = False
        for branch in product(*sides):
            result = self._solve_inequalities(rows + list(branch) + elimination.pairs, 0)
            if result.status is Status.SAT:
                return CubeResult(Status.SAT, elimination.model(result.model or {}))
            if result.status is Status.UNKNOWN:
                saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    # -- inequalities: Fourier-Motzkin + branch and bound -----------------------------

    def _solve_inequalities(self, inequalities: List[LinearTerm], depth: int) -> CubeResult:
        """Integer feasibility of the rows ``term <= 0``."""
        point = self._rational_sample(inequalities)
        if point is None:
            return CubeResult(Status.UNSAT)
        fractional = [(s, v) for s, v in point.items() if v.denominator != 1]
        if not fractional:
            model = {s: int(v) for s, v in point.items()}
            return CubeResult(Status.SAT, model)
        if depth >= _BRANCH_DEPTH:
            return CubeResult(Status.UNKNOWN)
        symbol, value = fractional[0]
        lower = int(floor(value))
        upper = int(ceil(value))
        saw_unknown = False
        # Branch x <= floor(v)
        left = inequalities + [LinearTerm.of({symbol: 1}, -lower)]
        result = self._solve_inequalities(left, depth + 1)
        if result.status is Status.SAT:
            return result
        if result.status is Status.UNKNOWN:
            saw_unknown = True
        # Branch x >= ceil(v)
        right = inequalities + [LinearTerm.of({symbol: -1}, upper)]
        result = self._solve_inequalities(right, depth + 1)
        if result.status is Status.SAT:
            return result
        if result.status is Status.UNKNOWN:
            saw_unknown = True
        return CubeResult(Status.UNKNOWN if saw_unknown else Status.UNSAT)

    def _rational_sample(
        self, inequalities: List[LinearTerm]
    ) -> Optional[Dict[Symbol, Fraction]]:
        """Rational feasibility via Fourier-Motzkin; returns a sample point.

        Derived constraints are tightened (integer rounding), so the sample
        point search space preserves integer solutions exactly while pruning
        rationally-feasible but integer-infeasible slabs.
        """
        constraints = inequalities
        for term in constraints:
            if term.is_constant() and term.constant > 0:
                return None

        order: List[Symbol] = sorted(
            {s for term in constraints for s in term.symbols()}
        )
        levels: List[Tuple[Symbol, List[LinearTerm]]] = []
        current = constraints
        for symbol in order:
            levels.append((symbol, current))
            lowers: List[Tuple[LinearTerm, int]] = []
            uppers: List[Tuple[LinearTerm, int]] = []
            others: List[LinearTerm] = []
            for term in current:
                coeff = term.coefficient(symbol)
                if coeff == 0:
                    others.append(term)
                elif coeff > 0:
                    uppers.append((term, coeff))
                else:
                    lowers.append((term, coeff))
            new_constraints = list(others)
            for upper_term, upper_coeff in uppers:
                for lower_term, lower_coeff in lowers:
                    # upper: a*x + t1 <= 0 (a > 0), lower: b*x + t2 <= 0 (b < 0)
                    # imply a*t2 + (-b)*t1 <= 0.
                    combined = lower_term.drop(symbol).scale(upper_coeff).add(
                        upper_term.drop(symbol).scale(-lower_coeff)
                    )
                    # Integer tightening preserves all integer solutions and lets
                    # the elimination detect "thin" rationally-feasible but
                    # integer-infeasible systems such as 2a <= 2b - 1 <= 2a.
                    combined = tighten(combined)
                    if combined.is_constant():
                        if combined.constant > 0:
                            return None
                    else:
                        new_constraints.append(combined)
            current = new_constraints
        for term in current:
            if term.is_constant() and term.constant > 0:
                return None
        # Back-substitute to build a sample point (prefer integral values).
        assignment: Dict[Symbol, Fraction] = {}
        for symbol, constraints_at_level in reversed(levels):
            lower_bound: Optional[Fraction] = None
            upper_bound: Optional[Fraction] = None
            for term in constraints_at_level:
                coeff = term.coefficient(symbol)
                if coeff == 0:
                    continue
                rest_value = Fraction(term.constant)
                for other_symbol, other_coeff in term.coeffs:
                    if other_symbol == symbol:
                        continue
                    rest_value += other_coeff * assignment.get(other_symbol, Fraction(0))
                bound = Fraction(-rest_value, coeff)
                if coeff > 0:
                    if upper_bound is None or bound < upper_bound:
                        upper_bound = bound
                else:
                    if lower_bound is None or bound > lower_bound:
                        lower_bound = bound
            assignment[symbol] = self._pick_value(lower_bound, upper_bound)
        return assignment

    @staticmethod
    def _pick_value(lower: Optional[Fraction], upper: Optional[Fraction]) -> Fraction:
        """Pick a value in [lower, upper], preferring small integers."""
        if lower is None and upper is None:
            return Fraction(0)
        if lower is None:
            assert upper is not None
            if upper >= 0:
                return Fraction(0)
            candidate = Fraction(floor(upper))
            return candidate if candidate <= upper else upper
        if upper is None:
            if lower <= 0:
                return Fraction(0)
            candidate = Fraction(ceil(lower))
            return candidate if candidate >= lower else lower
        if lower > upper:
            # Should not happen for feasible systems; return midpoint defensively.
            return (lower + upper) / 2
        if lower <= 0 <= upper:
            return Fraction(0)
        integer_candidate = Fraction(ceil(lower))
        if lower <= integer_candidate <= upper:
            return integer_candidate
        return lower
