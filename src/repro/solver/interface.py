"""The solver facade: satisfiability and validity of assertion-logic formulas.

:class:`Solver` is the single entry point the proof rules use to discharge
side conditions.  It combines the passes of this package:

* compound-term elimination and Ackermann reduction of array reads,
* NNF conversion and skolemisation of positive existentials,
* a depth-first walk of the DNF, pruned by an interval box, whose
  surviving cubes go to the Fourier–Motzkin / branch-and-bound cube
  solver,
* Cooper's quantifier elimination for formulas that retain universal
  quantifiers after skolemisation,
* a bounded model search fallback for non-linear obligations.

Answers are conservative: ``VALID`` / ``UNSAT`` are only reported when the
complete procedures establish them; budget exhaustion reports ``UNKNOWN``,
which the verification layer treats as "obligation not discharged".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from typing import Dict, Optional

from .. import telemetry
from ..logic.formula import (
    FalseF,
    Formula,
    Symbol,
    TrueF,
    free_symbols,
    neg,
)
from .cooper import QuantifierEliminationError, eliminate_quantifiers
from .lia import (  # noqa: F401 - prefilter_unsat_cubes: perfbench wraps it by name
    PREFILTER_MIN_CUBES,
    CubeSolver,
    IntervalBox,
    Status,
    prefilter_unsat_cubes,
)
from .linear import NonLinearError
from .models import bounded_model_search
from .normalize import (  # noqa: F401 - to_dnf: perfbench wraps it by name
    DnfWalk,
    FormulaTooLargeError,
    UnsupportedFormulaError,
    ackermannize,
    eliminate_compound_terms,
    has_universal,
    strip_positive_existentials,
    to_dnf,
    to_nnf,
)


@dataclass
class SolverResult:
    """The outcome of a satisfiability or validity query."""

    status: Status
    model: Optional[Dict[Symbol, int]] = None
    reason: str = ""
    elapsed_seconds: float = 0.0

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT

    @property
    def is_valid(self) -> bool:
        return self.status is Status.VALID

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN


@dataclass
class SolverStatistics:
    """Aggregate statistics over the lifetime of a solver instance."""

    sat_queries: int = 0
    validity_queries: int = 0
    cube_count: int = 0
    cooper_eliminations: int = 0
    bounded_fallbacks: int = 0
    unknown_results: int = 0
    total_seconds: float = 0.0
    #: DNF cubes the box prefilter discharged as UNSAT without entering
    #: the cube solver.
    prefiltered_cubes: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {item.name: getattr(self, item.name) for item in fields(self)}

    def merge(self, counters: Dict[str, float]) -> None:
        """Add another statistics dict (e.g. from a worker's solver) into this one.

        Unknown keys are ignored, so the format can grow without breaking
        older counters shipped back from worker processes.
        """
        for item in fields(self):
            value = getattr(self, item.name)
            setattr(self, item.name, value + type(value)(counters.get(item.name, 0)))


#: The version of what :class:`Solver` decides: which verdict and which
#: counterexample model each query gets.  Bump it with any change that can
#: alter either; persistent verdict stores written under another value are
#: discarded rather than replayed (see repro.engine.cache).
#: Version 2: one configuration answers every query, so a version-1 store
#: may hold models that another configuration chose.
#: Version 3: existentials below a universal are left to Cooper; earlier
#: versions skolemised them as constants, which could answer VALID or
#: UNSAT wrongly.
SOLVER_SEMANTICS = 3

#: DNF expansion aborts (and the query falls back) beyond this many cubes.
MAX_CUBES = 4096
#: The bounded fallback searches every symbol in ``[-radius, radius]``.
BOUNDED_RADIUS = 4
#: Wall-clock cap on one bounded fallback search.
FALLBACK_SECONDS = 2.0


class Solver:
    """Decision procedures for the assertion logic (the z3py substitute).

    A query is normalised (compound terms, Ackermann reduction, NNF,
    skolemisation, Cooper for residual universals) and its DNF is walked
    depth-first (:class:`~repro.solver.normalize.DnfWalk`): waves of at
    least ``PREFILTER_MIN_CUBES`` cubes are pruned by an
    :class:`~repro.solver.lia.IntervalBox`, and every surviving cube goes
    to :meth:`CubeSolver.solve <repro.solver.lia.CubeSolver.solve>` until
    one is SAT.  A DNF over ``MAX_CUBES`` cubes, a non-linear cube or an
    UNKNOWN cube sends the query to the bounded model search.

    ``budget_seconds`` bounds each query's wall clock, measured from the
    call to :meth:`check_sat` / :meth:`check_valid`.  Normalisation and
    Cooper run to the end; the cube search checks the budget before each
    cube it solves, and the budget caps the bounded fallback.  A query
    whose budget is spent is ``UNKNOWN`` with the reason ``per-obligation
    budget of ...s exhausted (last: ...)``, which the engine never caches.
    Without a budget every query runs to its answer.

    :attr:`statistics` counts, per query, the cubes up to the deciding
    one: ``cube_count`` the pruned and the solved ones,
    ``prefiltered_cubes`` the pruned ones.
    """

    def __init__(self, budget_seconds: Optional[float] = None) -> None:
        self._budget_seconds = budget_seconds
        self.statistics = SolverStatistics()

    # -- public API -------------------------------------------------------------

    def check_sat(self, formula: Formula) -> SolverResult:
        """Decide satisfiability of ``formula`` over the integers."""
        start = time.perf_counter()
        self.statistics.sat_queries += 1
        result = self._check_sat_inner(formula, start)
        result.elapsed_seconds = time.perf_counter() - start
        self.statistics.total_seconds += result.elapsed_seconds
        if result.status is Status.UNKNOWN:
            self.statistics.unknown_results += 1
        return result

    def check_valid(self, formula: Formula) -> SolverResult:
        """Decide validity of ``formula`` (true for every integer valuation)."""
        start = time.perf_counter()
        self.statistics.validity_queries += 1
        negated = self.check_sat(neg(formula))
        elapsed = time.perf_counter() - start
        if negated.status is Status.UNSAT:
            result = SolverResult(Status.VALID, reason=negated.reason)
        elif negated.status is Status.SAT:
            result = SolverResult(
                Status.INVALID, model=negated.model, reason="counterexample found"
            )
        else:
            # check_sat already counted this UNKNOWN.
            result = SolverResult(Status.UNKNOWN, reason=negated.reason)
        result.elapsed_seconds = elapsed
        return result

    def is_valid(self, formula: Formula) -> bool:
        """Convenience wrapper: True only when validity is established."""
        return self.check_valid(formula).is_valid

    def is_sat(self, formula: Formula) -> bool:
        """Convenience wrapper: True only when satisfiability is established."""
        return self.check_sat(formula).is_sat

    def find_model(self, formula: Formula) -> Optional[Dict[Symbol, int]]:
        """Return a model of ``formula`` if satisfiability is established."""
        result = self.check_sat(formula)
        if result.is_sat:
            return result.model or {}
        return None

    # -- pipeline ----------------------------------------------------------------

    def _check_sat_inner(self, formula: Formula, start: float) -> SolverResult:
        if isinstance(formula, TrueF):
            return SolverResult(Status.SAT, model={})
        if isinstance(formula, FalseF):
            return SolverResult(Status.UNSAT)
        try:
            prepared = eliminate_compound_terms(formula)
        except UnsupportedFormulaError as error:
            return self._fallback(formula, start, f"unsupported construct: {error}")

        # Skolemise positive existentials *before* the Ackermann reduction so
        # that array reads indexed by (formerly) bound variables become reads
        # at free symbols, which the reduction handles.
        nnf = to_nnf(prepared)
        stripped = strip_positive_existentials(nnf)
        try:
            ackermann = ackermannize(stripped)
            stripped = to_nnf(ackermann.combined())
            stripped = strip_positive_existentials(stripped)
        except UnsupportedFormulaError as error:
            return self._fallback(formula, start, f"unsupported construct: {error}")

        if has_universal(stripped):
            try:
                self.statistics.cooper_eliminations += 1
                telemetry.count("solver.cooper_eliminations")
                stripped = to_nnf(eliminate_quantifiers(stripped))
                stripped = strip_positive_existentials(stripped)
            except (QuantifierEliminationError, NonLinearError) as error:
                return self._fallback(formula, start, f"quantifier elimination failed: {error}")

        try:
            walk = DnfWalk(stripped, max_cubes=MAX_CUBES)
        except FormulaTooLargeError as error:
            return self._fallback(formula, start, str(error))

        # The box prefilter prunes the walk: a refuted prefix is a proof of
        # integer infeasibility for every cube below it, so skipping their
        # cube-solver runs can never change a SAT answer (the first SAT cube
        # and its model are untouched) — it can only turn a budget-exhausted
        # UNKNOWN on an infeasible cube into the UNSAT it really is.
        prune = walk.size >= PREFILTER_MIN_CUBES
        cube_solver = CubeSolver()
        saw_unknown = False
        unknown_reason = ""
        solved = 0
        wave = telemetry.span("solver.dnf", cubes=walk.size)
        try:
            with wave:
                for cube in walk.cubes(IntervalBox() if prune else None):
                    if self._spent(start):
                        return self._budget_exhausted("cube search")
                    solved += 1
                    try:
                        result = cube_solver.solve(cube)
                    except NonLinearError as error:
                        saw_unknown = True
                        unknown_reason = f"non-linear cube: {error}"
                        continue
                    if result.status is Status.SAT:
                        model = self._project_model(result.model or {}, formula)
                        return SolverResult(Status.SAT, model=model)
                    if result.status is Status.UNKNOWN:
                        saw_unknown = True
                        unknown_reason = "branch-and-bound budget exhausted"
            if saw_unknown:
                return self._fallback(formula, start, unknown_reason)
            return SolverResult(Status.UNSAT)
        finally:
            # Cubes up to the deciding one, pruned or solved.
            wave.set_attribute("pruned", walk.pruned)
            wave.set_attribute("solved", solved)
            self.statistics.cube_count += walk.pruned + solved
            if prune:
                self.statistics.prefiltered_cubes += walk.pruned
                telemetry.count("solver.prefilter.calls")
                if walk.pruned:
                    telemetry.count("solver.prefilter.unsat_cubes", walk.pruned)
            telemetry.observe("solver.cubes_per_query", walk.pruned + solved)

    def _spent(self, start: float) -> bool:
        """Whether the query's budget (if any) has run out."""
        return (
            self._budget_seconds is not None
            and time.perf_counter() - start >= self._budget_seconds
        )

    def _budget_exhausted(self, last: str) -> SolverResult:
        return SolverResult(
            Status.UNKNOWN,
            reason=f"per-obligation budget of {self._budget_seconds:g}s exhausted (last: {last})",
        )

    def _fallback(self, formula: Formula, start: float, reason: str) -> SolverResult:
        max_seconds = FALLBACK_SECONDS
        if self._budget_seconds is not None:
            remaining = self._budget_seconds - (time.perf_counter() - start)
            if remaining <= 0:
                return self._budget_exhausted(reason)
            max_seconds = min(max_seconds, remaining)
        self.statistics.bounded_fallbacks += 1
        telemetry.count("solver.bounded_fallbacks")
        model = bounded_model_search(formula, radius=BOUNDED_RADIUS, max_seconds=max_seconds)
        if model is not None:
            return SolverResult(Status.SAT, model=model, reason=f"bounded search ({reason})")
        return SolverResult(Status.UNKNOWN, reason=reason)

    @staticmethod
    def _project_model(model: Dict[Symbol, int], formula: Formula) -> Dict[Symbol, int]:
        """Keep only the original free symbols of the query in the model, and
        fill in defaults for symbols the cube solver never constrained."""
        original = free_symbols(formula)
        projected = {s: v for s, v in model.items() if s in original}
        for symbol in original:
            projected.setdefault(symbol, 0)
        return projected


_DEFAULT_SOLVER: Optional[Solver] = None


def default_solver() -> Solver:
    """A process-wide shared solver instance (convenient for scripts/tests)."""
    global _DEFAULT_SOLVER
    if _DEFAULT_SOLVER is None:
        _DEFAULT_SOLVER = Solver()
    return _DEFAULT_SOLVER
