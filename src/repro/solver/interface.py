"""The solver facade: satisfiability and validity of assertion-logic formulas.

:class:`Solver` is the single entry point the proof rules use to discharge
side conditions.  It combines the passes of this package:

* compound-term elimination and Ackermann reduction of array reads,
* NNF conversion and skolemisation of positive existentials,
* DNF expansion, the interval-box prefilter and the Fourier–Motzkin /
  branch-and-bound cube solver,
* Cooper's quantifier elimination for formulas that retain universal
  quantifiers after skolemisation,
* a bounded model search fallback for non-linear obligations.

Answers are conservative: ``VALID`` / ``UNSAT`` are only reported when the
complete procedures establish them; budget exhaustion reports ``UNKNOWN``,
which the verification layer treats as "obligation not discharged".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..logic.formula import (
    FALSE,
    FalseF,
    Formula,
    FreshSymbols,
    Symbol,
    TRUE,
    TrueF,
    conj,
    free_symbols,
    neg,
)
from .cooper import QuantifierEliminationError, eliminate_quantifiers
from .lia import PREFILTER_MIN_CUBES, CubeSolver, Status, prefilter_unsat_cubes
from .linear import NonLinearError
from .models import bounded_model_search
from .normalize import (
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


#: Key prefix under which per-strategy wall-clock rides in the flat
#: ``as_dict`` counter format (kept flat so wave-delta subtraction and
#: worker round-trips stay purely numeric).
STRATEGY_SECONDS_PREFIX = "strategy_seconds."


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
    #: Wall-clock seconds attributed to each portfolio strategy.
    #: ``total_seconds`` stays the whole-solver total; this is its
    #: per-strategy breakdown, so the portfolio win table has matching
    #: timing columns.
    strategy_seconds: Dict[str, float] = field(default_factory=dict)

    def add_strategy_seconds(self, name: str, seconds: float) -> None:
        self.strategy_seconds[name] = self.strategy_seconds.get(name, 0.0) + seconds

    def as_dict(self) -> Dict[str, float]:
        counters = {
            "sat_queries": self.sat_queries,
            "validity_queries": self.validity_queries,
            "cube_count": self.cube_count,
            "cooper_eliminations": self.cooper_eliminations,
            "bounded_fallbacks": self.bounded_fallbacks,
            "unknown_results": self.unknown_results,
            "total_seconds": self.total_seconds,
            "prefiltered_cubes": self.prefiltered_cubes,
        }
        for name, seconds in self.strategy_seconds.items():
            counters[STRATEGY_SECONDS_PREFIX + name] = seconds
        return counters

    def merge(self, counters: Dict[str, float]) -> None:
        """Add another statistics dict (e.g. from a worker's solver) into this one.

        Unknown keys are ignored, so the format can grow without breaking
        older counters shipped back from worker processes.  Per-strategy
        seconds travel as flat ``strategy_seconds.<name>`` keys.
        """
        self.sat_queries += int(counters.get("sat_queries", 0))
        self.validity_queries += int(counters.get("validity_queries", 0))
        self.cube_count += int(counters.get("cube_count", 0))
        self.cooper_eliminations += int(counters.get("cooper_eliminations", 0))
        self.bounded_fallbacks += int(counters.get("bounded_fallbacks", 0))
        self.unknown_results += int(counters.get("unknown_results", 0))
        self.total_seconds += float(counters.get("total_seconds", 0.0))
        self.prefiltered_cubes += int(counters.get("prefiltered_cubes", 0))
        for key, value in counters.items():
            if key.startswith(STRATEGY_SECONDS_PREFIX):
                self.add_strategy_seconds(
                    key[len(STRATEGY_SECONDS_PREFIX):], float(value)
                )


#: The version of what :class:`Solver` decides: which verdict and which
#: counterexample model each query gets.  Bump it with any change that can
#: alter either; persistent verdict stores written under another value are
#: discarded rather than replayed (see repro.engine.cache).
SOLVER_SEMANTICS = 1


class Solver:
    """Decision procedures for the assertion logic (the z3py substitute)."""

    def __init__(
        self,
        max_cubes: int = 4096,
        branch_depth: int = 40,
        bounded_radius: int = 4,
        enable_cooper: bool = True,
        enable_bounded_fallback: bool = True,
        fallback_seconds: Optional[float] = 2.0,
    ) -> None:
        self._max_cubes = max_cubes
        self._branch_depth = branch_depth
        self._bounded_radius = bounded_radius
        self._enable_cooper = enable_cooper
        self._enable_bounded_fallback = enable_bounded_fallback
        self._fallback_seconds = fallback_seconds
        self.statistics = SolverStatistics()

    # -- public API -------------------------------------------------------------

    def check_sat(self, formula: Formula) -> SolverResult:
        """Decide satisfiability of ``formula`` over the integers."""
        start = time.perf_counter()
        self.statistics.sat_queries += 1
        result = self._check_sat_inner(formula)
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

    def _check_sat_inner(self, formula: Formula) -> SolverResult:
        if isinstance(formula, TrueF):
            return SolverResult(Status.SAT, model={})
        if isinstance(formula, FalseF):
            return SolverResult(Status.UNSAT)
        try:
            prepared = eliminate_compound_terms(formula)
        except UnsupportedFormulaError as error:
            return self._fallback(formula, f"unsupported construct: {error}")

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
            return self._fallback(formula, f"unsupported construct: {error}")

        if has_universal(stripped):
            if not self._enable_cooper:
                return self._fallback(formula, "universal quantifier (Cooper disabled)")
            try:
                self.statistics.cooper_eliminations += 1
                telemetry.count("solver.cooper_eliminations")
                stripped = to_nnf(eliminate_quantifiers(stripped))
                stripped = strip_positive_existentials(stripped)
            except (QuantifierEliminationError, NonLinearError) as error:
                return self._fallback(formula, f"quantifier elimination failed: {error}")

        try:
            cubes = to_dnf(stripped, max_cubes=self._max_cubes)
        except FormulaTooLargeError as error:
            return self._fallback(formula, str(error))

        # Box prefilter: refute cubes by interval reasoning over their own
        # unit bounds first.  Prefiltered entries are *proofs* of integer
        # infeasibility, so skipping their cube-solver runs can never change
        # a SAT answer (the first SAT cube and its model are untouched) — it
        # can only turn a budget-exhausted UNKNOWN on an infeasible cube into
        # the UNSAT it really is.
        prefiltered = None
        if len(cubes) >= PREFILTER_MIN_CUBES:
            with telemetry.span("solver.prefilter", cubes=len(cubes)):
                prefiltered = prefilter_unsat_cubes(cubes)
            self.statistics.prefiltered_cubes += sum(prefiltered)

        cube_solver = CubeSolver(branch_depth=self._branch_depth)
        saw_unknown = False
        unknown_reason = ""
        cubes_solved = 0
        try:
            for cube_index, cube in enumerate(cubes):
                self.statistics.cube_count += 1
                cubes_solved += 1
                if prefiltered is not None and prefiltered[cube_index]:
                    continue  # provably UNSAT, settled by the box prefilter
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
                return self._fallback(formula, unknown_reason)
            return SolverResult(Status.UNSAT)
        finally:
            telemetry.observe("solver.cubes_per_query", cubes_solved)

    def _fallback(self, formula: Formula, reason: str) -> SolverResult:
        if not self._enable_bounded_fallback:
            return SolverResult(Status.UNKNOWN, reason=reason)
        self.statistics.bounded_fallbacks += 1
        telemetry.count("solver.bounded_fallbacks")
        model = bounded_model_search(
            formula, radius=self._bounded_radius, max_seconds=self._fallback_seconds
        )
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
