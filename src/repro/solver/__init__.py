"""Decision procedures for linear integer arithmetic (the z3py substitute).

The original paper discharges proof obligations interactively in Coq (with
an automated theorem prover assisting for arithmetic entailments).  This
reproduction replaces that with an automated solver for the fragment the
obligations live in — quantified linear integer arithmetic with array reads:

* :class:`~repro.solver.interface.Solver` — the facade (``check_sat`` /
  ``check_valid`` / ``find_model``),
* :mod:`~repro.solver.normalize` — term elimination, Ackermann reduction,
  NNF/DNF, skolemisation,
* :mod:`~repro.solver.lia` — the interval-box cube prefilter and the
  Fourier–Motzkin + branch-and-bound cube solver,
* :mod:`~repro.solver.cooper` — Cooper's quantifier elimination (complete
  backend and testing oracle),
* :mod:`~repro.solver.models` — bounded model search fallback.
"""

from . import cooper, interface, lia, linear, models, normalize
from .cooper import QuantifierEliminationError, decide_closed, eliminate_quantifiers
from .interface import Solver, SolverResult, SolverStatistics, default_solver
from .lia import CubeSolver, CubeResult, Status
from .linear import LinearTerm, NonLinearError, is_linear, linearize
from .models import bounded_model_search, enumerate_models
from .normalize import (
    FormulaTooLargeError,
    UnsupportedFormulaError,
    ackermannize,
    eliminate_compound_terms,
    strip_positive_existentials,
    to_dnf,
    to_nnf,
)

__all__ = [
    "cooper",
    "interface",
    "lia",
    "linear",
    "models",
    "normalize",
    "QuantifierEliminationError",
    "decide_closed",
    "eliminate_quantifiers",
    "Solver",
    "SolverResult",
    "SolverStatistics",
    "default_solver",
    "CubeSolver",
    "CubeResult",
    "Status",
    "LinearTerm",
    "NonLinearError",
    "is_linear",
    "linearize",
    "bounded_model_search",
    "enumerate_models",
    "FormulaTooLargeError",
    "UnsupportedFormulaError",
    "ackermannize",
    "eliminate_compound_terms",
    "strip_positive_existentials",
    "to_dnf",
    "to_nnf",
]
