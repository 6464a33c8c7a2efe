"""Dynamic semantics: original (⇓o) and relaxed (⇓r) big-step evaluation.

Implements Figures 3 and 4 of the paper: program states, the error outcomes
``ba`` / ``wr``, observation lists emitted by ``relate`` statements, the two
interpreters (differing only in the treatment of ``relax``), nondeterminism
resolution strategies, exhaustive bounded execution enumeration, and the
observational compatibility relation of Theorem 6.
"""

from . import choosers, enumerate, interpreter, observation, state
from .choosers import (
    CHOOSER_POLICIES,
    AdversarialChooser,
    Chooser,
    ChooserError,
    FixedChoiceChooser,
    MinimalChangeChooser,
    RandomChooser,
    SolverChooser,
    make_chooser,
)
from .enumerate import EnumerationBudgetError, EnumerationConfig, enumerate_executions
from .interpreter import (
    DEFAULT_FUEL,
    Interpreter,
    NonTerminationError,
    eval_bool,
    eval_expr,
    run_original,
    run_relaxed,
)
from .observation import (
    CompatibilityResult,
    check_compatibility,
    pair_valuation,
    relational_holds,
)
from .state import (
    BAD_ASSUME,
    ErrorKind,
    ErrorOutcome,
    Observation,
    ObservationList,
    Outcome,
    State,
    Terminated,
    WRONG,
    bad_assume,
    is_bad_assume,
    is_error,
    is_wrong,
    wrong,
)

__all__ = [
    "choosers",
    "enumerate",
    "interpreter",
    "observation",
    "state",
    "AdversarialChooser",
    "CHOOSER_POLICIES",
    "Chooser",
    "ChooserError",
    "FixedChoiceChooser",
    "MinimalChangeChooser",
    "RandomChooser",
    "SolverChooser",
    "make_chooser",
    "EnumerationBudgetError",
    "EnumerationConfig",
    "enumerate_executions",
    "DEFAULT_FUEL",
    "Interpreter",
    "NonTerminationError",
    "eval_bool",
    "eval_expr",
    "run_original",
    "run_relaxed",
    "CompatibilityResult",
    "check_compatibility",
    "pair_valuation",
    "relational_holds",
    "BAD_ASSUME",
    "ErrorKind",
    "ErrorOutcome",
    "Observation",
    "ObservationList",
    "Outcome",
    "State",
    "Terminated",
    "WRONG",
    "bad_assume",
    "is_bad_assume",
    "is_error",
    "is_wrong",
    "wrong",
]
