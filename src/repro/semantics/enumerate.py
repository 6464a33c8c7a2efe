"""Bounded exhaustive enumeration of all nondeterministic executions.

The dynamic relaxed semantics is nondeterministic: every ``havoc`` and (in
the relaxed semantics) every ``relax`` may pick any satisfying assignment.
For the metatheory harness we need the *set* of reachable outcomes — e.g.
Theorem 7 quantifies over all relaxed executions.  This module explores the
choice tree depth first on the compiled
:class:`~repro.semantics.interpreter.Interpreter`, so the oracle checks the
same statement closures that every other dynamic check runs, not a second
copy of Figures 3-4.  A branching chooser restricts each choice point to the
satisfying assignments found inside a bounded box of integers; the driver
re-runs the interpreter once per path of the tree, replaying the choices
the path names and taking the first alternative at every later point.

The enumeration is sound for refutation (every enumerated execution is a
real execution) and complete relative to the box: executions whose
nondeterministic choices fall outside the box are not enumerated, which is
the usual bounded-model-checking compromise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..lang.analysis import bool_vars
from ..lang.ast import Program, Stmt
from .choosers import Chooser, ChooserError, relax_witnesses
from .interpreter import ExpressionError, Interpreter, NonTerminationError, eval_bool
from .state import Outcome, State


class EnumerationBudgetError(Exception):
    """Raised when the execution tree exceeds the configured budget."""


@dataclass
class EnumerationConfig:
    """Budgets for exhaustive execution enumeration.

    ``max_loop_iterations`` is the interpreter's fuel: the loop tests one
    execution may make, summed over all of its loops.
    """

    value_radius: int = 4
    max_choices_per_statement: int = 16
    max_executions: int = 4096
    max_loop_iterations: int = 256
    array_choice_values: Tuple[int, ...] = (-1, 0, 1)
    max_array_cells_for_choice: int = 3


def enumerate_executions(
    program_or_stmt: Union[Program, Stmt],
    initial_state: State,
    relaxed: bool,
    config: Optional[EnumerationConfig] = None,
) -> List[Outcome]:
    """Enumerate the outcomes of all (box-bounded) executions.

    ``relaxed`` selects the dynamic relaxed semantics (``relax`` statements
    havoc their targets) or the original semantics (``relax`` behaves like
    ``assert``).
    """
    config = config or EnumerationConfig()
    chooser = _BranchingChooser(config)
    interpreter = Interpreter(relaxed=relaxed, chooser=chooser, fuel=config.max_loop_iterations)
    outcomes: List[Outcome] = []
    path: List[int] = []
    while True:
        chooser.path, chooser.taken = path, []
        try:
            outcomes.append(interpreter.run(program_or_stmt, initial_state))
        except NonTerminationError as error:
            raise EnumerationBudgetError(str(error)) from error
        except _Unsupported as escape:
            raise escape.error from None
        if len(outcomes) > config.max_executions:
            raise EnumerationBudgetError(
                f"more than {config.max_executions} executions enumerated"
            )
        # The next path in depth-first order: move the deepest choice point
        # that has an untried alternative on to it.
        taken = chooser.taken
        while taken and taken[-1][0] + 1 == taken[-1][1]:
            taken.pop()
        if not taken:
            return outcomes
        path = [index for index, _ in taken]
        path[-1] += 1


class _Unsupported(Exception):
    """Carries a witness search's :class:`ChooserError` past the interpreter.

    The interpreter turns a ``ChooserError`` into ``wr``, an outcome the
    semantics does not have here: the enumeration does not support the
    fragment, so it must raise instead.
    """

    def __init__(self, error: ChooserError) -> None:
        super().__init__(str(error))
        self.error = error


class _BranchingChooser(Chooser):
    """Takes the alternative that ``path`` names at each choice point.

    Past the end of ``path`` it takes the first alternative.  ``taken``
    records the ``(index, width)`` of every choice point the run passes.
    Alternatives are memoised by statement identity and state, so replaying
    a path's prefix does not search for its witnesses again.
    """

    def __init__(self, config: EnumerationConfig) -> None:
        self._config = config
        self._memo: Dict[Tuple[int, State], Union[Tuple[State, ...], str]] = {}
        self.path: List[int] = []
        self.taken: List[Tuple[int, int]] = []

    def choose(self, statement, state: State) -> Optional[State]:
        key = (id(statement), state)
        alternatives = self._memo.get(key)
        if alternatives is None:
            alternatives = self._memo[key] = _alternatives(statement, state, self._config)
        if isinstance(alternatives, str):
            raise ChooserError(alternatives)
        depth = len(self.taken)
        index = self.path[depth] if depth < len(self.path) else 0
        self.taken.append((index, len(alternatives)))
        return alternatives[index]


def _alternatives(
    statement, state: State, config: EnumerationConfig
) -> Union[Tuple[State, ...], str]:
    """The successor states of a havoc/relax point in enumeration order, or
    the ``wr`` message when the point has none."""
    array_targets = [name for name in statement.targets if state.has_array(name)]
    if len(array_targets) < len(statement.targets):
        try:
            witnesses = relax_witnesses(
                statement, state, config.value_radius, config.max_choices_per_statement
            )
        except ChooserError as error:
            raise _Unsupported(error) from error
    else:
        witnesses = [{}]
        try:
            if not eval_bool(statement.predicate, state):
                witnesses = []
        except ExpressionError:
            pass
    if not witnesses:
        return f"no assignment satisfies the predicate of {statement}"

    array_choices: List[Dict[str, Dict[int, int]]] = [{}]
    reads = bool_vars(statement.predicate)
    for name in array_targets:
        if name in reads:
            return (
                f"array {name!r} is constrained by the predicate of {statement}; "
                "enumeration does not support this fragment"
            )
        cells = sorted(state.array(name))[: config.max_array_cells_for_choice]
        # Every value tuple over the cells, the first cell varying fastest.
        combos = list(itertools.product(config.array_choice_values, repeat=len(cells)))
        array_choices = [
            {**existing, name: dict(zip(cells, combo[::-1]))}
            for existing in array_choices
            for combo in combos
        ]

    successors = []
    for scalars in witnesses:
        for arrays in array_choices:
            successor = state.set_scalars(scalars)
            for name, cells in arrays.items():
                successor = successor.set_array(name, {**state.array(name), **cells})
            successors.append(successor)
    return tuple(successors)
