"""A reference tree-walking evaluator for the dynamic semantics (tests only).

This is the ``isinstance`` ladder :class:`repro.semantics.interpreter.Interpreter`
used before statements were compiled to closures, kept verbatim as the
oracle of the differential tests.  Expressions go through the same
:func:`eval_expr`/:func:`eval_bool` as the compiled interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.lang.ast import (
    ArrayAssign,
    Assert,
    Assign,
    Assume,
    Havoc,
    If,
    Program,
    Relate,
    Relax,
    Seq,
    Skip,
    Stmt,
    While,
)
from repro.semantics.choosers import (
    Chooser,
    ChooserError,
    MinimalChangeChooser,
    SolverChooser,
)
from repro.semantics.interpreter import (
    DEFAULT_FUEL,
    ExpressionError,
    NonTerminationError,
    eval_bool,
    eval_expr,
)
from repro.semantics.state import (
    Observation,
    Outcome,
    State,
    Terminated,
    bad_assume,
    is_error,
    wrong,
)


@dataclass
class ReferenceInterpreter:
    """The tree walker: same fields and meaning as ``Interpreter``."""

    relaxed: bool = False
    chooser: Optional[Chooser] = None
    fuel: int = DEFAULT_FUEL
    steps_executed: int = 0
    relax_deviation: int = 0

    def __post_init__(self) -> None:
        if self.chooser is None:
            self.chooser = MinimalChangeChooser() if not self.relaxed else SolverChooser()

    def run(self, program_or_stmt: Union[Program, Stmt], state: State) -> Outcome:
        stmt = (
            program_or_stmt.body
            if isinstance(program_or_stmt, Program)
            else program_or_stmt
        )
        self._remaining_fuel = self.fuel
        self.steps_executed = 0
        self.relax_deviation = 0
        return self._eval(stmt, state)

    def _eval(self, stmt: Stmt, state: State) -> Outcome:
        self.steps_executed += 1
        if isinstance(stmt, Skip):
            return Terminated(state, ())
        if isinstance(stmt, Assign):
            try:
                value = eval_expr(stmt.value, state)
            except ExpressionError as error:
                return wrong(str(error))
            return Terminated(state.set_scalar(stmt.target, value), ())
        if isinstance(stmt, ArrayAssign):
            try:
                index = eval_expr(stmt.index, state)
                value = eval_expr(stmt.value, state)
            except ExpressionError as error:
                return wrong(str(error))
            return Terminated(state.set_array_element(stmt.array, index, value), ())
        if isinstance(stmt, Havoc):
            return self._eval_havoc(stmt, state)
        if isinstance(stmt, Relax):
            if self.relaxed:
                # Figure 4: relax executes as havoc in the relaxed semantics.
                outcome = self._eval_havoc(stmt, state)
                if isinstance(outcome, Terminated):
                    for name in stmt.targets:
                        if state.has_scalar(name) and outcome.state.has_scalar(name):
                            self.relax_deviation += abs(
                                outcome.state.scalar(name) - state.scalar(name)
                            )
                return outcome
            # Figure 3: in the original semantics relax behaves like assert e.
            return self._eval_assert(Assert(stmt.predicate), state)
        if isinstance(stmt, Assert):
            return self._eval_assert(stmt, state)
        if isinstance(stmt, Assume):
            try:
                holds = eval_bool(stmt.condition, state)
            except ExpressionError as error:
                return wrong(str(error))
            if holds:
                return Terminated(state, ())
            return bad_assume(f"assumption failed: {stmt.condition}")
        if isinstance(stmt, Relate):
            return Terminated(state, (Observation(stmt.label, state),))
        if isinstance(stmt, If):
            try:
                branch_taken = eval_bool(stmt.condition, state)
            except ExpressionError as error:
                return wrong(str(error))
            branch = stmt.then_branch if branch_taken else stmt.else_branch
            return self._eval(branch, state)
        if isinstance(stmt, While):
            return self._eval_while(stmt, state)
        if isinstance(stmt, Seq):
            first = self._eval(stmt.first, state)
            if is_error(first):
                return first
            assert isinstance(first, Terminated)
            second = self._eval(stmt.second, first.state)
            if is_error(second):
                return second
            assert isinstance(second, Terminated)
            return Terminated(second.state, first.observations + second.observations)
        raise TypeError(f"unknown statement node {stmt!r}")

    def _eval_assert(self, stmt: Assert, state: State) -> Outcome:
        try:
            holds = eval_bool(stmt.condition, state)
        except ExpressionError as error:
            return wrong(str(error))
        if holds:
            return Terminated(state, ())
        return wrong(f"assertion failed: {stmt.condition}")

    def _eval_havoc(self, stmt, state: State) -> Outcome:
        assert self.chooser is not None
        try:
            new_state = self.chooser.choose(stmt, state)
        except ChooserError as error:
            return wrong(str(error))
        if new_state is None:
            return wrong(f"no assignment satisfies the predicate of {stmt}")
        try:
            if not eval_bool(stmt.predicate, new_state):
                return wrong(
                    f"chooser produced a state violating the predicate of {stmt}"
                )
        except ExpressionError:
            # Predicates over array contents cannot always be re-checked here;
            # the chooser is trusted for those.
            pass
        return Terminated(new_state, ())

    def _eval_while(self, stmt: While, state: State) -> Outcome:
        observations: Tuple[Observation, ...] = ()
        current = state
        while True:
            if self._remaining_fuel <= 0:
                raise NonTerminationError(
                    f"loop exceeded the fuel bound of {self.fuel} iterations"
                )
            self._remaining_fuel -= 1
            try:
                continue_loop = eval_bool(stmt.condition, current)
            except ExpressionError as error:
                return wrong(str(error))
            if not continue_loop:
                return Terminated(current, observations)
            body_outcome = self._eval(stmt.body, current)
            if is_error(body_outcome):
                return body_outcome
            assert isinstance(body_outcome, Terminated)
            observations = observations + body_outcome.observations
            current = body_outcome.state
