"""Bounded exhaustive enumeration of all nondeterministic executions.

The dynamic relaxed semantics is nondeterministic: every ``havoc`` and (in
the relaxed semantics) every ``relax`` may pick any satisfying assignment.
For the metatheory harness we need the *set* of reachable outcomes — e.g.
Theorem 7 quantifies over all relaxed executions.  This module explores the
choice tree exhaustively, restricting each nondeterministic choice to the
satisfying assignments found inside a bounded box of integers.

The enumeration is sound for refutation (every enumerated execution is a
real execution) and complete relative to the box: executions whose
nondeterministic choices fall outside the box are not enumerated, which is
the usual bounded-model-checking compromise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..lang.analysis import bool_vars
from ..lang.ast import (
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
from ..logic.traverse import TypeDispatcher
from .choosers import relax_witnesses
from .interpreter import ExpressionError, eval_bool, eval_expr
from .state import (
    Observation,
    Outcome,
    State,
    Terminated,
    bad_assume,
    is_error,
    wrong,
)


class EnumerationBudgetError(Exception):
    """Raised when the execution tree exceeds the configured budget."""


@dataclass
class EnumerationConfig:
    """Budgets for exhaustive execution enumeration."""

    value_radius: int = 4
    max_choices_per_statement: int = 16
    max_executions: int = 4096
    max_loop_iterations: int = 256
    array_choice_values: Tuple[int, ...] = (-1, 0, 1)
    max_array_cells_for_choice: int = 3


@dataclass
class _Execution:
    state: State
    observations: Tuple[Observation, ...] = ()


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
    stmt = program_or_stmt.body if isinstance(program_or_stmt, Program) else program_or_stmt
    outcomes: List[Outcome] = []
    for outcome in _run(stmt, _Execution(initial_state), relaxed, config, [0]):
        outcomes.append(outcome)
        if len(outcomes) > config.max_executions:
            raise EnumerationBudgetError(
                f"more than {config.max_executions} executions enumerated"
            )
    return outcomes


def _run(
    stmt: Stmt,
    execution: _Execution,
    relaxed: bool,
    config: EnumerationConfig,
    fuel_cell: List[int],
) -> Iterator[Outcome]:
    """Yield the outcome of every execution of ``stmt`` from ``execution``.

    Statement dispatch goes through the shared
    :class:`~repro.logic.traverse.TypeDispatcher`; each handler is a
    generator over outcomes.
    """
    return _ENUM(stmt, execution, relaxed, config, fuel_cell)


_ENUM = TypeDispatcher("statement")


@_ENUM.register(Skip)
def _enum_skip(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    yield Terminated(execution.state, execution.observations)


@_ENUM.register(Assign)
def _enum_assign(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    try:
        value = eval_expr(stmt.value, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    yield Terminated(
        execution.state.set_scalar(stmt.target, value), execution.observations
    )


@_ENUM.register(ArrayAssign)
def _enum_array_assign(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    try:
        index = eval_expr(stmt.index, execution.state)
        value = eval_expr(stmt.value, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    yield Terminated(
        execution.state.set_array_element(stmt.array, index, value),
        execution.observations,
    )


@_ENUM.register(Assert)
def _enum_assert(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    try:
        holds = eval_bool(stmt.condition, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    if holds:
        yield Terminated(execution.state, execution.observations)
    else:
        yield wrong(f"assertion failed: {stmt.condition}")


@_ENUM.register(Assume)
def _enum_assume(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    try:
        holds = eval_bool(stmt.condition, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    if holds:
        yield Terminated(execution.state, execution.observations)
    else:
        yield bad_assume(f"assumption failed: {stmt.condition}")


@_ENUM.register(Relate)
def _enum_relate(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    yield Terminated(
        execution.state,
        execution.observations + (Observation(stmt.label, execution.state),),
    )


@_ENUM.register(Relax)
def _enum_relax(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    if not relaxed:
        # Original semantics: relax behaves as assert of its predicate.
        yield from _run(Assert(stmt.predicate), execution, relaxed, config, fuel_cell)
        return
    yield from _run_havoc(stmt, execution, config)


@_ENUM.register(Havoc)
def _enum_havoc(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    yield from _run_havoc(stmt, execution, config)


@_ENUM.register(If)
def _enum_if(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    try:
        branch_taken = eval_bool(stmt.condition, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    branch = stmt.then_branch if branch_taken else stmt.else_branch
    yield from _run(branch, execution, relaxed, config, fuel_cell)


@_ENUM.register(While)
def _enum_while(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    yield from _run_while(stmt, execution, relaxed, config, fuel_cell)


@_ENUM.register(Seq)
def _enum_seq(stmt, execution, relaxed, config, fuel_cell) -> Iterator[Outcome]:
    for first in _run(stmt.first, execution, relaxed, config, fuel_cell):
        if is_error(first):
            yield first
            continue
        assert isinstance(first, Terminated)
        yield from _run(
            stmt.second,
            _Execution(first.state, first.observations),
            relaxed,
            config,
            fuel_cell,
        )


def _run_havoc(
    stmt: Union[Havoc, Relax], execution: _Execution, config: EnumerationConfig
) -> Iterator[Outcome]:
    state = execution.state
    scalar_targets = [name for name in stmt.targets if not state.has_array(name)]
    array_targets = [name for name in stmt.targets if state.has_array(name)]
    predicate_reads = bool_vars(stmt.predicate)

    scalar_choices: List[Dict[str, int]]
    if scalar_targets:
        scalar_choices = relax_witnesses(
            stmt, state, config.value_radius, config.max_choices_per_statement
        )
        if not scalar_choices:
            yield wrong(f"no assignment satisfies the predicate of {stmt}")
            return
    else:
        try:
            if not eval_bool(stmt.predicate, state):
                yield wrong(f"no assignment satisfies the predicate of {stmt}")
                return
        except ExpressionError:
            pass
        scalar_choices = [{}]

    array_choice_sets: List[Dict[str, Dict[int, int]]] = [{}]
    for name in array_targets:
        if name in predicate_reads:
            yield wrong(
                f"array {name!r} is constrained by the predicate of {stmt}; "
                "enumeration does not support this fragment"
            )
            return
        cells = sorted(state.array(name).keys())[: config.max_array_cells_for_choice]
        new_sets: List[Dict[str, Dict[int, int]]] = []
        for existing in array_choice_sets:
            new_sets.extend(
                {**existing, name: dict(zip(cells, values))}
                for values in _cartesian(config.array_choice_values, len(cells))
            )
        array_choice_sets = new_sets

    for scalars in scalar_choices:
        for arrays in array_choice_sets:
            new_state = state.set_scalars(scalars)
            for name, values in arrays.items():
                # state.array() returns a fresh copy (State never hands out
                # its internal storage), so updating it here cannot leak one
                # sibling choice's writes into another — pinned by
                # test_sibling_array_choices_do_not_alias.
                contents = state.array(name)
                contents.update(values)
                new_state = new_state.set_array(name, contents)
            yield Terminated(new_state, execution.observations)


def _cartesian(values: Sequence[int], length: int) -> Iterator[Tuple[int, ...]]:
    """All value tuples of the given length, first position varying fastest.

    ``itertools.product`` builds the tuples (no per-level tuple rebuilding
    or per-cell recursion) but varies the *last* position fastest; reversing
    each tuple restores the historical first-fastest order the enumeration
    tests pin.
    """
    return (combo[::-1] for combo in itertools.product(values, repeat=length))


def _run_while(
    stmt: While,
    execution: _Execution,
    relaxed: bool,
    config: EnumerationConfig,
    fuel_cell: List[int],
) -> Iterator[Outcome]:
    fuel_cell[0] += 1
    if fuel_cell[0] > config.max_loop_iterations * max(1, config.max_executions):
        raise EnumerationBudgetError("loop exploration budget exceeded")
    try:
        continue_loop = eval_bool(stmt.condition, execution.state)
    except ExpressionError as error:
        yield wrong(str(error))
        return
    if not continue_loop:
        yield Terminated(execution.state, execution.observations)
        return
    iterations = 0
    pending = [execution]
    # Unroll the loop breadth-first over the nondeterministic choice tree.
    while pending:
        iterations += 1
        if iterations > config.max_loop_iterations:
            raise EnumerationBudgetError(
                f"loop exceeded {config.max_loop_iterations} unrollings during enumeration"
            )
        next_pending: List[_Execution] = []
        for current in pending:
            for body_outcome in _run(stmt.body, current, relaxed, config, fuel_cell):
                if is_error(body_outcome):
                    yield body_outcome
                    continue
                assert isinstance(body_outcome, Terminated)
                continuation = _Execution(body_outcome.state, body_outcome.observations)
                try:
                    still_looping = eval_bool(stmt.condition, continuation.state)
                except ExpressionError as error:
                    yield wrong(str(error))
                    continue
                if still_looping:
                    next_pending.append(continuation)
                else:
                    yield Terminated(continuation.state, continuation.observations)
        pending = next_pending
