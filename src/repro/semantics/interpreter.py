"""Big-step dynamic semantics: the original (⇓o) and relaxed (⇓r) evaluators.

The two semantics (Figures 3 and 4 of the paper) differ in exactly one rule:

* in the **original** semantics, ``relax (X) st (e)`` behaves like
  ``assert e`` — it does not modify the state, but the relaxation predicate
  must hold for the current values (the original execution is required to be
  one of the relaxed executions);
* in the **relaxed** semantics, ``relax (X) st (e)`` behaves like
  ``havoc (X) st (e)`` — it nondeterministically assigns the targets any
  values satisfying ``e``.

Nondeterminism (``havoc`` and, in the relaxed semantics, ``relax``) is
resolved by a :class:`~repro.semantics.choosers.Chooser`.  Failed assertions
and unsatisfiable havocs produce the ``wr`` outcome; failed assumptions
produce ``ba``; both propagate through compound statements.

The interpreter enforces a *fuel* bound on loop iterations so that
executions of non-terminating programs raise :class:`NonTerminationError`
(the paper's metatheory is stated for terminating executions only).

Every statement is compiled once, per semantics, into a closure
``run(interp, state) -> State | ErrorOutcome``; executing a program calls
its root closure (see :func:`precompile_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..lang.ast import (
    ArrayAssign,
    ArrayRead,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolBin,
    BoolExpr,
    BoolLit,
    Compare,
    Expr,
    Havoc,
    If,
    IntLit,
    Not,
    Program,
    Relate,
    Relax,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
)
from .choosers import Chooser, ChooserError, MinimalChangeChooser, SolverChooser
from .state import (
    ErrorOutcome,
    Observation,
    Outcome,
    State,
    Terminated,
    bad_assume,
    wrong,
)


class NonTerminationError(Exception):
    """Raised when an execution exceeds its loop-iteration fuel."""


class ExpressionError(Exception):
    """Raised internally when expression evaluation fails (undefined variable,
    division by zero, missing array element); converted to ``wr``."""


DEFAULT_FUEL = 100_000


# ---------------------------------------------------------------------------
# Compiled expressions
#
# ``eval_expr``/``eval_bool`` are the innermost operations of every dynamic
# hot path — the interpreter (which the execution enumerator drives) and
# the Monte Carlo scoring loops evaluate the *same* expression nodes under
# thousands of different states.  Each distinct node is therefore compiled
# once into a closure ``state -> value`` and reused.  Program AST nodes are
# plain frozen dataclasses (not hash-consed like the logic IR), so the cache
# is keyed by object identity; the cached entry keeps a strong reference to
# the node, which both pins the id (no reuse while cached) and matches the
# lifetime of programs under test/exploration.
# ---------------------------------------------------------------------------

_EXPR_CACHE: Dict[int, Tuple[Expr, Callable[[State], int]]] = {}
_BOOL_CACHE: Dict[int, Tuple[BoolExpr, Callable[[State], bool]]] = {}
#: Statement closures, keyed by node identity *and* semantics: ``relax`` is
#: an assert under ⇓o and a havoc under ⇓r.
_STMT_CACHE: Dict[Tuple[int, bool], Tuple[Stmt, "StmtFn"]] = {}

#: Flush threshold: the strong references would otherwise pin every AST node
#: ever evaluated (a long explorer run scores thousands of candidate
#: programs).  Recompilation is cheap, so overflowing simply clears the
#: cache — a crude but safe bound; the common working set (one candidate's
#: expressions across all its samples/policies) is far below it.
_CACHE_LIMIT = 65_536


def expr_cache_stats() -> Dict[str, int]:
    """Sizes of the compiled-closure caches (tests/benchmarks)."""
    return {
        "exprs": len(_EXPR_CACHE),
        "bools": len(_BOOL_CACHE),
        "stmts": len(_STMT_CACHE),
    }


def clear_expr_cache() -> None:
    """Drop every compiled closure (releases the cached AST references)."""
    _EXPR_CACHE.clear()
    _BOOL_CACHE.clear()
    _STMT_CACHE.clear()


def _build_expr(expr: Expr) -> Callable[[State], int]:
    if isinstance(expr, IntLit):
        value = expr.value
        return lambda state: value
    if isinstance(expr, Var):
        name = expr.name

        def run_var(state: State) -> int:
            try:
                return state.scalar(name)
            except KeyError as error:
                raise ExpressionError(str(error)) from error

        return run_var
    if isinstance(expr, BinOp):
        left = _compiled_expr(expr.left)
        right = _compiled_expr(expr.right)
        apply = expr.op.function

        def run_binop(state: State) -> int:
            try:
                return apply(left(state), right(state))
            except ZeroDivisionError as error:
                raise ExpressionError("division by zero") from error

        return run_binop
    if isinstance(expr, ArrayRead):
        array = expr.array
        index_fn = _compiled_expr(expr.index)

        def run_read(state: State) -> int:
            index = index_fn(state)
            try:
                return state.array_element(array, index)
            except KeyError as error:
                raise ExpressionError(str(error)) from error

        return run_read
    raise TypeError(f"unknown expression node {expr!r}")


def _build_bool(expr: BoolExpr) -> Callable[[State], bool]:
    if isinstance(expr, BoolLit):
        value = expr.value
        return lambda state: value
    if isinstance(expr, Compare):
        left = _compiled_expr(expr.left)
        right = _compiled_expr(expr.right)
        apply = expr.op.function
        return lambda state: apply(left(state), right(state))
    if isinstance(expr, BoolBin):
        # Both operands are evaluated (no short-circuit), matching the
        # paper's total ⇓B relation: an error in the right operand surfaces
        # even when the left already decides the connective.
        left = _compiled_bool(expr.left)
        right = _compiled_bool(expr.right)
        apply = expr.op.apply
        return lambda state: apply(left(state), right(state))
    if isinstance(expr, Not):
        operand = _compiled_bool(expr.operand)
        return lambda state: not operand(state)
    raise TypeError(f"unknown boolean expression node {expr!r}")


def _compiled(cache: Dict, key, node, build: Callable, *args) -> Callable:
    """``build(node, *args)``, memoised in ``cache`` under ``key``."""
    entry = cache.get(key)
    if entry is None:
        fn = build(node, *args)
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()
        entry = cache[key] = (node, fn)
    return entry[1]


def _compiled_expr(expr: Expr) -> Callable[[State], int]:
    return _compiled(_EXPR_CACHE, id(expr), expr, _build_expr)


def _compiled_bool(expr: BoolExpr) -> Callable[[State], bool]:
    return _compiled(_BOOL_CACHE, id(expr), expr, _build_bool)


def eval_expr(expr: Expr, state: State) -> int:
    """Evaluate an integer expression in a state (the ⇓E relation)."""
    return _compiled_expr(expr)(state)


def eval_bool(expr: BoolExpr, state: State) -> bool:
    """Evaluate a boolean expression in a state (the ⇓B relation)."""
    return _compiled_bool(expr)(state)


def precompile_program(program_or_stmt: Union[Program, Stmt]) -> int:
    """Compile a program's statement closures for both semantics.

    Compiling a statement compiles every expression it evaluates, so all
    later executions (every sample and policy of a scoring run) pay no
    compilation cost.  Returns the number of cached statement closures.
    Idempotent and cheap when already compiled.
    """
    stmt = _body(program_or_stmt)
    _compiled_stmt(stmt, False)
    _compiled_stmt(stmt, True)
    return len(_STMT_CACHE)


# ---------------------------------------------------------------------------
# Compiled statements
#
# A statement closure returns the final state, or the ``ErrorOutcome`` that
# stopped the run.  It keeps the accounting of a recursive tree walk, so
# every score built on it is unchanged: ``steps_executed`` gains 1 per
# statement node entered (each ``Seq`` and ``If``, a ``While`` once); fuel
# drops by 1 per loop test; errors carry the same kind and message; the
# chooser sees the same calls in the same order; ``relate`` appends to the
# run's observation list in execution order.
# ---------------------------------------------------------------------------

StmtFn = Callable[["Interpreter", State], Union[State, ErrorOutcome]]


def _body(program_or_stmt: Union[Program, Stmt]) -> Stmt:
    if isinstance(program_or_stmt, Program):
        return program_or_stmt.body
    return program_or_stmt


def _compiled_stmt(stmt: Stmt, relaxed: bool) -> StmtFn:
    return _compiled(_STMT_CACHE, (id(stmt), relaxed), stmt, _build_stmt, relaxed)


def _check(condition: BoolExpr, fail: Callable[[str], ErrorOutcome], what: str) -> StmtFn:
    """``assert``/``assume``: ``fail(f"{what} failed: {condition}")`` when false."""
    holds_fn = _compiled_bool(condition)

    def run_check(interp: "Interpreter", state: State):
        interp.steps_executed += 1
        try:
            holds = holds_fn(state)
        except ExpressionError as error:
            return wrong(str(error))
        return state if holds else fail(f"{what} failed: {condition}")

    return run_check


def _build_stmt(stmt: Stmt, relaxed: bool) -> StmtFn:
    kind = type(stmt)
    if kind is Seq:
        return _build_block(stmt, relaxed)
    if kind is Assert:
        return _check(stmt.condition, wrong, "assertion")
    if kind is Assume:
        return _check(stmt.condition, bad_assume, "assumption")
    if kind is Relax and not relaxed:
        # Figure 3: in the original semantics relax behaves like assert e.
        return _check(stmt.predicate, wrong, "assertion")
    if kind is Skip:

        def run_skip(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            return state

        return run_skip
    if kind is Assign:
        target, value_fn = stmt.target, _compiled_expr(stmt.value)

        def run_assign(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            try:
                return state.set_scalar(target, value_fn(state))
            except ExpressionError as error:
                return wrong(str(error))

        return run_assign
    if kind is ArrayAssign:
        array, index_fn = stmt.array, _compiled_expr(stmt.index)
        value_fn = _compiled_expr(stmt.value)

        def run_array_assign(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            try:
                index = index_fn(state)
                return state.set_array_element(array, index, value_fn(state))
            except ExpressionError as error:
                return wrong(str(error))

        return run_array_assign
    if kind is Havoc or kind is Relax:
        # Figure 4: relax executes as havoc in the relaxed semantics, and
        # how far it moves its scalar targets counts as relax_deviation.
        predicate = _compiled_bool(stmt.predicate)
        deviating = stmt.targets if kind is Relax else ()

        def run_choose(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            try:
                new_state = interp.chooser.choose(stmt, state)
            except ChooserError as error:
                return wrong(str(error))
            if new_state is None:
                return wrong(f"no assignment satisfies the predicate of {stmt}")
            try:
                if not predicate(new_state):
                    return wrong(f"chooser produced a state violating the predicate of {stmt}")
            except ExpressionError:
                # Predicates over array contents cannot always be re-checked
                # here; the chooser is trusted for those.
                pass
            for name in deviating:
                if state.has_scalar(name) and new_state.has_scalar(name):
                    interp.relax_deviation += abs(new_state.scalar(name) - state.scalar(name))
            return new_state

        return run_choose
    if kind is Relate:
        label = stmt.label

        def run_relate(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            interp._observations.append(Observation(label, state))
            return state

        return run_relate
    if kind is If:
        condition = _compiled_bool(stmt.condition)
        then_fn = _compiled_stmt(stmt.then_branch, relaxed)
        else_fn = _compiled_stmt(stmt.else_branch, relaxed)

        def run_if(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            try:
                taken = condition(state)
            except ExpressionError as error:
                return wrong(str(error))
            return (then_fn if taken else else_fn)(interp, state)

        return run_if
    if kind is While:
        condition = _compiled_bool(stmt.condition)
        body_fn = _compiled_stmt(stmt.body, relaxed)

        def run_while(interp: "Interpreter", state: State):
            interp.steps_executed += 1
            while True:
                if interp._remaining_fuel <= 0:
                    raise NonTerminationError(
                        f"loop exceeded the fuel bound of {interp.fuel} iterations"
                    )
                interp._remaining_fuel -= 1
                try:
                    if not condition(state):
                        return state
                except ExpressionError as error:
                    return wrong(str(error))
                state = body_fn(interp, state)
                if state.__class__ is ErrorOutcome:
                    return state

        return run_while
    raise TypeError(f"unknown statement node {stmt!r}")


def _build_block(stmt: Seq, relaxed: bool) -> StmtFn:
    # A Seq tree runs as a flat block of its leaves in execution order, each
    # paired with the Seq nodes entered just before it (those whose leftmost
    # leaf it is), so the step count matches a recursive walk.
    block: List[Tuple[int, StmtFn]] = []
    entered, worklist = 0, [stmt]
    while worklist:
        node = worklist.pop()
        if type(node) is Seq:
            entered += 1
            worklist += (node.second, node.first)
        else:
            block.append((entered, _compiled_stmt(node, relaxed)))
            entered = 0
    steps = tuple(block)

    def run_block(interp: "Interpreter", state: State):
        for entered, run in steps:
            interp.steps_executed += entered
            state = run(interp, state)
            if state.__class__ is ErrorOutcome:
                return state
        return state

    return run_block


@dataclass
class Interpreter:
    """A big-step evaluator for one of the two dynamic semantics.

    ``relaxed=False`` gives the original semantics ⇓o; ``relaxed=True``
    gives the relaxed semantics ⇓r.
    """

    relaxed: bool = False
    chooser: Optional[Chooser] = None
    fuel: int = DEFAULT_FUEL
    #: Statements evaluated by the most recent :meth:`run` — a portable cost
    #: proxy used by the relaxation-space explorer to estimate the work a
    #: relaxed execution saves (e.g. perforated loop iterations).
    steps_executed: int = 0
    #: Total absolute deviation the relaxed semantics introduced at ``relax``
    #: statements (scalar targets only) during the most recent :meth:`run` —
    #: how much nondeterministic freedom the execution exercised, the
    #: explorer's proxy for how aggressive a substrate the candidate admits.
    relax_deviation: int = 0

    def __post_init__(self) -> None:
        if self.chooser is None:
            self.chooser = MinimalChangeChooser() if not self.relaxed else SolverChooser()

    def run(self, program_or_stmt: Union[Program, Stmt], state: State) -> Outcome:
        """Evaluate a program or statement from ``state`` to an outcome."""
        run = _compiled_stmt(_body(program_or_stmt), bool(self.relaxed))
        self._remaining_fuel = self.fuel
        self.steps_executed = 0
        self.relax_deviation = 0
        self._observations: List[Observation] = []
        result = run(self, state)
        if result.__class__ is ErrorOutcome:
            return result
        return Terminated(result, tuple(self._observations))


def run_original(
    program_or_stmt: Union[Program, Stmt],
    state: State,
    chooser: Optional[Chooser] = None,
    fuel: int = DEFAULT_FUEL,
) -> Outcome:
    """Evaluate under the dynamic original semantics ⇓o."""
    return Interpreter(relaxed=False, chooser=chooser, fuel=fuel).run(program_or_stmt, state)


def run_relaxed(
    program_or_stmt: Union[Program, Stmt],
    state: State,
    chooser: Optional[Chooser] = None,
    fuel: int = DEFAULT_FUEL,
) -> Outcome:
    """Evaluate under the dynamic relaxed semantics ⇓r."""
    return Interpreter(relaxed=True, chooser=chooser, fuel=fuel).run(program_or_stmt, state)
