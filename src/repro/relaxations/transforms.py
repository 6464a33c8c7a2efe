"""Program transformations that produce relaxed programs.

Section 1 of the paper lists the mechanisms that generate relaxed programs:
skipping tasks, loop perforation, reduction sampling, multiple selectable
implementations / dynamic knobs, synchronization elimination, approximate
function memoization and approximate data types.  Each transformation in
this module takes an *original* program (plus a description of where to
apply the transformation) and produces a relaxed program — the original
program extended with ``relax`` statements and, where the mechanism has a
canonical acceptability property, suggested ``relate`` scaffolding.

The transformations are intentionally syntactic (they insert relaxation
nondeterminism; they do not try to prove anything) — proving the resulting
program acceptable is the job of :mod:`repro.hoare`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..lang import builder as b
from ..lang.analysis import modified_vars
from ..lang.ast import (
    Assign,
    BoolExpr,
    Program,
    Relate,
    Relax,
    RelBoolExpr,
    Seq,
    Skip,
    Stmt,
    While,
    replace_statement as _replace_statement,
    seq,
)


@dataclass(frozen=True)
class RelaxationResult:
    """The outcome of applying a relaxation transformation."""

    program: Program
    description: str
    inserted_relax: Tuple[Relax, ...] = ()
    suggested_relates: Tuple[Relate, ...] = ()
    knob_variables: Tuple[str, ...] = ()


def _with_body(
    program: Program, body: Stmt, suffix: str, added_variables: Sequence[str] = ()
) -> Program:
    """``program`` with a new body, a suffixed name and any added variables.

    The declarations and header clauses carry over unchanged.
    """
    return dataclasses.replace(
        program,
        body=body,
        name=f"{program.name}-{suffix}",
        variables=tuple(dict.fromkeys(tuple(program.variables) + tuple(added_variables))),
        source=None,
    )


# ---------------------------------------------------------------------------
# Loop perforation
# ---------------------------------------------------------------------------


def perforate_loop(
    program: Program,
    loop: While,
    counter: str,
    perforation_stride_var: str = "stride",
    max_stride: int = 4,
) -> RelaxationResult:
    """Loop perforation: skip iterations of a time-consuming loop.

    The transformation introduces a ``stride`` control variable: the original
    program always uses stride 1, the relaxed program may pick any stride in
    ``[1, max_stride]``, so the loop counter advances faster and iterations
    are skipped.  The relax statement is inserted immediately before the
    loop; the counter increment inside the loop is changed from ``+1`` to
    ``+stride``.
    """
    relax_stmt = Relax(
        (perforation_stride_var,),
        b.and_(b.ge(perforation_stride_var, 1), b.le(perforation_stride_var, max_stride)),
    )
    new_body = _replace_statement(
        loop.body,
        Assign(counter, b.add(counter, 1)),
        Assign(counter, b.add(counter, perforation_stride_var)),
    )
    new_loop = While(
        loop.condition, new_body, loop.invariant, loop.rel_invariant, loop.diverge
    )
    body = _replace_statement(program.body, loop, seq(relax_stmt, new_loop))
    # In the original semantics the stride must be 1 for identical behaviour.
    body = seq(Assign(perforation_stride_var, b.n(1)), body)
    new_program = _with_body(program, body, "perforated", (perforation_stride_var,))
    return RelaxationResult(
        program=new_program,
        description=(
            f"loop perforation of the loop over {counter!r} with stride up to {max_stride}"
        ),
        inserted_relax=(relax_stmt,),
        knob_variables=(perforation_stride_var,),
    )


# ---------------------------------------------------------------------------
# Dynamic knobs
# ---------------------------------------------------------------------------


def dynamic_knob(
    program: Program,
    knob: str,
    floor: int,
    saved_copy: Optional[str] = None,
    insert_before: Optional[Stmt] = None,
) -> RelaxationResult:
    """Dynamic knobs: let a control variable drop, but never below ``floor``.

    This is the Swish++ relaxation shape: save the original knob value, then
    allow the knob to take any value that either equals the original (when
    the original was at most ``floor``) or is at least ``floor``.
    """
    saved = saved_copy or f"original_{knob}"
    relax_stmt = Relax(
        (knob,),
        b.or_(
            b.and_(b.le(saved, floor), b.eq(knob, saved)),
            b.and_(b.gt(saved, floor), b.ge(knob, floor)),
        ),
    )
    prefix = seq(Assign(saved, b.v(knob)), relax_stmt)
    if insert_before is not None:
        body = _replace_statement(program.body, insert_before, seq(prefix, insert_before))
    else:
        body = seq(prefix, program.body)
    new_program = _with_body(program, body, "knobbed", (saved,))
    return RelaxationResult(
        program=new_program,
        description=f"dynamic knob on {knob!r} with floor {floor}",
        inserted_relax=(relax_stmt,),
        knob_variables=(knob,),
    )


# ---------------------------------------------------------------------------
# Task skipping / reduction sampling
# ---------------------------------------------------------------------------


def skip_tasks(
    program: Program,
    remaining_tasks_var: str,
    max_skipped: int,
    insert_before: Optional[Stmt] = None,
) -> RelaxationResult:
    """Task skipping: allow up to ``max_skipped`` tasks to be discarded.

    The relaxed program may reduce the task count by a bounded amount; the
    original program processes every task.  (This is the shape of the
    barrier-load-balancing and fault-tolerance relaxations cited by the
    paper.)
    """
    saved = f"original_{remaining_tasks_var}"
    relax_stmt = Relax(
        (remaining_tasks_var,),
        b.and_(
            b.le(remaining_tasks_var, saved),
            b.ge(remaining_tasks_var, b.sub(saved, max_skipped)),
            b.ge(remaining_tasks_var, 0),
        ),
    )
    prefix = seq(Assign(saved, b.v(remaining_tasks_var)), relax_stmt)
    if insert_before is not None:
        body = _replace_statement(program.body, insert_before, seq(prefix, insert_before))
    else:
        body = seq(prefix, program.body)
    new_program = _with_body(program, body, "taskskip", (saved,))
    suggested = Relate(
        "tasks",
        b.rand(
            b.rle(b.r(remaining_tasks_var), b.o(remaining_tasks_var)),
            b.rge(b.r(remaining_tasks_var), b.rsub(b.o(remaining_tasks_var), max_skipped)),
        ),
    )
    return RelaxationResult(
        program=new_program,
        description=f"skip up to {max_skipped} tasks from {remaining_tasks_var!r}",
        inserted_relax=(relax_stmt,),
        suggested_relates=(suggested,),
        knob_variables=(remaining_tasks_var,),
    )


def sample_reduction(
    program: Program,
    sample_count_var: str,
    population_var: str,
    minimum_fraction_percent: int,
    insert_before: Optional[Stmt] = None,
) -> RelaxationResult:
    """Reduction sampling: compute a reduction over a sampled subset of inputs.

    The relaxed program may reduce over any sample whose size is at least
    ``minimum_fraction_percent`` percent of the population (and no larger
    than the population).
    """
    relax_stmt = Relax(
        (sample_count_var,),
        b.and_(
            b.le(sample_count_var, population_var),
            b.ge(
                b.mul(100, sample_count_var),
                b.mul(minimum_fraction_percent, population_var),
            ),
            b.ge(sample_count_var, 0),
        ),
    )
    if insert_before is not None:
        body = _replace_statement(program.body, insert_before, seq(relax_stmt, insert_before))
    else:
        body = seq(relax_stmt, program.body)
    new_program = _with_body(program, body, "sampled")
    return RelaxationResult(
        program=new_program,
        description=(
            f"reduction sampling: use at least {minimum_fraction_percent}% of "
            f"{population_var!r}"
        ),
        inserted_relax=(relax_stmt,),
        knob_variables=(sample_count_var,),
    )


# ---------------------------------------------------------------------------
# Approximate memory / approximate data types
# ---------------------------------------------------------------------------


def approximate_reads(
    program: Program,
    value_var: str,
    error_bound_var: str,
    insert_after: Stmt,
) -> RelaxationResult:
    """Approximate memory: a read may return a value within a bounded error.

    Inserted immediately after the statement that performs the read (the
    paper's LU modelling): the original value is saved and the relaxed value
    may deviate by at most the error bound.
    """
    saved = f"original_{value_var}"
    relax_stmt = Relax(
        (value_var,),
        b.and_(
            b.le(b.sub(saved, error_bound_var), value_var),
            b.le(value_var, b.add(saved, error_bound_var)),
        ),
    )
    injected = seq(insert_after, Assign(saved, b.v(value_var)), relax_stmt)
    body = _replace_statement(program.body, insert_after, injected)
    new_program = _with_body(program, body, "approxmem", (saved,))
    suggested = Relate(
        f"approx_{value_var}",
        b.within(value_var, b.r(error_bound_var)),
    )
    return RelaxationResult(
        program=new_program,
        description=f"approximate reads of {value_var!r} within ±{error_bound_var}",
        inserted_relax=(relax_stmt,),
        suggested_relates=(suggested,),
    )


# ---------------------------------------------------------------------------
# Relaxation restriction (predicate strengthening)
# ---------------------------------------------------------------------------


def restrict_relax(
    program: Program,
    relax: Relax,
    constraint: BoolExpr,
    suffix: str = "restricted",
) -> RelaxationResult:
    """Strengthen the predicate of an existing ``relax`` statement.

    The restricted statement ``relax (X) st (P && Q)`` admits a subset of the
    executions of ``relax (X) st (P)``, so any acceptability proof of the
    wider program remains a proof of the restricted one (the relaxed-side
    obligations are universally quantified over the relax predicate, and
    strengthening a hypothesis preserves validity).  This is the transform
    the relaxation-space explorer uses to walk *inward* from an already
    verified relaxation — trading savings for accuracy without re-proving
    anything by hand.
    """
    from ..lang import ast as _ast

    new_relax = Relax(relax.targets, _ast.conj(relax.predicate, constraint))
    body = _replace_statement(program.body, relax, new_relax)
    if body is program.body or body == program.body:
        # _replace_statement found no occurrence; make the failure loud.
        if relax not in list(program.body.walk()):
            raise ValueError(f"relax statement {relax} does not occur in {program.name}")
    new_program = _with_body(program, body, suffix)
    return RelaxationResult(
        program=new_program,
        description=(
            f"restrict relax ({', '.join(relax.targets)}) with extra "
            f"constraint ({constraint})"
        ),
        inserted_relax=(new_relax,),
        knob_variables=relax.targets,
    )


# ---------------------------------------------------------------------------
# Synchronization elimination
# ---------------------------------------------------------------------------


def eliminate_synchronization(
    program: Program,
    racy_arrays: Sequence[str],
    insert_before: Optional[Stmt] = None,
) -> RelaxationResult:
    """Synchronization elimination: racy updates make the named arrays
    nondeterministic (the Water modelling: ``relax (RS) st (true)``)."""
    relax_stmt = Relax(tuple(racy_arrays), b.true)
    if insert_before is not None:
        body = _replace_statement(program.body, insert_before, seq(relax_stmt, insert_before))
    else:
        body = seq(relax_stmt, program.body)
    new_program = _with_body(program, body, "unsynchronized")
    return RelaxationResult(
        program=new_program,
        description=f"synchronization elimination over arrays {tuple(racy_arrays)!r}",
        inserted_relax=(relax_stmt,),
    )


# ---------------------------------------------------------------------------
# Approximate function memoization
# ---------------------------------------------------------------------------


def approximate_memoization(
    program: Program,
    result_var: str,
    argument_var: str,
    cached_argument_var: str,
    cached_result_var: str,
    argument_tolerance: int,
    result_tolerance: int,
    insert_after: Stmt,
) -> RelaxationResult:
    """Approximate memoization: reuse a cached result for nearby arguments.

    After the statement computing ``result_var`` the relaxed program may
    replace the result with the cached result, provided the current argument
    is within ``argument_tolerance`` of the cached argument and the cached
    result is within ``result_tolerance`` of the freshly computed result.
    """
    saved = f"computed_{result_var}"
    relax_stmt = Relax(
        (result_var,),
        b.or_(
            b.eq(result_var, saved),
            b.and_(
                # the cached call is applicable ...
                b.le(b.sub(argument_var, cached_argument_var), argument_tolerance),
                b.le(b.sub(cached_argument_var, argument_var), argument_tolerance),
                # ... and returning it stays within the result tolerance
                b.eq(result_var, cached_result_var),
                b.le(b.sub(saved, result_var), result_tolerance),
                b.le(b.sub(result_var, saved), result_tolerance),
            ),
        ),
    )
    injected = seq(insert_after, Assign(saved, b.v(result_var)), relax_stmt)
    body = _replace_statement(program.body, insert_after, injected)
    new_program = _with_body(program, body, "memoized", (saved,))
    suggested = Relate(
        f"memo_{result_var}",
        b.within(result_var, result_tolerance),
    )
    return RelaxationResult(
        program=new_program,
        description=(
            f"approximate memoization of {result_var!r} "
            f"(argument tolerance {argument_tolerance}, result tolerance {result_tolerance})"
        ),
        inserted_relax=(relax_stmt,),
        suggested_relates=(suggested,),
    )
