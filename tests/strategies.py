"""Shared hypothesis strategies for program- and formula-level properties.

One home for the generators that used to be duplicated (and drift) across
``test_relaxations_properties.py`` and ``test_formula_core_properties.py``,
also consumed by the fuzz synthesizer's own property suite:

* **program side** — ``base_programs`` (the summation-shaped program every
  relaxation transform applies to), ``transform_applications`` (one
  arbitrary transform with arbitrary small parameters), ``any_programs``
  (every statement and expression form, negative literals, arbitrary
  ``Seq`` association, header clauses and ``diverge`` annotations), and
  ``flatten_stmt`` (AST equality modulo ``Seq`` association);
* **formula side** — ``terms`` / ``atoms`` / ``formulas`` (with
  quantifiers) / ``array_formulas`` over a tiny name pool and finite
  evaluation ``DOMAIN``, plus the reference recursions ``ref_free`` /
  ``ref_size`` the cached structural queries are pinned against.
"""

import dataclasses

from hypothesis import strategies as st

from repro.lang import ast as A
from repro.lang import builder as b
from repro.lang.ast import Assign, If, Seq, While
from repro.logic import formula as F
from repro.logic.evaluate import Valuation
from repro.logic.formula import Const, Exists, Forall, Select, SymTerm, var, sym
from repro.logic.traverse import node_children
from repro.relaxations.transforms import (
    approximate_memoization,
    approximate_reads,
    dynamic_knob,
    eliminate_synchronization,
    perforate_loop,
    restrict_relax,
    sample_reduction,
    skip_tasks,
)

# ---------------------------------------------------------------------------
# Program side
# ---------------------------------------------------------------------------

counters = st.sampled_from(["i", "k"])
bounds = st.integers(min_value=1, max_value=9)


@st.composite
def diverges(draw, depth=1):
    """A ``diverge (original_post) (relaxed_post)`` annotation."""
    return A.Diverge(draw(bool_exprs(depth)), draw(bool_exprs(depth)))


optional_diverges = st.none() | diverges()


@st.composite
def base_programs(draw):
    """A summation-style program plus the handles transforms need.

    Returns ``(program, loop, read, compute, counter)`` — the loop, array
    read and computation statements are the anchor points the individual
    transforms attach to.
    """
    counter = draw(counters)
    extra = draw(st.integers(min_value=0, max_value=3))
    use_branch = draw(st.booleans())
    body = [b.assign("s", b.add("s", counter))]
    if use_branch:
        body.append(
            If(
                b.gt("s", extra),
                b.block(b.assign("t", "s"), b.assign("s", b.sub("s", 1))),
                b.skip,
                draw(optional_diverges),
            )
        )
    body.append(b.assign(counter, b.add(counter, 1)))
    loop = While(
        condition=b.lt(counter, "n"),
        body=b.block(*body),
        invariant=b.true,
        diverge=draw(optional_diverges),
    )
    read = Assign("v", b.aread("A", counter))
    compute = Assign("r", b.mul("arg", 2))
    program = b.program(
        f"gen-{counter}-{extra}",
        b.assign("s", 0),
        b.assign("t", 0),
        b.assign(counter, 0),
        loop,
        read,
        compute,
        variables=(
            "s", "t", counter, "n", "v", "e", "r", "arg",
            "cached_arg", "cached_r", "tasks", "samples", "population",
        ),
        arrays=("A", "RS"),
    )
    program = dataclasses.replace(
        program,
        shared=draw(st.sampled_from([(), ("A",)])),
        requires=draw(st.none() | bool_exprs(1)),
        rel_ensures=draw(st.none() | bool_exprs(1, relational=True)),
    )
    return program, loop, read, compute, counter


@st.composite
def transform_applications(draw):
    """Apply one arbitrary transform with arbitrary small parameters."""
    return _apply_transform(draw, *draw(base_programs()))


@st.composite
def transform_pairs(draw):
    """``(program, result)``: one arbitrary transform of a base program."""
    drawn = draw(base_programs())
    return drawn[0], _apply_transform(draw, *drawn)


def _apply_transform(draw, program, loop, read, compute, counter):
    choice = draw(st.integers(min_value=0, max_value=7))
    if choice == 0:
        return perforate_loop(
            program, loop, counter=counter,
            max_stride=draw(st.integers(min_value=2, max_value=6)),
        )
    if choice == 1:
        return dynamic_knob(
            program, knob="n", floor=draw(st.integers(min_value=0, max_value=5))
        )
    if choice == 2:
        return skip_tasks(
            program, remaining_tasks_var="tasks",
            max_skipped=draw(st.integers(min_value=1, max_value=5)),
        )
    if choice == 3:
        return sample_reduction(
            program,
            sample_count_var="samples",
            population_var="population",
            minimum_fraction_percent=draw(st.integers(min_value=1, max_value=100)),
        )
    if choice == 4:
        return approximate_reads(
            program, value_var="v", error_bound_var="e", insert_after=read
        )
    if choice == 5:
        return approximate_memoization(
            program,
            result_var="r",
            argument_var="arg",
            cached_argument_var="cached_arg",
            cached_result_var="cached_r",
            argument_tolerance=draw(st.integers(min_value=0, max_value=4)),
            result_tolerance=draw(st.integers(min_value=0, max_value=4)),
            insert_after=compute,
        )
    if choice == 6:
        return eliminate_synchronization(program, racy_arrays=("RS",))
    # restrict an inserted relax: first insert one, then strengthen it.
    knobbed = dynamic_knob(program, knob="n", floor=2)
    delta = draw(st.integers(min_value=0, max_value=3))
    return restrict_relax(
        knobbed.program,
        knobbed.inserted_relax[0],
        b.and_(
            b.le(b.sub("original_n", delta), "n"),
            b.le("n", b.add("original_n", delta)),
        ),
    )


program_names = st.sampled_from(["x", "y", "z"])
array_names = st.sampled_from(["A", "B"])
executions = st.sampled_from(list(A.Execution))
literals = st.integers(min_value=-12, max_value=12)


@st.composite
def int_exprs(draw, depth=2, relational=False):
    """An integer expression (``E``, or ``E*`` when ``relational``)."""
    choice = draw(st.integers(min_value=0, max_value=3 if depth > 0 else 1))
    if choice == 0:
        value = draw(literals)
        return A.RelIntLit(value) if relational else A.IntLit(value)
    if choice == 1:
        name = draw(program_names)
        return A.RelVar(name, draw(executions)) if relational else A.Var(name)
    if choice == 2:
        op = draw(st.sampled_from(list(A.IntOp)))
        left = draw(int_exprs(depth - 1, relational))
        right = draw(int_exprs(depth - 1, relational))
        return A.RelBinOp(op, left, right) if relational else A.BinOp(op, left, right)
    index = draw(int_exprs(depth - 1, relational))
    if relational:
        return A.RelArrayRead(draw(array_names), draw(executions), index)
    return A.ArrayRead(draw(array_names), index)


@st.composite
def bool_exprs(draw, depth=2, relational=False):
    """A boolean expression (``B``, or ``B*`` when ``relational``)."""
    choice = draw(st.integers(min_value=0, max_value=3 if depth > 0 else 1))
    if choice == 0:
        value = draw(st.booleans())
        return A.RelBoolLit(value) if relational else A.BoolLit(value)
    if choice == 1:
        op = draw(st.sampled_from(list(A.CmpOp)))
        left = draw(int_exprs(1, relational))
        right = draw(int_exprs(1, relational))
        return A.RelCompare(op, left, right) if relational else A.Compare(op, left, right)
    if choice == 2:
        operand = draw(bool_exprs(depth - 1, relational))
        return A.RelNot(operand) if relational else A.Not(operand)
    op = draw(st.sampled_from(list(A.BoolOp)))
    left = draw(bool_exprs(depth - 1, relational))
    right = draw(bool_exprs(depth - 1, relational))
    return A.RelBoolBin(op, left, right) if relational else A.BoolBin(op, left, right)


@st.composite
def any_stmts(draw, depth=2):
    """A statement of any form; blocks are ``Seq`` trees of any association."""
    choice = draw(st.integers(min_value=0, max_value=10 if depth > 0 else 7))
    targets = tuple(draw(st.lists(program_names, min_size=1, max_size=2, unique=True)))
    if choice == 0:
        return A.Skip()
    if choice == 1:
        return A.Assign(draw(program_names), draw(int_exprs()))
    if choice == 2:
        return A.ArrayAssign(draw(array_names), draw(int_exprs(1)), draw(int_exprs()))
    if choice == 3:
        return A.Havoc(targets, draw(bool_exprs()))
    if choice == 4:
        return A.Relax(targets, draw(bool_exprs()))
    if choice == 5:
        return A.Assume(draw(bool_exprs()))
    if choice == 6:
        return A.Assert(draw(bool_exprs()))
    if choice == 7:
        label = f"l{draw(st.integers(min_value=0, max_value=9))}"
        return A.Relate(label, draw(bool_exprs(relational=True)))
    if choice == 8:
        return A.Seq(draw(any_stmts(depth - 1)), draw(any_stmts(depth - 1)))
    if choice == 9:
        return A.If(
            draw(bool_exprs(1)),
            draw(any_stmts(depth - 1)),
            draw(any_stmts(depth - 1)),
            draw(optional_diverges),
        )
    return A.While(
        draw(bool_exprs(1)),
        draw(any_stmts(depth - 1)),
        draw(st.none() | bool_exprs(1)),
        draw(st.none() | bool_exprs(1, relational=True)),
        draw(optional_diverges),
    )


@st.composite
def any_programs(draw):
    """A builder-style program (no source, no spans) over every AST form."""
    stmts = draw(st.lists(any_stmts(), min_size=1, max_size=4))
    body = stmts[0]
    for stmt in stmts[1:]:
        body = A.Seq(body, stmt)  # left-nested, unlike the parser
    arrays = tuple(draw(st.lists(array_names, max_size=2, unique=True)))
    return A.Program(
        body=body,
        name=draw(st.sampled_from(["p", "demo-1", "lu+perforate:i@L0:s2"])),
        variables=tuple(draw(st.lists(program_names, max_size=3, unique=True))),
        arrays=arrays,
        shared=tuple(draw(st.lists(st.sampled_from(arrays), unique=True)))
        if arrays
        else (),
        requires=draw(st.none() | bool_exprs(1)),
        ensures=draw(st.none() | bool_exprs(1)),
        rel_requires=draw(st.none() | bool_exprs(1, relational=True)),
        rel_ensures=draw(st.none() | bool_exprs(1, relational=True)),
    )


def flatten_stmt(stmt):
    """Flatten nested sequences: round-trip equality holds modulo the
    (semantically irrelevant) association of ``Seq``."""
    if isinstance(stmt, Seq):
        return flatten_stmt(stmt.first) + flatten_stmt(stmt.second)
    if isinstance(stmt, If):
        return [
            (
                "if",
                stmt.condition,
                stmt.diverge,
                tuple(flatten_stmt(stmt.then_branch)),
                tuple(flatten_stmt(stmt.else_branch)),
            )
        ]
    if isinstance(stmt, While):
        return [
            (
                "while",
                stmt.condition,
                stmt.invariant,
                stmt.rel_invariant,
                stmt.diverge,
                tuple(flatten_stmt(stmt.body)),
            )
        ]
    return [stmt]


# ---------------------------------------------------------------------------
# Formula side
# ---------------------------------------------------------------------------

NAMES = ["x", "y", "z"]
names = st.sampled_from(NAMES)
small_ints = st.integers(min_value=-4, max_value=4)
DOMAIN = range(-3, 4)


@st.composite
def terms(draw, depth=1):
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return var(draw(names))
        return Const(draw(small_ints))
    op = draw(st.sampled_from([F.Add, F.Sub, F.Mul, F.Min, F.Max]))
    return op(draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1)))


@st.composite
def atoms(draw):
    rel = draw(st.sampled_from([F.lt, F.le, F.gt, F.ge, F.eq, F.ne]))
    return rel(draw(terms()), draw(terms()))


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms())
    choice = draw(st.integers(min_value=0, max_value=5))
    if choice == 0:
        return draw(atoms())
    if choice == 1:
        return F.neg(draw(formulas(depth=depth - 1)))
    if choice == 2:
        return F.conj(
            draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))
        )
    if choice == 3:
        return F.disj(
            draw(formulas(depth=depth - 1)), draw(formulas(depth=depth - 1))
        )
    quantifier = Exists if draw(st.booleans()) else Forall
    return quantifier(sym(draw(names)), draw(formulas(depth=depth - 1)))


@st.composite
def array_formulas(draw, depth=1):
    """Formulas whose atoms read ``A`` at simple indices."""
    index = (
        var(draw(names)) if draw(st.booleans()) else Const(draw(st.integers(-2, 2)))
    )
    read = Select(sym("A"), index)
    rel = draw(st.sampled_from([F.lt, F.le, F.eq, F.ge]))
    atom = rel(read, draw(terms()))
    if depth == 0:
        return atom
    choice = draw(st.integers(min_value=0, max_value=2))
    if choice == 0:
        return atom
    if choice == 1:
        return F.conj(atom, draw(array_formulas(depth=depth - 1)))
    return F.disj(F.neg(atom), draw(array_formulas(depth=depth - 1)))


def full_valuation(draw):
    """A valuation over the whole name pool (for ``st.data()`` draws)."""
    return Valuation(scalars={sym(name): draw(small_ints) for name in NAMES})


# -- reference recursions the cached structural queries are pinned against ---


def ref_free(node, bound=frozenset()):
    if isinstance(node, Const) or isinstance(node, (F.TrueF, F.FalseF)):
        return frozenset()
    if isinstance(node, SymTerm):
        return frozenset() if node.symbol in bound else frozenset({node.symbol})
    if isinstance(node, (Exists, Forall)):
        return ref_free(node.body, bound | {node.symbol})
    result = frozenset()
    for child in node_children(node):
        result |= ref_free(child, bound)
    return result


def ref_size(node):
    return 1 + sum(ref_size(child) for child in node_children(node))
