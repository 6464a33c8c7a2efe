"""The unary proof systems: axiomatic original (⊢o) and intermediate (⊢i).

Figure 7 of the paper gives the Hoare rules of the axiomatic original
semantics; Figure 9 gives the two rules that differ in the axiomatic
intermediate semantics (used by the ``diverge`` rule of the relational
system when the original and relaxed executions are no longer in lockstep):

===============  ==============================  ==============================
statement        original semantics ⊢o            intermediate semantics ⊢i
===============  ==============================  ==============================
``relax``        behaves as ``assert e`` (no-op    behaves as ``havoc (X) st e``
                 on the state, predicate must
                 hold)
``assume``       assumed without proof (may        must be proved, exactly like
                 fail as ``ba``)                  ``assert``
everything else  standard Hoare rules              same as ⊢o
===============  ==============================  ==============================

The implementation is a weakest-precondition verification-condition
generator over annotated programs (loops carry invariants).  The
``havoc``/``relax`` progress premise of the paper is incorporated into the
weakest precondition as the conjunct "some assignment to the targets
satisfies the predicate" — for every reachable state, which is (slightly
stronger than and) sufficient for the paper's non-emptiness premise, and is
exactly the condition needed for Lemma 2 / Lemma 4 style progress.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..lang.ast import (
    ArrayAssign,
    Assert,
    Assign,
    Assume,
    BoolExpr,
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
from ..lang.pretty import pretty_bool, pretty_stmt
from ..logic.formula import (
    Formula,
    FreshSymbols,
    Store,
    Symbol,
    SymTerm,
    Tag,
    TRUE,
    conj,
    exists,
    forall,
    formula_arrays,
    free_symbols,
    implies,
    neg,
)
from ..logic.subst import rename_arrays, substitute
from ..logic.translate import formula_of_bool, term_of_expr
from ..logic.traverse import TypeDispatcher
from .obligations import (
    ObligationCollector,
    ObligationKind,
    ProofSystem,
    ProvenanceContext,
    VerificationReport,
    discharge,
)

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from ..engine.core import ObligationEngine


class MissingInvariantError(Exception):
    """Raised when a ``while`` loop lacks the invariant annotation the
    verification-condition generator needs."""


class UnsupportedStatementError(Exception):
    """Raised when a statement falls outside the supported fragment."""


class UnarySystem(enum.Enum):
    """Which unary axiomatic semantics to generate conditions for."""

    ORIGINAL = "original"
    INTERMEDIATE = "intermediate"


def _condition_formula(condition: BoolExpr, tag: Optional[Tag]) -> Formula:
    return formula_of_bool(condition, tag)


@dataclass
class UnaryVCGenerator:
    """Weakest-precondition VC generation for ⊢o and ⊢i.

    ``tag`` controls which execution's variables the generated formulas talk
    about: ``None`` for standalone unary verification, ``Tag.ORIGINAL`` /
    ``Tag.RELAXED`` when the relational system invokes the unary systems for
    the projections of a divergent region (the ``diverge`` rule).
    """

    system: UnarySystem
    collector: ObligationCollector
    tag: Optional[Tag] = None
    fresh: Optional[FreshSymbols] = None

    def __post_init__(self) -> None:
        if self.fresh is None:
            self.fresh = FreshSymbols()

    # -- entry point -----------------------------------------------------------

    def verification_conditions(
        self, stmt: Stmt, precondition: Formula, postcondition: Formula
    ) -> None:
        """Emit the obligations for ``{precondition} stmt {postcondition}``."""
        weakest = self.wp(stmt, postcondition)
        self.collector.record_rule("conseq")
        self.collector.add(
            implies(precondition, weakest),
            ObligationKind.VALIDITY,
            rule="conseq",
            description="precondition establishes the weakest precondition",
            statement=pretty_stmt(stmt) if not isinstance(stmt, Seq) else "<body>",
            node=stmt,
        )

    # -- weakest preconditions ----------------------------------------------------

    def wp(self, stmt: Stmt, post: Formula) -> Formula:
        """The weakest precondition of ``stmt`` for postcondition ``post``.

        Dispatches through the shared :class:`TypeDispatcher` (one dict
        lookup per statement; the Figure 7 / Figure 9 rules live in the
        ``_wp_*`` handlers below).
        """
        return _WP(stmt, self, post)

    # -- rule helpers -----------------------------------------------------------------

    def _wp_assert(self, condition: BoolExpr, post: Formula) -> Formula:
        formula = _condition_formula(condition, self.tag)
        return conj(formula, post)

    def _wp_havoc(
        self,
        targets: Sequence[str],
        predicate: BoolExpr,
        post: Formula,
        statement_text: str,
    ) -> Formula:
        predicate_formula = _condition_formula(predicate, self.tag)
        assert self.fresh is not None
        # Array-valued targets: the predicate must not constrain the array's
        # contents; havocing the array then amounts to forgetting everything the
        # postcondition knew about it, implemented by renaming the array symbol.
        predicate_arrays = {a.name for a in formula_arrays(predicate_formula)}
        post_arrays = {a.name for a in formula_arrays(post)}
        array_targets = [
            name for name in targets if name in predicate_arrays or name in post_arrays
        ]
        scalar_targets = [name for name in targets if name not in array_targets]
        for name in array_targets:
            if name in predicate_arrays:
                raise UnsupportedStatementError(
                    f"havoc/relax of array {name!r} with a predicate constraining its "
                    "contents is not supported"
                )
        post_for_arrays = post
        if array_targets:
            renaming_arrays = {
                Symbol(name, self.tag): self.fresh.fresh(name, self.tag)
                for name in array_targets
            }
            post_for_arrays = rename_arrays(post, renaming_arrays)

        renaming: Dict[Symbol, SymTerm] = {}
        fresh_symbols: List[Symbol] = []
        for name in scalar_targets:
            source = Symbol(name, self.tag)
            fresh_symbol = self.fresh.fresh(name, self.tag)
            fresh_symbols.append(fresh_symbol)
            renaming[source] = SymTerm(fresh_symbol)
        predicate_fresh = substitute(predicate_formula, renaming)
        post_fresh = substitute(post_for_arrays, renaming)
        # Progress: some assignment to the targets satisfies the predicate.
        progress = exists(fresh_symbols, predicate_fresh) if fresh_symbols else predicate_fresh
        # Correctness: every satisfying assignment establishes the postcondition.
        correctness = (
            forall(fresh_symbols, implies(predicate_fresh, post_fresh))
            if fresh_symbols
            else implies(predicate_fresh, post_fresh)
        )
        return conj(progress, correctness)

    def _wp_while(self, stmt: While, post: Formula) -> Formula:
        self.collector.record_rule("while")
        if stmt.invariant is None:
            raise MissingInvariantError(
                f"while loop {pretty_bool(stmt.condition)} needs an 'invariant' "
                "annotation for verification-condition generation"
            )
        invariant = _condition_formula(stmt.invariant, self.tag)
        condition = _condition_formula(stmt.condition, self.tag)
        body_wp = self.wp(stmt.body, invariant)
        self.collector.add(
            implies(conj(invariant, condition), body_wp),
            ObligationKind.VALIDITY,
            rule="while-preserve",
            description="loop invariant is preserved by the loop body",
            statement=pretty_bool(stmt.condition),
            node=stmt,
        )
        self.collector.add(
            implies(conj(invariant, neg(condition)), post),
            ObligationKind.VALIDITY,
            rule="while-exit",
            description="loop invariant and exit condition establish the postcondition",
            statement=pretty_bool(stmt.condition),
            node=stmt,
        )
        return invariant


# -- the wp rule table ---------------------------------------------------------
#
# One handler per statement class, registered on the shared dispatcher from
# repro.logic.traverse; handler signature is (stmt, generator, post).

_WP = TypeDispatcher("statement")


@_WP.register(Skip)
def _wp_skip(stmt: Skip, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("skip")
    return post


@_WP.register(Assign)
def _wp_assign(stmt: Assign, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("assign")
    target = Symbol(stmt.target, gen.tag)
    value = term_of_expr(stmt.value, gen.tag)
    return substitute(post, {target: value})


@_WP.register(ArrayAssign)
def _wp_array_assign(stmt: ArrayAssign, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("assign-array")
    array = Symbol(stmt.array, gen.tag)
    index = term_of_expr(stmt.index, gen.tag)
    value = term_of_expr(stmt.value, gen.tag)
    return substitute(post, {}, arrays={array: Store(array, index, value)})


@_WP.register(Havoc)
def _wp_havoc_stmt(stmt: Havoc, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("havoc")
    return gen._wp_havoc(stmt.targets, stmt.predicate, post, str(stmt))


@_WP.register(Relax)
def _wp_relax(stmt: Relax, gen: UnaryVCGenerator, post: Formula) -> Formula:
    if gen.system is UnarySystem.ORIGINAL:
        # Figure 7: relax is verified exactly like assert of its predicate.
        gen.collector.record_rule("relax-as-assert")
        return gen._wp_assert(stmt.predicate, post)
    # Figure 9: relax is verified exactly like havoc.
    gen.collector.record_rule("relax-as-havoc")
    return gen._wp_havoc(stmt.targets, stmt.predicate, post, str(stmt))


@_WP.register(Assert)
def _wp_assert_stmt(stmt: Assert, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("assert")
    return gen._wp_assert(stmt.condition, post)


@_WP.register(Assume)
def _wp_assume(stmt: Assume, gen: UnaryVCGenerator, post: Formula) -> Formula:
    if gen.system is UnarySystem.ORIGINAL:
        # Figure 7: the assumption is taken on faith (it may fail as ba).
        gen.collector.record_rule("assume")
        return implies(_condition_formula(stmt.condition, gen.tag), post)
    # Figure 9: the intermediate semantics must prove assumptions.
    gen.collector.record_rule("assume-as-assert")
    return gen._wp_assert(stmt.condition, post)


@_WP.register(Relate)
def _wp_relate(stmt: Relate, gen: UnaryVCGenerator, post: Formula) -> Formula:
    # Figure 7: relate is a no-op for the unary systems.
    gen.collector.record_rule("relate-skip")
    return post


@_WP.register(If)
def _wp_if(stmt: If, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("if")
    condition = _condition_formula(stmt.condition, gen.tag)
    then_wp = gen.wp(stmt.then_branch, post)
    else_wp = gen.wp(stmt.else_branch, post)
    return conj(implies(condition, then_wp), implies(neg(condition), else_wp))


@_WP.register(While)
def _wp_while_stmt(stmt: While, gen: UnaryVCGenerator, post: Formula) -> Formula:
    return gen._wp_while(stmt, post)


@_WP.register(Seq)
def _wp_seq(stmt: Seq, gen: UnaryVCGenerator, post: Formula) -> Formula:
    gen.collector.record_rule("seq")
    return gen.wp(stmt.first, gen.wp(stmt.second, post))


def collect_unary(
    program_or_stmt: Union[Program, Stmt],
    precondition: Union[Formula, BoolExpr],
    postcondition: Union[Formula, BoolExpr],
    system: UnarySystem = UnarySystem.ORIGINAL,
    tag: Optional[Tag] = None,
    program_name: Optional[str] = None,
    context: Optional[ProvenanceContext] = None,
) -> Tuple[ObligationCollector, str]:
    """Generate (but do not discharge) the VCs of a unary triple.

    Returns the populated obligation collector plus the program name, ready
    to be discharged by :func:`~repro.hoare.obligations.discharge` or pooled
    with other programs' obligations in an obligation engine batch.
    """
    stmt = program_or_stmt.body if isinstance(program_or_stmt, Program) else program_or_stmt
    name = program_name or (
        program_or_stmt.name if isinstance(program_or_stmt, Program) else "<statement>"
    )
    pre = precondition if isinstance(precondition, Formula) else formula_of_bool(precondition, tag)
    post = (
        postcondition
        if isinstance(postcondition, Formula)
        else formula_of_bool(postcondition, tag)
    )
    proof_system = (
        ProofSystem.ORIGINAL if system is UnarySystem.ORIGINAL else ProofSystem.INTERMEDIATE
    )
    if context is None:
        context = ProvenanceContext(
            program=name,
            source=(
                program_or_stmt.source
                if isinstance(program_or_stmt, Program)
                else None
            ),
        )
    collector = ObligationCollector(proof_system, context=context)
    generator = UnaryVCGenerator(system=system, collector=collector, tag=tag)
    try:
        generator.verification_conditions(stmt, pre, post)
    except (MissingInvariantError, UnsupportedStatementError) as error:
        collector.error(str(error))
    return collector, name


def prove_unary(
    program_or_stmt: Union[Program, Stmt],
    precondition: Union[Formula, BoolExpr],
    postcondition: Union[Formula, BoolExpr],
    system: UnarySystem = UnarySystem.ORIGINAL,
    tag: Optional[Tag] = None,
    program_name: Optional[str] = None,
    engine: Optional["ObligationEngine"] = None,
) -> VerificationReport:
    """Verify ``{precondition} program {postcondition}`` under ⊢o or ⊢i.

    Pre/postconditions may be given as program boolean expressions (they are
    translated with the requested ``tag``) or as logic formulas.  The
    obligations are discharged through ``engine``, or a default
    :class:`~repro.engine.core.ObligationEngine` when none is given.
    """
    collector, name = collect_unary(
        program_or_stmt,
        precondition,
        postcondition,
        system=system,
        tag=tag,
        program_name=program_name,
    )
    return discharge(collector, name, engine=engine)


def prove_original(
    program_or_stmt: Union[Program, Stmt],
    precondition: Union[Formula, BoolExpr],
    postcondition: Union[Formula, BoolExpr],
    engine: Optional["ObligationEngine"] = None,
) -> VerificationReport:
    """Verify a triple under the axiomatic original semantics ⊢o (Figure 7)."""
    return prove_unary(
        program_or_stmt, precondition, postcondition, UnarySystem.ORIGINAL,
        engine=engine,
    )


def prove_intermediate(
    program_or_stmt: Union[Program, Stmt],
    precondition: Union[Formula, BoolExpr],
    postcondition: Union[Formula, BoolExpr],
    engine: Optional["ObligationEngine"] = None,
) -> VerificationReport:
    """Verify a triple under the axiomatic intermediate semantics ⊢i (Figure 9)."""
    return prove_unary(
        program_or_stmt, precondition, postcondition, UnarySystem.INTERMEDIATE,
        engine=engine,
    )
