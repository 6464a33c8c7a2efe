"""The axiomatic relaxed (relational) semantics ⊢r — Figure 8 of the paper.

The relational proof system relates pairs of executions: an original
execution (⇓o) and a relaxed execution (⇓r) of the *same* program.  Its
judgments ``⊢r {P*} s {Q*}`` use relational formulas over tagged symbols
(``x<o>`` / ``x<r>``).

The implementation is a forward symbolic executor: starting from the
relational precondition it pushes a relational formula through the program,
applying the Figure 8 rule for each statement and emitting the rule's side
conditions as proof obligations.  Control-flow statements use the
*convergent* rules when the current relational formula forces both
executions to take the same branch (a premise decided through the
obligation engine, see :meth:`~repro.engine.core.ObligationEngine.check_premise`),
and fall back to the *diverge* rule otherwise:

* the diverge rule requires ``no_rel(s)`` (no ``relate`` inside the
  divergent region),
* the projections of the current relational formula become the
  preconditions of independent unary proofs — ⊢o for the original side and
  ⊢i for the relaxed side (Figure 9) — whose postconditions are supplied by
  the statement's ``diverge`` annotation (or default to ``true``),
* relationships over variables *not modified* by the divergent region are
  preserved by the relational frame rule (implemented by existentially
  quantifying the modified variables of the pre-state relation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..lang.analysis import modified_vars, no_rel
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
from ..lang.pretty import pretty_stmt
from ..logic.formula import (
    Formula,
    FreshSymbols,
    Symbol,
    SymTerm,
    Tag,
    TRUE,
    conj,
    disj,
    eq,
    exists,
    free_symbols,
    formula_arrays,
    implies,
    neg,
)
from ..logic.inject import inj_o, inj_r, pair, projection_formula
from ..logic.subst import rename_arrays, substitute, substitute_term
from ..logic.translate import formula_of_bool, formula_of_rel_bool, term_of_expr
from ..logic.traverse import TypeDispatcher
from .obligations import (
    ObligationCollector,
    ObligationKind,
    ProofSystem,
    ProvenanceContext,
    VerificationReport,
    discharge,
)
from .unary import UnarySystem, UnaryVCGenerator, UnsupportedStatementError

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from ..engine.core import ObligationEngine


@dataclass
class RelationalConfig:
    """Configuration of the relational prover."""

    # Names of array variables (array havoc/relax targets are renamed wholesale).
    arrays: Sequence[str] = ()
    # Read-only arrays whose contents are identical in the original and relaxed
    # executions (program inputs); they are translated as a single shared symbol,
    # which gives the relational proofs "array noninterference" for free.
    shared_arrays: Sequence[str] = ()


class RelationalProofError(Exception):
    """Raised when the relational proof cannot be constructed (e.g. a
    ``relate`` statement inside a divergent region)."""


class RelationalProver:
    """Forward symbolic execution implementing the ⊢r proof rules."""

    def __init__(
        self,
        config: Optional[RelationalConfig] = None,
        engine: Optional["ObligationEngine"] = None,
        context: Optional[ProvenanceContext] = None,
    ) -> None:
        if engine is None:
            from ..engine.core import ObligationEngine  # circular at import time

            engine = ObligationEngine()
        self.config = config or RelationalConfig()
        #: Decides the convergence premises during collection and, in
        #: :meth:`prove`, discharges the collected obligations.
        self.engine = engine
        self.context = context if context is not None else ProvenanceContext()
        self.collector = ObligationCollector(ProofSystem.RELAXED, context=self.context)
        self.unary_collectors: List[ObligationCollector] = []
        #: The ``if``/``while`` statements proved with the diverge rule, in
        #: proof order.
        self.diverged: List[Union[If, While]] = []
        self._fresh = FreshSymbols()

    # -- translation helpers (shared-array aware) ---------------------------------

    def _share(self, formula: Formula) -> Formula:
        """Rename tagged occurrences of shared (read-only input) arrays to a
        single untagged symbol, reflecting that both executions read the same
        array."""
        if not self.config.shared_arrays:
            return formula
        renaming = {}
        for array in formula_arrays(formula):
            if array.name in self.config.shared_arrays and array.tag is not None:
                renaming[array] = Symbol(array.name, None)
        if not renaming:
            return formula
        return rename_arrays(formula, renaming)

    def _bool(self, condition: BoolExpr, tag: Optional[Tag]) -> Formula:
        return self._share(formula_of_bool(condition, tag))

    def _rbool(self, condition: BoolExpr) -> Formula:
        return self._share(formula_of_rel_bool(condition))

    # -- public API ----------------------------------------------------------------

    def collect(
        self,
        program_or_stmt: Union[Program, Stmt],
        precondition: Union[Formula, BoolExpr],
        postcondition: Union[Formula, BoolExpr],
        program_name: Optional[str] = None,
    ) -> Tuple[ObligationCollector, str]:
        """Run the ⊢r proof construction without discharging obligations.

        Returns the collector (with the diverge-rule unary sub-proofs
        already merged in) plus the program name.  Convergence premises are
        still decided during construction, through ``self.engine`` — those
        are proof-search queries, not obligations.  Each prover instance should
        collect at most once (the collector accumulates).
        """
        stmt = (
            program_or_stmt.body
            if isinstance(program_or_stmt, Program)
            else program_or_stmt
        )
        name = program_name or (
            program_or_stmt.name
            if isinstance(program_or_stmt, Program)
            else "<statement>"
        )
        pre = self._share(
            precondition
            if isinstance(precondition, Formula)
            else formula_of_rel_bool(precondition)
        )
        post = self._share(
            postcondition
            if isinstance(postcondition, Formula)
            else formula_of_rel_bool(postcondition)
        )
        if not self.context.program:
            self.context.program = name
        if self.context.source is None and isinstance(program_or_stmt, Program):
            self.context.source = program_or_stmt.source
        self._fresh.reserve(sorted(s.name for s in free_symbols(pre) | free_symbols(post)))
        try:
            final = self.sp(stmt, pre)
            self.collector.record_rule("conseq")
            self.collector.add(
                implies(final, post),
                ObligationKind.VALIDITY,
                rule="conseq",
                description="symbolic postcondition establishes the stated postcondition",
                node=stmt,
            )
        except (RelationalProofError, UnsupportedStatementError) as error:
            self.collector.error(str(error))
        # Merge unary obligations gathered by diverge-rule subproofs.
        for unary in self.unary_collectors:
            for obligation in unary.obligations:
                self.collector.obligations.append(obligation)
            for rule, count in unary.rule_applications.items():
                key = f"{unary.system.value}:{rule}"
                self.collector.rule_applications[key] = (
                    self.collector.rule_applications.get(key, 0) + count
                )
            self.collector.errors.extend(unary.errors)
        return self.collector, name

    def prove(
        self,
        program_or_stmt: Union[Program, Stmt],
        precondition: Union[Formula, BoolExpr],
        postcondition: Union[Formula, BoolExpr],
        program_name: Optional[str] = None,
    ) -> VerificationReport:
        """Verify ``⊢r {precondition} program {postcondition}``."""
        collector, name = self.collect(
            program_or_stmt, precondition, postcondition, program_name
        )
        return discharge(collector, name, engine=self.engine)

    # -- forward symbolic execution ---------------------------------------------------

    def sp(self, stmt: Stmt, relation: Formula) -> Formula:
        """The relational strongest postcondition of ``stmt`` from ``relation``.

        Dispatches through the shared :class:`TypeDispatcher`; the Figure 8
        rules live in the ``_sp_*`` handlers registered below the class.
        """
        return _SP(stmt, self, relation)

    # -- straight-line rules ----------------------------------------------------------

    def _sp_assign(self, stmt: Assign, relation: Formula) -> Formula:
        old_o = self._fresh.fresh(stmt.target, Tag.ORIGINAL)
        old_r = self._fresh.fresh(stmt.target, Tag.RELAXED)
        target_o = Symbol(stmt.target, Tag.ORIGINAL)
        target_r = Symbol(stmt.target, Tag.RELAXED)
        renaming = {target_o: SymTerm(old_o), target_r: SymTerm(old_r)}
        shifted_relation = substitute(relation, renaming)
        # The assigned expression is evaluated in the *old* state, so the old-value
        # renaming applies to the right-hand side only, not to the target itself.
        value_o = self._share(
            eq(
                SymTerm(target_o),
                substitute_term(term_of_expr(stmt.value, Tag.ORIGINAL), renaming),
            )
        )
        value_r = self._share(
            eq(
                SymTerm(target_r),
                substitute_term(term_of_expr(stmt.value, Tag.RELAXED), renaming),
            )
        )
        return exists([old_o, old_r], conj(shifted_relation, value_o, value_r))

    def _sp_transfer(
        self,
        condition: BoolExpr,
        relation: Formula,
        rule: str,
        statement_text: str,
        node: Optional[Stmt] = None,
    ) -> Formula:
        """The assert / assume rules of Figure 8: transfer validity from the
        original execution to the relaxed execution via the current relation."""
        original = self._bool(condition, Tag.ORIGINAL)
        relaxed = self._bool(condition, Tag.RELAXED)
        self.collector.add(
            implies(conj(relation, original), relaxed),
            ObligationKind.VALIDITY,
            rule=rule,
            description=(
                f"the relation transfers {rule} {condition} from the "
                "original to the relaxed execution"
            ),
            statement=statement_text,
            node=node,
        )
        return conj(relation, original, relaxed)

    def _sp_havoc(self, stmt, relation: Formula, relax_only: bool) -> Formula:
        """The relax rule (and the analogous lockstep havoc rule).

        ``relax`` modifies only the relaxed execution's copies of the targets;
        ``havoc`` modifies both copies (each side independently).
        """
        scalar_targets = [name for name in stmt.targets if name not in self.config.arrays]
        array_targets = [name for name in stmt.targets if name in self.config.arrays]
        predicate_o = self._bool(stmt.predicate, Tag.ORIGINAL)
        predicate_r = self._bool(stmt.predicate, Tag.RELAXED)

        for name in array_targets:
            if name in {s.name for s in free_symbols(predicate_r) | formula_arrays(predicate_r)}:
                raise UnsupportedStatementError(
                    f"array {name!r} is a relax/havoc target constrained by its own "
                    "predicate; this fragment is not supported"
                )

        renaming: Dict[Symbol, SymTerm] = {}
        quantified: List[Symbol] = []
        for name in scalar_targets:
            fresh_r = self._fresh.fresh(name, Tag.RELAXED)
            renaming[Symbol(name, Tag.RELAXED)] = SymTerm(fresh_r)
            quantified.append(fresh_r)
            if not relax_only:
                fresh_o = self._fresh.fresh(name, Tag.ORIGINAL)
                renaming[Symbol(name, Tag.ORIGINAL)] = SymTerm(fresh_o)
                quantified.append(fresh_o)

        shifted = substitute(relation, renaming)
        # Forget relational facts about havoced/relaxed arrays by renaming them.
        array_renaming: Dict[Symbol, Symbol] = {}
        for name in array_targets:
            array_renaming[Symbol(name, Tag.RELAXED)] = self._fresh.fresh(name, Tag.RELAXED)
            if not relax_only:
                array_renaming[Symbol(name, Tag.ORIGINAL)] = self._fresh.fresh(
                    name, Tag.ORIGINAL
                )
        if array_renaming:
            shifted = rename_arrays(shifted, array_renaming)

        quantified_relation = exists(quantified, shifted) if quantified else shifted
        result = conj(quantified_relation, predicate_o, predicate_r)
        # The rule's premise: the relaxed execution can actually choose values
        # satisfying the predicate (non-emptiness of the postcondition).
        self.collector.add(
            conj(quantified_relation, predicate_r),
            ObligationKind.SATISFIABILITY,
            rule="relax" if relax_only else "havoc",
            description=(
                "the relaxation predicate is satisfiable for the relaxed execution"
            ),
            statement=str(stmt),
            node=stmt,
        )
        return result

    # -- control flow: convergent rules and the diverge rule ---------------------------

    def _lockstep(self, condition: BoolExpr) -> Tuple[Formula, Formula]:
        """``<b.b>`` and ``<¬b.¬b>``: both executions branch the same way."""
        holds = formula_of_bool(condition)
        fails = neg(holds)
        return self._share(pair(holds, holds)), self._share(pair(fails, fails))

    def _converges(self, relation: Formula, both_true: Formula, both_false: Formula) -> bool:
        """Check the convergence premise ``P* ⇒ <b.b> ∨ <¬b.¬b>``."""
        premise = implies(relation, disj(both_true, both_false))
        return self.engine.check_premise(premise)

    def _sp_if(self, stmt: If, relation: Formula) -> Formula:
        both_true, both_false = self._lockstep(stmt.condition)
        if self._converges(relation, both_true, both_false):
            self.collector.record_rule("if-convergent")
            then_post = self.sp(stmt.then_branch, conj(relation, both_true))
            else_post = self.sp(stmt.else_branch, conj(relation, both_false))
            return disj(then_post, else_post)
        self.collector.record_rule("diverge")
        return self._sp_diverge(stmt, relation)

    def _sp_while(self, stmt: While, relation: Formula) -> Formula:
        condition = stmt.condition
        rel_invariant = (
            self._rbool(stmt.rel_invariant)
            if stmt.rel_invariant is not None
            else None
        )
        if rel_invariant is not None:
            # Convergent while rule: the invariant must force lockstep branching.
            both_true, both_false = self._lockstep(condition)
            if self._converges(rel_invariant, both_true, both_false):
                self.collector.record_rule("while-convergent")
                self.collector.add(
                    implies(relation, rel_invariant),
                    ObligationKind.VALIDITY,
                    rule="while-entry",
                    description="relational loop invariant holds on entry",
                    statement=str(condition),
                    node=stmt,
                )
                body_post = self.sp(stmt.body, conj(rel_invariant, both_true))
                self.collector.add(
                    implies(body_post, rel_invariant),
                    ObligationKind.VALIDITY,
                    rule="while-preserve",
                    description="relational loop invariant is preserved by the body",
                    statement=str(condition),
                    node=stmt,
                )
                return conj(rel_invariant, both_false)
        self.collector.record_rule("diverge")
        return self._sp_diverge(stmt, relation)

    def _sp_diverge(self, stmt: Union[If, While], relation: Formula) -> Formula:
        """The diverge rule: independent unary proofs plus the relational frame."""
        if not no_rel(stmt):
            raise RelationalProofError(
                "the diverge rule requires no_rel(s): a relate statement occurs "
                f"inside the divergent region {pretty_stmt(stmt)!r}"
            )
        self.diverged.append(stmt)
        annotation = stmt.diverge
        original_post = relaxed_post = TRUE
        if annotation is not None:
            original_post = formula_of_bool(annotation.original_post)
            relaxed_post = formula_of_bool(annotation.relaxed_post)

        # Projections of the current relation become the unary preconditions.
        original_pre = projection_formula(relation, Tag.ORIGINAL)
        relaxed_pre = projection_formula(relation, Tag.RELAXED)

        # Independent unary proofs: ⊢o for the original side, ⊢i for the relaxed side.
        original_collector = ObligationCollector(
            ProofSystem.ORIGINAL, context=self.context.child()
        )
        original_generator = UnaryVCGenerator(
            system=UnarySystem.ORIGINAL, collector=original_collector, tag=None
        )
        try:
            original_generator.verification_conditions(stmt, original_pre, original_post)
        except Exception as error:  # MissingInvariantError and friends
            original_collector.error(str(error))
        self.unary_collectors.append(original_collector)

        intermediate_collector = ObligationCollector(
            ProofSystem.INTERMEDIATE, context=self.context.child()
        )
        intermediate_generator = UnaryVCGenerator(
            system=UnarySystem.INTERMEDIATE, collector=intermediate_collector, tag=None
        )
        try:
            intermediate_generator.verification_conditions(stmt, relaxed_pre, relaxed_post)
        except Exception as error:
            intermediate_collector.error(str(error))
        self.unary_collectors.append(intermediate_collector)

        # Relational frame: relationships over unmodified variables survive.
        # Sorted so the quantifier order (and fresh-name numbering) of the
        # frame is deterministic across processes — obligation fingerprints
        # must not depend on set iteration order.
        modified = sorted(modified_vars(stmt))
        scalar_modified = [name for name in modified if name not in self.config.arrays]
        array_modified = [name for name in modified if name in self.config.arrays]
        quantified: List[Symbol] = []
        for name in scalar_modified:
            quantified.append(Symbol(name, Tag.ORIGINAL))
            quantified.append(Symbol(name, Tag.RELAXED))
        frame = relation
        if array_modified:
            renaming = {}
            for name in array_modified:
                renaming[Symbol(name, Tag.ORIGINAL)] = self._fresh.fresh(name, Tag.ORIGINAL)
                renaming[Symbol(name, Tag.RELAXED)] = self._fresh.fresh(name, Tag.RELAXED)
            frame = rename_arrays(frame, renaming)
        if quantified:
            # Rename then existentially quantify so the frame says nothing about
            # the modified variables' new values.
            renaming_scalars: Dict[Symbol, SymTerm] = {}
            fresh_scalars: List[Symbol] = []
            for symbol in quantified:
                fresh_symbol = self._fresh.fresh(symbol.name, symbol.tag)
                renaming_scalars[symbol] = SymTerm(fresh_symbol)
                fresh_scalars.append(fresh_symbol)
            frame = exists(fresh_scalars, substitute(frame, renaming_scalars))

        return conj(frame, inj_o(original_post), inj_r(relaxed_post))

# -- the sp rule table ---------------------------------------------------------
#
# One handler per statement class (Figure 8), registered on the shared
# dispatcher; handler signature is (stmt, prover, relation).

_SP = TypeDispatcher("statement")


@_SP.register(Skip)
def _sp_skip(stmt: Skip, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("skip")
    return relation


@_SP.register(Assign)
def _sp_assign_stmt(stmt: Assign, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("assign")
    return prover._sp_assign(stmt, relation)


@_SP.register(ArrayAssign)
def _sp_array_assign(stmt: ArrayAssign, prover: RelationalProver, relation: Formula) -> Formula:
    raise UnsupportedStatementError(
        "array assignment in lockstep relational reasoning is not supported; "
        "place array writes inside a divergent region or model them with "
        "scalar summaries"
    )


@_SP.register(Havoc)
def _sp_havoc_stmt(stmt: Havoc, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("havoc")
    return prover._sp_havoc(stmt, relation, relax_only=False)


@_SP.register(Relax)
def _sp_relax(stmt: Relax, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("relax")
    return prover._sp_havoc(stmt, relation, relax_only=True)


@_SP.register(Assert)
def _sp_assert(stmt: Assert, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("assert")
    return prover._sp_transfer(stmt.condition, relation, "assert", str(stmt), node=stmt)


@_SP.register(Assume)
def _sp_assume(stmt: Assume, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("assume")
    return prover._sp_transfer(stmt.condition, relation, "assume", str(stmt), node=stmt)


@_SP.register(Relate)
def _sp_relate(stmt: Relate, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("relate")
    condition = prover._rbool(stmt.condition)
    prover.collector.add(
        implies(relation, condition),
        ObligationKind.VALIDITY,
        rule="relate",
        description=f"relate {stmt.label!r} holds for all reachable state pairs",
        statement=str(stmt),
        node=stmt,
    )
    return conj(relation, condition)


@_SP.register(If)
def _sp_if_stmt(stmt: If, prover: RelationalProver, relation: Formula) -> Formula:
    return prover._sp_if(stmt, relation)


@_SP.register(While)
def _sp_while_stmt(stmt: While, prover: RelationalProver, relation: Formula) -> Formula:
    return prover._sp_while(stmt, relation)


@_SP.register(Seq)
def _sp_seq(stmt: Seq, prover: RelationalProver, relation: Formula) -> Formula:
    prover.collector.record_rule("seq")
    return prover.sp(stmt.second, prover.sp(stmt.first, relation))


def prove_relaxed(
    program_or_stmt: Union[Program, Stmt],
    precondition: Union[Formula, BoolExpr],
    postcondition: Union[Formula, BoolExpr],
    config: Optional[RelationalConfig] = None,
    program_name: Optional[str] = None,
    engine: Optional["ObligationEngine"] = None,
) -> VerificationReport:
    """Verify ``⊢r {precondition} program {postcondition}`` (Figure 8)."""
    prover = RelationalProver(config=config, engine=engine)
    return prover.prove(program_or_stmt, precondition, postcondition, program_name)
