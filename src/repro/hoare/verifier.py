"""High-level acceptability verification: combine ⊢o and ⊢r proofs.

Section 4 of the paper derives its headline guarantees from combinations of
proofs in the axiomatic original and relaxed semantics:

* **Original Progress Modulo Assumptions** (Lemma 2) — a ⊢o proof means no
  original execution violates an assertion (it may still violate an
  assumption).
* **Soundness of Relational Assertions** (Theorem 6) — a ⊢r proof means
  every pair of original/relaxed executions satisfies all executed
  ``relate`` statements.
* **Relative Relaxed Progress** (Theorem 7) — a ⊢r proof means that if no
  original execution errs, no relaxed execution errs.
* **Relaxed Progress** (Theorem 8) — ⊢o and ⊢r proofs together mean that if
  original executions do not violate assumptions, relaxed executions are
  error free.
* **Relaxed Progress Modulo Original Assumptions** (Corollary 9) — with
  both proofs, an error in a relaxed execution implies an assumption
  violation in an original execution (errors are debuggable on the original
  program).

:class:`AcceptabilityVerifier` packages the two proofs and reports which
guarantees the supplied annotations establish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from ..lang.analysis import modified_vars, used_vars
from ..lang.ast import BoolExpr, Program, RelBoolExpr, Stmt
from ..lang.source import ensure_source
from ..logic.formula import Formula, TRUE, conj
from ..logic.inject import relational_frame
from ..logic.translate import formula_of_bool, formula_of_rel_bool
from .obligations import (
    ObligationCollector,
    ProvenanceContext,
    VerificationReport,
    discharge,
)
from .relational import RelationalConfig, RelationalProver
from .unary import UnarySystem, collect_unary

if TYPE_CHECKING:  # pragma: no cover - only for annotations
    from ..engine.core import ObligationEngine


@dataclass
class AcceptabilitySpec:
    """The developer-facing specification of what to verify.

    Unary pre/postconditions annotate the ⊢o proof; relational pre/post
    conditions annotate the ⊢r proof.  When the relational precondition is
    omitted, the default is noninterference on every variable the program
    uses (``x<o> == x<r>`` for each variable) — the natural assumption that
    both executions start from the same state.
    """

    precondition: Union[BoolExpr, Formula, None] = None
    postcondition: Union[BoolExpr, Formula, None] = None
    rel_precondition: Union[RelBoolExpr, Formula, None] = None
    rel_postcondition: Union[RelBoolExpr, Formula, None] = None
    relational_config: Optional[RelationalConfig] = None

    @classmethod
    def of(cls, program: Program) -> "AcceptabilitySpec":
        """The specification ``program`` states in its header clauses.

        ``requires``/``ensures`` and ``rel_requires``/``rel_ensures`` become
        the pre/postconditions (absent ones take the defaults above), and
        the ``arrays``/``shared`` declarations configure the relational
        prover.  The diverge annotations stay on their statements, where
        the prover reads them.
        """
        return cls(
            precondition=program.requires,
            postcondition=program.ensures,
            rel_precondition=program.rel_requires,
            rel_postcondition=program.rel_ensures,
            relational_config=RelationalConfig(
                arrays=tuple(program.arrays), shared_arrays=tuple(program.shared)
            ),
        )


@dataclass
class AcceptabilityReport:
    """The combined outcome of the ⊢o and ⊢r verifications."""

    program_name: str
    original: VerificationReport
    relaxed: VerificationReport

    @property
    def verified(self) -> bool:
        return self.original.verified and self.relaxed.verified

    def guarantees(self) -> Dict[str, bool]:
        """Which of the paper's semantic guarantees the proofs establish."""
        return {
            "original_progress_modulo_assumptions": self.original.verified,
            "soundness_of_relational_assertions": self.relaxed.verified,
            "relative_relaxed_progress": self.relaxed.verified,
            "relaxed_progress": self.original.verified and self.relaxed.verified,
            "relaxed_progress_modulo_original_assumptions": (
                self.original.verified and self.relaxed.verified
            ),
        }

    def effort(self) -> Dict[str, Dict[str, int]]:
        """Proof-effort metrics per layer (the analogue of lines of Coq)."""
        return {
            "original": {
                "rule_applications": self.original.total_rule_applications(),
                "obligations": len(self.original.results),
                "obligation_size": self.original.total_obligation_size(),
            },
            "relaxed": {
                "rule_applications": self.relaxed.total_rule_applications(),
                "obligations": len(self.relaxed.results),
                "obligation_size": self.relaxed.total_obligation_size(),
            },
        }

    def summary(self) -> str:
        lines = [f"=== acceptability verification: {self.program_name} ==="]
        lines.append(self.original.summary())
        lines.append(self.relaxed.summary())
        lines.append("guarantees:")
        for name, holds in self.guarantees().items():
            marker = "yes" if holds else "NO"
            lines.append(f"  {name}: {marker}")
        return "\n".join(lines)


@dataclass
class CollectedAcceptability:
    """The undischarged obligations of one program's ⊢o and ⊢r proofs.

    Produced by :meth:`AcceptabilityVerifier.collect`; the batch layer pools
    the obligations of many programs into one engine discharge wave and then
    scatters the results back into per-program reports.
    """

    program_name: str
    original: ObligationCollector
    relaxed: ObligationCollector
    # The program the obligations were collected from, with source text and
    # spans attached when recoverable — the anchor for forensic reports.
    program: Optional[Program] = None
    # The statements of ``program`` the ⊢r proof verified with the diverge
    # rule (the statements a ``diverge`` annotation is used on).
    diverged: Tuple[Stmt, ...] = ()


class AcceptabilityVerifier:
    """Verify a relaxed program against an :class:`AcceptabilitySpec`.

    The side conditions of both proofs are discharged through ``engine``,
    or a default :class:`~repro.engine.core.ObligationEngine` when none is
    given.  The relational prover's convergence premises, which are
    decided during proof construction rather than discharge, go through
    the same engine (:meth:`~repro.engine.core.ObligationEngine.check_premise`).
    """

    def __init__(self, engine: Optional["ObligationEngine"] = None) -> None:
        self.engine = engine

    def collect(
        self,
        program: Program,
        spec: AcceptabilitySpec,
        study: str = "",
        sites: tuple = (),
    ) -> CollectedAcceptability:
        """Generate both proofs' obligations without discharging them.

        ``study`` and ``sites`` (case-study name, applied relaxation-site
        identifiers) flow into every obligation's provenance.  Builder-built
        and transformed programs get source text and spans from the
        pretty-printer, which attaches the spans the parser would give
        without parsing (structure-preserving up to Seq association, see
        :func:`repro.lang.source.ensure_source`).
        """
        program = ensure_source(program)
        precondition = self._unary(spec.precondition)
        postcondition = self._unary(spec.postcondition)
        context = ProvenanceContext(
            program=program.name,
            study=study,
            sites=tuple(sites),
            source=program.source,
        )
        original_collector, _ = collect_unary(
            program,
            precondition,
            postcondition,
            system=UnarySystem.ORIGINAL,
            program_name=program.name,
            context=context.child(),
        )

        rel_pre = self._relational(spec.rel_precondition, program)
        rel_post = self._relational(spec.rel_postcondition, program, default=TRUE)
        prover = RelationalProver(
            config=spec.relational_config,
            engine=self.engine,
            context=context.child(),
        )
        relaxed_collector, _ = prover.collect(
            program, rel_pre, rel_post, program_name=program.name
        )
        return CollectedAcceptability(
            program_name=program.name,
            original=original_collector,
            relaxed=relaxed_collector,
            program=program,
            diverged=tuple(prover.diverged),
        )

    def verify(
        self,
        program: Program,
        spec: AcceptabilitySpec,
        study: str = "",
        sites: tuple = (),
    ) -> AcceptabilityReport:
        collected = self.collect(program, spec, study=study, sites=sites)
        original_report = discharge(collected.original, program.name, engine=self.engine)
        relaxed_report = discharge(collected.relaxed, program.name, engine=self.engine)
        return AcceptabilityReport(
            program_name=program.name,
            original=original_report,
            relaxed=relaxed_report,
        )

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _unary(value: Union[BoolExpr, Formula, None]) -> Formula:
        if value is None:
            return TRUE
        if isinstance(value, Formula):
            return value
        return formula_of_bool(value)

    @staticmethod
    def _relational(
        value: Union[RelBoolExpr, Formula, None],
        program: Program,
        default: Optional[Formula] = None,
    ) -> Formula:
        if value is None:
            if default is not None:
                return default
            names = sorted(
                set(program.variables) | (used_vars(program.body) - set(program.arrays))
            )
            return relational_frame(names)
        if isinstance(value, Formula):
            return value
        return formula_of_rel_bool(value)


def verify_acceptability(
    program: Program,
    spec: Optional[AcceptabilitySpec] = None,
    engine: Optional["ObligationEngine"] = None,
) -> AcceptabilityReport:
    """Convenience wrapper over :class:`AcceptabilityVerifier`; the spec
    defaults to the one the program states (:meth:`AcceptabilitySpec.of`)."""
    return AcceptabilityVerifier(engine=engine).verify(
        program, spec or AcceptabilitySpec.of(program)
    )
