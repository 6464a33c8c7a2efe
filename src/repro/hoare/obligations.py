"""Proof obligations, their results, and verification reports.

The axiomatic semantics of the paper generate two kinds of side conditions:

* **validity** obligations — entailments ``|= P ⇒ Q`` (the consequence rule,
  assert/assume premises, loop invariant preservation, convergence checks,
  relate premises), discharged by :meth:`Solver.check_valid`;
* **satisfiability** obligations — the non-emptiness premises of the
  ``havoc`` and ``relax`` rules (``[[...]] ≠ ∅``), discharged by
  :meth:`Solver.check_sat`.

An obligation records where it came from (the rule and the statement), so a
verification report can present per-rule effort statistics — the analogue of
the paper's "lines of Coq proof script" measurements.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..lang.ast import Node, Span
from ..logic.formula import Formula, formula_size
from ..solver.lia import Status

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from ..engine.core import ObligationEngine


class ObligationKind(enum.Enum):
    """Whether the obligation is an entailment or a non-emptiness premise."""

    VALIDITY = "validity"
    SATISFIABILITY = "satisfiability"


class ProofSystem(enum.Enum):
    """Which axiomatic semantics generated the obligation."""

    ORIGINAL = "original"       # ⊢o, Figure 7
    INTERMEDIATE = "intermediate"  # ⊢i, Figure 9
    RELAXED = "relaxed"         # ⊢r, Figure 8


@dataclass(frozen=True)
class ObligationProvenance:
    """Where an obligation came from, down to the source span.

    Attached at collection time by :class:`ObligationCollector` and carried
    through fingerprinting, the persistent cache and ``--jobs`` worker
    round-trips untouched (workers only ever see formulas).  Everything here
    is plain data — strings, an optional :class:`~repro.lang.ast.Span` and a
    tuple of relaxation-site identifiers — so it pickles and serialises
    losslessly.
    """

    program: str = ""
    study: str = ""
    statement: str = ""
    span: Optional[Span] = None
    sites: Tuple[str, ...] = ()
    rule: str = ""
    system: str = ""
    kind: str = ""
    source: Optional[str] = None

    def location(self) -> str:
        """Human-readable source location, e.g. ``line 3, columns 5-12``."""
        if self.span is None:
            return "unknown location"
        return self.span.describe()

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "study": self.study,
            "statement": self.statement,
            "span": self.span.as_dict() if self.span is not None else None,
            "sites": list(self.sites),
            "rule": self.rule,
            "system": self.system,
            "kind": self.kind,
        }


@dataclass
class ProvenanceContext:
    """Collection-time context shared by every obligation of one proof run.

    Built once per verification (per program / case study) and handed to the
    collectors; :meth:`ObligationCollector.add` combines it with the per-call
    rule/statement information into an :class:`ObligationProvenance`.
    """

    program: str = ""
    study: str = ""
    sites: Tuple[str, ...] = ()
    source: Optional[str] = None

    def child(self) -> "ProvenanceContext":
        """Context for a nested collector (the diverge rule's sub-proofs)."""
        return ProvenanceContext(
            program=self.program,
            study=self.study,
            sites=self.sites,
            source=self.source,
        )


@dataclass
class ProofObligation:
    """A single side condition produced by a proof rule."""

    formula: Formula
    kind: ObligationKind
    system: ProofSystem
    rule: str
    description: str
    statement: str = ""
    provenance: Optional[ObligationProvenance] = None

    def size(self) -> int:
        return formula_size(self.formula)


@dataclass
class ObligationResult:
    """The solver's verdict on one obligation."""

    obligation: ProofObligation
    status: Status
    counterexample: Optional[Dict] = None
    elapsed_seconds: float = 0.0
    reason: str = ""
    #: The obligation's canonical fingerprint (the engine's cache key) and
    #: whether a search-session verdict store answered it.
    fingerprint: str = ""
    reused: bool = False

    @property
    def discharged(self) -> bool:
        if self.obligation.kind is ObligationKind.VALIDITY:
            return self.status is Status.VALID
        return self.status is Status.SAT


@dataclass
class VerificationReport:
    """The aggregate result of verifying a program under one proof system."""

    system: ProofSystem
    program_name: str
    results: List[ObligationResult] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    rule_applications: Dict[str, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def verified(self) -> bool:
        return not self.errors and all(result.discharged for result in self.results)

    @property
    def obligations(self) -> List[ProofObligation]:
        return [result.obligation for result in self.results]

    def undischarged(self) -> List[ObligationResult]:
        return [result for result in self.results if not result.discharged]

    def as_dict(self) -> Dict[str, object]:
        """The canonical JSON shape of one proof layer.

        Shared by every ``--json`` surface (``verify-batch``,
        ``verify-case-study``) so the counters stay in sync by construction.
        """
        return {
            "verified": self.verified,
            "obligations": len(self.results),
            "discharged": sum(1 for result in self.results if result.discharged),
            "unknown": sum(
                1 for result in self.results if result.status is Status.UNKNOWN
            ),
            "undischarged": [
                {
                    "rule": result.obligation.rule,
                    "description": result.obligation.description,
                    "status": result.status.value,
                    "reason": result.reason,
                    "provenance": (
                        result.obligation.provenance.as_dict()
                        if result.obligation.provenance is not None
                        else None
                    ),
                }
                for result in self.undischarged()
            ],
            "errors": list(self.errors),
        }

    def total_rule_applications(self) -> int:
        return sum(self.rule_applications.values())

    def total_obligation_size(self) -> int:
        return sum(result.obligation.size() for result in self.results)

    def summary(self) -> str:
        """A short human-readable summary of the verification outcome."""
        verdict = "VERIFIED" if self.verified else "NOT VERIFIED"
        lines = [
            f"[{self.system.value}] {self.program_name}: {verdict}",
            f"  rule applications : {self.total_rule_applications()}",
            f"  proof obligations : {len(self.results)} "
            f"({sum(1 for r in self.results if r.discharged)} discharged)",
            f"  obligation size   : {self.total_obligation_size()} formula nodes",
            f"  solver time       : {self.elapsed_seconds:.3f}s",
        ]
        for failure in self.undischarged():
            line = (
                f"  UNDISCHARGED [{failure.obligation.rule}] "
                f"{failure.obligation.description} -> {failure.status.value}"
            )
            provenance = failure.obligation.provenance
            if provenance is not None and provenance.span is not None:
                line += f" @ {provenance.location()}"
            if failure.reason:
                line += f" ({failure.reason})"
            lines.append(line)
        for error in self.errors:
            lines.append(f"  ERROR {error}")
        return "\n".join(lines)


class ObligationCollector:
    """Accumulates obligations and rule applications during proof construction."""

    def __init__(
        self,
        system: ProofSystem,
        context: Optional[ProvenanceContext] = None,
    ) -> None:
        self.system = system
        self.context = context if context is not None else ProvenanceContext()
        self.obligations: List[ProofObligation] = []
        self.rule_applications: Dict[str, int] = {}
        self.errors: List[str] = []

    def record_rule(self, rule: str) -> None:
        self.rule_applications[rule] = self.rule_applications.get(rule, 0) + 1

    def add(
        self,
        formula: Formula,
        kind: ObligationKind,
        rule: str,
        description: str,
        statement: str = "",
        node: Optional[Node] = None,
    ) -> None:
        span = node.span if node is not None else None
        if not statement and node is not None:
            statement = str(node)
        provenance = ObligationProvenance(
            program=self.context.program,
            study=self.context.study,
            statement=statement,
            span=span,
            sites=self.context.sites,
            rule=rule,
            system=self.system.value,
            kind=kind.value,
            source=self.context.source,
        )
        self.obligations.append(
            ProofObligation(
                formula=formula,
                kind=kind,
                system=self.system,
                rule=rule,
                description=description,
                statement=statement,
                provenance=provenance,
            )
        )

    def error(self, message: str) -> None:
        self.errors.append(message)


def discharge(
    collector: ObligationCollector,
    program_name: str,
    engine: Optional["ObligationEngine"] = None,
) -> VerificationReport:
    """Discharge every collected obligation and build a report.

    A thin wrapper over :meth:`repro.engine.core.ObligationEngine.
    discharge_collected`: without an explicit ``engine`` it uses a fresh
    default one (the strategy portfolio, in process, with in-wave dedup
    and an in-memory cache).  Passing an engine adds a persistent cache,
    parallel discharge and a learned win table without changing this call
    site.
    """
    if engine is None:
        # Imported lazily: the engine package imports this module.
        from ..engine.core import ObligationEngine

        engine = ObligationEngine()
    return engine.discharge_collected(collector, program_name)
