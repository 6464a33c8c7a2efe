"""Common infrastructure for the paper's Section 5 case studies.

Each case study packages:

* the relaxed program written in the paper's language (with the loop
  invariant / relational invariant annotations its verification needs),
* the acceptability specification (unary and relational pre/postconditions
  plus the diverge-rule annotations),
* a static verification entry point (the ⊢o + ⊢r proofs), and
* a dynamic differential simulation: run the original and relaxed semantics
  side by side on generated workloads, check the ``relate`` statements on
  the observed observation lists, and collect accuracy statistics.

The simulation is how the tier-1 tests check the paper's qualitative
claims (the acceptability properties hold on every relaxed execution) and
the accuracy-envelope figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from ..hoare.obligations import VerificationReport
from ..hoare.verifier import AcceptabilityReport, AcceptabilitySpec, AcceptabilityVerifier
from ..lang.analysis import gamma as build_gamma
from ..lang.ast import Program
from ..semantics.choosers import Chooser
from ..semantics.interpreter import run_original, run_relaxed
from ..semantics.observation import check_compatibility
from ..semantics.state import Outcome, State, Terminated, is_error

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..relaxations.sites import RelaxationSite


@dataclass
class SimulationRecord:
    """One original/relaxed execution pair of a case study."""

    initial_state: State
    original: Outcome
    relaxed: Outcome
    relate_satisfied: bool
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class SimulationSummary:
    """Aggregate results over many differential executions."""

    records: List[SimulationRecord] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.records)

    @property
    def relate_violations(self) -> int:
        return sum(1 for record in self.records if not record.relate_satisfied)

    @property
    def original_errors(self) -> int:
        return sum(1 for record in self.records if is_error(record.original))

    @property
    def relaxed_errors(self) -> int:
        return sum(1 for record in self.records if is_error(record.relaxed))

    def metric_values(self, name: str) -> List[float]:
        return [
            record.metrics[name] for record in self.records if name in record.metrics
        ]

    def mean_metric(self, name: str) -> float:
        values = self.metric_values(name)
        return sum(values) / len(values) if values else 0.0

    def max_metric(self, name: str) -> float:
        values = self.metric_values(name)
        return max(values) if values else 0.0


class CaseStudy:
    """Base class for the three case studies."""

    name: str = "case-study"
    paper_section: str = ""
    paper_proof_lines: int = 0  # lines of Coq proof script reported by the paper

    # -- static verification ------------------------------------------------------

    def build_program(self) -> Program:
        raise NotImplementedError

    def acceptability_spec(self, program: Program) -> AcceptabilitySpec:
        raise NotImplementedError

    def verify(self, engine=None) -> AcceptabilityReport:
        """Run the ⊢o and ⊢r verifications for this case study.

        Obligations are discharged through ``engine`` (an
        :class:`~repro.engine.core.ObligationEngine`), or a default engine
        when none is given.
        """
        program = self.build_program()
        spec = self.acceptability_spec(program)
        verifier = AcceptabilityVerifier(engine=engine)
        return verifier.verify(program, spec, study=self.name)

    # -- relaxation-space exploration ----------------------------------------------

    def relaxation_sites(self, program: Program) -> List["RelaxationSite"]:
        """The relaxation sites the explorer may transform for this study.

        The default is syntactic discovery over the program
        (:func:`repro.relaxations.sites.discover_sites`); case studies can
        override to prune or parameterise the space.
        """
        from ..relaxations.sites import discover_sites

        return discover_sites(program)

    def distortion(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Optional[float]:
        """The accuracy loss of one relaxed execution against the original.

        Returns ``None`` when either execution erred (the pair carries no
        accuracy information).  The default is the mean absolute deviation
        over the scalar variables both final states share; case studies
        override this with their domain metric (pivot deviation, results
        dropped, differing array cells).
        """
        if not (isinstance(original, Terminated) and isinstance(relaxed, Terminated)):
            return None
        original_scalars = original.state.scalar_map()
        relaxed_scalars = relaxed.state.scalar_map()
        common = sorted(set(original_scalars) & set(relaxed_scalars))
        if not common:
            return 0.0
        return sum(
            abs(original_scalars[name] - relaxed_scalars[name]) for name in common
        ) / len(common)

    # -- dynamic differential simulation -------------------------------------------

    def workloads(self, count: int, seed: int = 0) -> List[State]:
        """Generate ``count`` initial states for differential simulation."""
        raise NotImplementedError

    def relaxed_chooser(self, seed: int) -> Optional[Chooser]:
        """The nondeterminism strategy modelling the relaxation substrate."""
        return None

    def record_metrics(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Dict[str, float]:
        """Case-study-specific accuracy metrics for one execution pair."""
        return {}

    def simulate(
        self,
        runs: int = 50,
        seed: int = 0,
        chooser_factory: Optional[Callable[[int], Optional[Chooser]]] = None,
    ) -> SimulationSummary:
        """Run the original and relaxed semantics differentially.

        ``chooser_factory`` (seed -> chooser) overrides the case study's
        substrate model, e.g. to stress the relaxation with
        :class:`~repro.semantics.choosers.AdversarialChooser` under an
        explicit seed.
        """
        program = self.build_program()
        gamma = build_gamma(program)
        summary = SimulationSummary()
        factory = chooser_factory or self.relaxed_chooser
        for index, initial in enumerate(self.workloads(runs, seed)):
            original = run_original(program, initial)
            chooser = factory(seed + index)
            relaxed = run_relaxed(program, initial, chooser=chooser)
            relate_ok = True
            if isinstance(original, Terminated) and isinstance(relaxed, Terminated):
                relate_ok = bool(
                    check_compatibility(
                        gamma, original.observations, relaxed.observations
                    )
                )
            summary.records.append(
                SimulationRecord(
                    initial_state=initial,
                    original=original,
                    relaxed=relaxed,
                    relate_satisfied=relate_ok,
                    metrics=self.record_metrics(initial, original, relaxed),
                )
            )
        return summary
