"""The one case-study type: a relaxed program in the paper's language, plus hooks.

The paper's method is generic — write the relaxed program in its own
language, state the acceptability property, prove it — so a
:class:`CaseStudy` is exactly those parts:

* ``source`` — the relaxed program in the paper's surface language
  (``relax``/``assume``/``relate``), with every annotation its
  verification needs: the header clauses (``shared`` arrays, unary and
  relational pre/postconditions), loop invariants and relational
  invariants, and ``diverge`` annotations.  It is parsed on demand, and
  its :class:`~repro.hoare.verifier.AcceptabilitySpec` is read from the
  parsed program (:meth:`~repro.hoare.verifier.AcceptabilitySpec.of`);
* ``workloads_hook`` — a generator of initial states for differential
  simulation;
* optional ``chooser_hook`` (the substrate's nondeterminism strategy),
  ``distortion_hook`` (the study's accuracy-loss scalar) and
  ``metrics_hook`` (named per-run measurements).

Every hook is a module-level function or a :func:`functools.partial` of
one, so a study pickles by value into the explorer's worker processes.

The differential simulation (:meth:`CaseStudy.simulate`) runs the original
and relaxed semantics side by side on the generated workloads, checks the
``relate`` statements on the observed observation lists and collects
accuracy statistics; it is how the tier-1 tests check the paper's
qualitative claims and the accuracy-envelope figures.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..hoare.verifier import AcceptabilityReport, AcceptabilitySpec, AcceptabilityVerifier
from ..lang.analysis import gamma as build_gamma
from ..lang.ast import Program
from ..lang.parser import parse_program
from ..semantics.choosers import Chooser, make_chooser
from ..semantics.interpreter import run_original, run_relaxed
from ..semantics.observation import check_compatibility
from ..semantics.state import Outcome, State, Terminated, is_error

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..relaxations.sites import RelaxationSite

WorkloadsHook = Callable[[int, int], List[State]]
ChooserHook = Callable[[int], Optional[Chooser]]
DistortionHook = Callable[[State, Outcome, Outcome], Optional[float]]
MetricsHook = Callable[[State, Outcome, Outcome], Dict[str, float]]

_HOOKS = ("workloads_hook", "chooser_hook", "distortion_hook", "metrics_hook")


def random_chooser(seed: int) -> Chooser:
    """The seeded uniform-random chooser, for studies without a substrate model."""
    return make_chooser("random", seed=seed)


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


def _is_module_level(hook: Callable) -> bool:
    while isinstance(hook, functools.partial):
        hook = hook.func
    qualname = getattr(hook, "__qualname__", "")
    return bool(qualname) and "<" not in qualname


@dataclass(frozen=True)
class CaseStudy:
    """One case study, described entirely by its source program and hooks."""

    name: str
    source: str
    workloads_hook: WorkloadsHook
    paper_section: str = ""
    paper_proof_lines: int = 0  # lines of Coq proof script reported by the paper
    chooser_hook: Optional[ChooserHook] = None
    distortion_hook: Optional[DistortionHook] = None
    metrics_hook: Optional[MetricsHook] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a case study needs a distinctive 'name'")
        for hook_name in _HOOKS:
            hook = getattr(self, hook_name)
            if hook is not None and not _is_module_level(hook):
                raise TypeError(
                    f"case study {self.name!r}: {hook_name} must be a module-level "
                    f"function or a functools.partial of one, not {hook!r}"
                )

    # -- static verification ------------------------------------------------------

    def build_program(self) -> Program:
        """Parse the study's source program."""
        return parse_program(self.source, name=self.name)

    def acceptability_spec(self, program: Program) -> AcceptabilitySpec:
        """The spec ``program`` (the study's or a relaxed candidate) states."""
        return AcceptabilitySpec.of(program)

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

        This is syntactic discovery over the program
        (:func:`repro.relaxations.sites.discover_sites`).
        """
        from ..relaxations.sites import discover_sites

        return discover_sites(program)

    def distortion(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Optional[float]:
        """The accuracy loss of one relaxed execution against the original.

        Returns ``None`` when either execution erred (the pair carries no
        accuracy information).  A study's ``distortion_hook`` supplies its
        domain metric (pivot deviation, results dropped, differing array
        cells); the default is the mean absolute deviation over the scalar
        variables both final states share.
        """
        if self.distortion_hook is not None:
            return self.distortion_hook(initial, original, relaxed)
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
        return self.workloads_hook(count, seed)

    def relaxed_chooser(self, seed: int) -> Optional[Chooser]:
        """The nondeterminism strategy modelling the relaxation substrate."""
        return None if self.chooser_hook is None else self.chooser_hook(seed)

    def record_metrics(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Dict[str, float]:
        """Case-study-specific accuracy metrics for one execution pair."""
        if self.metrics_hook is None:
            return {}
        return self.metrics_hook(initial, original, relaxed)

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
