"""Declarative case studies: a study as *data*, not a bespoke class.

The paper's method is generic — write the relaxed program in the paper's
language, state its acceptability property, prove it — so a case study
should be expressible as exactly those parts:

* ``source`` — the relaxed program, written in the paper's surface language
  (``relax``/``assume``/``relate`` plus loop annotations), parsed on demand;
* ``spec`` — a builder mapping the parsed program to its
  :class:`~repro.hoare.verifier.AcceptabilitySpec` (divergence annotations
  anchor to AST nodes through the positional selectors below);
* ``workloads`` — a generator of initial states for differential simulation;
* metric hooks — ``distortion`` (the study's accuracy-loss scalar),
  ``metrics`` (named per-run measurements) and an optional substrate
  ``chooser``.

:class:`StudyDefinition` packages those parts; ``DeclarativeCaseStudy``
adapts a definition to the classic :class:`~repro.casestudies.base.CaseStudy`
interface, so the registry, the batch verifier, the explorer and the
benchmarks treat hand-written and declarative studies identically.

:func:`lint_case_study` is the toolkit's well-formedness gate (surfaced as
``repro casestudy lint``): the program parses (pretty/parse round-trip),
declared variables cover the used ones, every discovered relaxation site
applies, the ⊢o and ⊢r obligations collect without proof-construction
errors, and the workload generator produces states.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from ..hoare.verifier import AcceptabilitySpec, AcceptabilityVerifier
from ..lang.ast import If, Program, Relate, Relax, Stmt, While
from ..lang.analysis import used_vars
from ..lang.parser import parse_program
from ..lang.pretty import pretty_program
from ..semantics.choosers import Chooser
from ..semantics.state import Outcome, State
from .base import CaseStudy

SpecBuilder = Callable[[Program], AcceptabilitySpec]
WorkloadBuilder = Callable[[int, int], List[State]]
ChooserBuilder = Callable[[int], Optional[Chooser]]
DistortionHook = Callable[[State, Outcome, Outcome], Optional[float]]
MetricsHook = Callable[[State, Outcome, Outcome], Dict[str, float]]


# ---------------------------------------------------------------------------
# Positional AST selectors (divergence-spec anchors for parsed programs)
# ---------------------------------------------------------------------------


def nth_statement(program: Program, cls: Type[Stmt], index: int = 0) -> Stmt:
    """The ``index``-th statement of class ``cls`` in syntactic pre-order.

    Spec builders for parsed programs use these selectors to anchor
    :class:`~repro.hoare.relational.DivergenceSpec` annotations — the
    declarative analogue of the hand-written studies stashing AST nodes in
    ``self`` while building the program.
    """
    nodes = [node for node in program.body.walk() if isinstance(node, cls)]
    if index >= len(nodes):
        raise IndexError(
            f"program {program.name!r} has {len(nodes)} {cls.__name__} "
            f"statements; selector asked for index {index}"
        )
    return nodes[index]


def loop_at(program: Program, index: int = 0) -> While:
    """The ``index``-th ``while`` loop of the program."""
    return nth_statement(program, While, index)  # type: ignore[return-value]


def branch_at(program: Program, index: int = 0) -> If:
    """The ``index``-th ``if`` statement of the program."""
    return nth_statement(program, If, index)  # type: ignore[return-value]


def relax_at(program: Program, index: int = 0) -> Relax:
    """The ``index``-th ``relax`` statement of the program."""
    return nth_statement(program, Relax, index)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Declarative definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyDefinition:
    """One case study described entirely by data + small hook callables."""

    name: str
    source: str
    spec: SpecBuilder
    workloads: WorkloadBuilder
    title: str = ""
    paper_section: str = ""
    paper_proof_lines: int = 0
    chooser: Optional[ChooserBuilder] = None
    distortion: Optional[DistortionHook] = None
    metrics: Optional[MetricsHook] = None

    def parse(self) -> Program:
        """Parse the study's source program."""
        return parse_program(self.source, name=self.name)

    def as_case_study_class(self) -> Type["DeclarativeCaseStudy"]:
        """The CaseStudy subclass adapter for this definition.

        Memoised per definition: registration is keyed by class identity,
        so repeated registration of the same definition must be idempotent
        and ``get_case_study(definition.as_case_study_class())`` must
        resolve to the registered class.
        """
        cached = getattr(self, "_case_study_class", None)
        if cached is None:
            cached = DeclarativeCaseStudy.class_for(self)
            object.__setattr__(self, "_case_study_class", cached)
        return cached


class DeclarativeCaseStudy(CaseStudy):
    """Adapter presenting a :class:`StudyDefinition` as a classic CaseStudy."""

    definition: StudyDefinition

    @classmethod
    def class_for(cls, definition: StudyDefinition) -> Type["DeclarativeCaseStudy"]:
        class_name = (
            re.sub(r"(?:^|[-_])(\w)", lambda m: m.group(1).upper(), definition.name)
            or "DeclarativeStudy"
        )
        return type(
            class_name,
            (cls,),
            {
                "definition": definition,
                "name": definition.name,
                "paper_section": definition.paper_section,
                "paper_proof_lines": definition.paper_proof_lines,
                "__doc__": definition.title or f"Declarative case study {definition.name}",
                "__module__": cls.__module__,
            },
        )

    def __reduce__(self):
        # The adapter class is made at run time, so pickle cannot find it
        # by name; a worker process looks the study up in the registry.
        return (_registered_declarative_study, (self.name,))

    # -- CaseStudy interface, delegated to the definition --------------------------

    def build_program(self) -> Program:
        return self.definition.parse()

    def acceptability_spec(self, program: Program) -> AcceptabilitySpec:
        return self.definition.spec(program)

    def workloads(self, count: int, seed: int = 0) -> List[State]:
        return self.definition.workloads(count, seed)

    def relaxed_chooser(self, seed: int) -> Optional[Chooser]:
        if self.definition.chooser is None:
            return super().relaxed_chooser(seed)
        return self.definition.chooser(seed)

    def distortion(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Optional[float]:
        if self.definition.distortion is None:
            return super().distortion(initial, original, relaxed)
        return self.definition.distortion(initial, original, relaxed)

    def record_metrics(
        self, initial: State, original: Outcome, relaxed: Outcome
    ) -> Dict[str, float]:
        if self.definition.metrics is None:
            return super().record_metrics(initial, original, relaxed)
        return self.definition.metrics(initial, original, relaxed)


def _registered_declarative_study(name: str) -> DeclarativeCaseStudy:
    """The registered declarative study called exactly ``name`` (unpickling)."""
    from .registry import all_case_studies

    for cls in all_case_studies():
        if cls.name == name and issubclass(cls, DeclarativeCaseStudy):
            return cls()
    raise LookupError(f"no registered declarative case study {name!r}")


# ---------------------------------------------------------------------------
# Linting: the well-formedness gate behind ``repro casestudy lint``
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LintFinding:
    """One check outcome; ``level`` is ``error`` or ``warning``."""

    check: str
    level: str
    message: str


@dataclass
class LintReport:
    """Every finding of one study's lint run."""

    study: str
    findings: List[LintFinding] = field(default_factory=list)
    checks_run: int = 0
    obligations: int = 0
    sites: int = 0

    @property
    def ok(self) -> bool:
        return not any(finding.level == "error" for finding in self.findings)

    def error(self, check: str, message: str) -> None:
        self.findings.append(LintFinding(check, "error", message))

    def warn(self, check: str, message: str) -> None:
        self.findings.append(LintFinding(check, "warning", message))

    def as_dict(self) -> Dict[str, object]:
        return {
            "study": self.study,
            "ok": self.ok,
            "checks_run": self.checks_run,
            "obligations": self.obligations,
            "sites": self.sites,
            "findings": [
                {"check": f.check, "level": f.level, "message": f.message}
                for f in self.findings
            ],
        }

    def summary(self) -> str:
        status = "ok" if self.ok else "FAILED"
        lines = [
            f"{self.study}: {status} ({self.checks_run} checks, "
            f"{self.sites} sites, {self.obligations} obligations)"
        ]
        for finding in self.findings:
            lines.append(f"  [{finding.level}] {finding.check}: {finding.message}")
        return "\n".join(lines)


def lint_case_study(study: Union[str, CaseStudy, Type[CaseStudy]]) -> LintReport:
    """Check one study's well-formedness without discharging any obligation.

    Runs, in order: the program builds; its pretty-printed form re-parses to
    the same program (so the study stays expressible in the paper's
    language); declared variables cover the used ones; every discovered
    relaxation site applies cleanly; the ⊢o/⊢r obligations collect with no
    proof-construction errors; and the workload generator produces states.
    Later checks are skipped once the program itself fails to build.
    """
    from .registry import get_case_study

    case = get_case_study(study)
    report = LintReport(study=case.name)

    report.checks_run += 1
    try:
        program = case.build_program()
    except Exception as error:
        report.error("program-builds", f"build_program() raised: {error}")
        return report
    if not isinstance(program, Program):
        report.error("program-builds", f"build_program() returned {type(program)!r}")
        return report

    report.checks_run += 1
    try:
        printed = pretty_program(program)
        reparsed = parse_program(printed, name=program.name)
        if pretty_program(reparsed) != printed:
            report.error(
                "program-parses",
                "pretty-printed program does not round-trip through the parser",
            )
    except Exception as error:
        report.error("program-parses", f"pretty/parse round-trip failed: {error}")

    report.checks_run += 1
    declared = set(program.variables) | set(program.arrays)
    undeclared = sorted(used_vars(program.body) - declared)
    if undeclared:
        report.error(
            "declared-variables",
            f"used but undeclared: {', '.join(undeclared)}",
        )
    elif not program.variables and not program.arrays:
        report.warn("declared-variables", "program declares no variables")

    report.checks_run += 1
    try:
        from ..relaxations.sites import apply_site

        sites = case.relaxation_sites(program)
        report.sites = len(sites)
        for site in sites:
            result = apply_site(program, site)
            if not isinstance(result.program, Program):
                report.error(
                    "relaxation-sites",
                    f"site {site.site_id} produced {type(result.program)!r}",
                )
    except Exception as error:
        report.error("relaxation-sites", f"site discovery/application failed: {error}")

    report.checks_run += 1
    try:
        spec = case.acceptability_spec(program)
        collected = AcceptabilityVerifier().collect(program, spec)
        for layer_name, collector in (
            ("original", collected.original),
            ("relaxed", collected.relaxed),
        ):
            for message in collector.errors:
                report.error(
                    "obligations-collect", f"{layer_name} layer: {message}"
                )
        report.obligations = len(collected.original.obligations) + len(
            collected.relaxed.obligations
        )
        if report.obligations == 0:
            report.error("obligations-collect", "no proof obligations collected")
    except Exception as error:
        report.error("obligations-collect", f"collection raised: {error}")

    report.checks_run += 1
    try:
        states = case.workloads(2, seed=0)
        if not states:
            report.error("workloads", "workload generator produced no states")
        elif not all(isinstance(state, State) for state in states):
            report.error("workloads", "workload generator produced non-State items")
    except Exception as error:
        report.error("workloads", f"workload generation raised: {error}")

    report.checks_run += 1
    if not any(isinstance(node, Relate) for node in program.body.walk()):
        report.warn(
            "relate-present",
            "program has no relate statement; the relational proof only "
            "establishes progress, not an acceptability property",
        )

    return report


def lint_registry(
    names: Optional[Sequence[str]] = None,
) -> List[LintReport]:
    """Lint the named studies (default: every registered study)."""
    from .registry import all_case_studies, get_case_study

    if names:
        return [lint_case_study(get_case_study(name)) for name in names]
    return [lint_case_study(cls()) for cls in all_case_studies()]
