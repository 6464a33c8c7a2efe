"""The well-formedness gate for case studies.

:func:`lint_case_study` is the toolkit's well-formedness gate (surfaced as
``repro casestudy lint``): the program parses (its printed text parses
back to it, header clauses and annotations included, with the spans the
printer attached), declared variables cover the used ones, every
discovered relaxation site applies, the ⊢o and ⊢r obligations collect
without proof-construction errors, every ``diverge`` annotation is used by
the diverge rule, and the workload generator produces states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..hoare.verifier import AcceptabilityVerifier
from ..lang.ast import If, Program, Relate, While
from ..lang.analysis import used_vars
from ..lang.parser import parse_program
from ..lang.pretty import print_with_spans
from ..semantics.state import State
from .base import CaseStudy


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


def _round_trip_problem(program: Program) -> Optional[str]:
    """Why ``program``'s printed text does not parse back to it, or ``None``.

    The verify path takes source spans from
    :func:`~repro.lang.pretty.print_with_spans` without parsing, so this
    check is where the printer's output meets the parser: the printed text
    must parse to the printed program (the input up to Seq association,
    declarations, header clauses and annotations included) and every node
    must get the same span from both.
    """
    printed = print_with_spans(program)
    reparsed = parse_program(printed.source, name=program.name)
    if reparsed != printed:
        return "pretty-printed program does not round-trip through the parser"
    for parsed_node, printed_node in zip(reparsed.body.walk(), printed.body.walk()):
        if parsed_node.span != printed_node.span:
            return (
                f"printer span {printed_node.span} differs from parsed span "
                f"{parsed_node.span} at {parsed_node}"
            )
    return None


def lint_case_study(study: Union[str, CaseStudy]) -> LintReport:
    """Check one study's well-formedness without discharging any obligation.

    Runs, in order: the program builds; its pretty-printed form re-parses to
    the same program with the printer's spans (so the study stays
    expressible in the paper's language, and the verify path's printed
    spans stay exact); declared variables cover the used ones; every discovered
    relaxation site applies cleanly; the ⊢o/⊢r obligations collect with no
    proof-construction errors; every ``diverge`` annotation sits on a
    statement the ⊢r proof verifies with the diverge rule; and the
    workload generator produces states.
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
        problem = _round_trip_problem(program)
        if problem is not None:
            report.error("program-parses", problem)
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
        report.obligations = len(collected.obligations)
        if report.obligations == 0:
            report.error("obligations-collect", "no proof obligations collected")
    except Exception as error:
        report.error("obligations-collect", f"collection raised: {error}")
        collected = None

    report.checks_run += 1
    if collected is not None:
        diverged = {id(node) for node in collected.diverged}
        for node in collected.program.body.walk():
            if isinstance(node, (If, While)) and node.diverge is not None:
                if id(node) not in diverged:
                    where = node.span.describe() if node.span else "unknown location"
                    report.error(
                        "diverge-used",
                        f"the diverge annotation at {where} is unused: the "
                        "relational proof does not take the diverge rule there",
                    )

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
    from .registry import all_case_studies

    return [lint_case_study(study) for study in names or all_case_studies()]
