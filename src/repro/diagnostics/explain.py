"""The ``repro explain`` driver: replay a failing relaxation and explain it.

Three entry points, all built on :mod:`repro.diagnostics.report`:

* :func:`explain_case_study` — apply named relaxation sites to a registered
  case study, verify the transformed program (optionally through an engine,
  so ``--cache-dir`` replays answered obligations with zero solver calls),
  and diagnose every undischarged obligation;
* :func:`explain_from_payload` — replay the ``diagnostics`` section of a
  ``--json`` report envelope (written by ``--explain``) without re-running
  the solver at all;
* :func:`batch_diagnostics` / :func:`report_diagnostics` — full
  diagnostics for ``verify-batch --explain`` / ``verify-case-study
  --explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..casestudies import resolve_case_study
from ..hoare.obligations import discharge
from ..hoare.verifier import AcceptabilityReport, AcceptabilityVerifier
from ..relaxations.sites import apply_site
from .report import FailureDiagnostic, diagnose_report, render_diagnostics


@dataclass
class ExplainReport:
    """The structured outcome of one ``repro explain`` invocation."""

    study: str
    program: str
    sites: Tuple[str, ...] = ()
    verified: bool = False
    diagnostics: List[FailureDiagnostic] = field(default_factory=list)
    replayed: bool = False  # True when rebuilt from a --json envelope

    def as_dict(self) -> Dict[str, object]:
        return {
            "study": self.study,
            "program": self.program,
            "sites": list(self.sites),
            "verified": self.verified,
            "replayed": self.replayed,
            "diagnostics": [diag.as_dict() for diag in self.diagnostics],
        }

    def render(self) -> str:
        header = [f"=== failure forensics: {self.program or self.study} ==="]
        if self.study and self.study != self.program:
            header.append(f"case study : {self.study}")
        if self.sites:
            header.append(f"applied sites : {', '.join(self.sites)}")
        if self.replayed:
            header.append("(replayed from a recorded report envelope)")
        if self.verified:
            header.append("verdict    : VERIFIED — no failures to explain")
            return "\n".join(header)
        header.append(
            f"verdict    : NOT VERIFIED — {len(self.diagnostics)} "
            f"undischarged obligation(s)"
        )
        return "\n".join(header) + "\n\n" + render_diagnostics(self.diagnostics)


def explain_case_study(
    name: str,
    site_ids: Sequence[str] = (),
    engine=None,
) -> ExplainReport:
    """Apply ``site_ids`` to a case study, verify, and diagnose failures.

    Sites are applied in order, re-discovering the site space after each
    transformation (exactly as the explorer composes them); an identifier
    that does not resolve raises :class:`ValueError` listing the sites that
    are currently applicable.  When ``engine`` carries a persistent cache,
    previously answered obligations replay from disk with no solver calls —
    including their stored counterexample models.
    """
    case = resolve_case_study(name)
    program = case.build_program()
    applied: List[str] = []
    for site_id in site_ids:
        available = {site.site_id: site for site in case.relaxation_sites(program)}
        if site_id not in available:
            raise ValueError(
                f"unknown relaxation site {site_id!r} for case study "
                f"{case.name!r} (after applying {applied or 'no sites'}); "
                f"applicable sites: {', '.join(sorted(available)) or 'none'}"
            )
        program = apply_site(program, available[site_id]).program
        applied.append(site_id)

    spec = case.acceptability_spec(program)
    verifier = AcceptabilityVerifier(engine=engine)
    bundle = verifier.collect(program, spec, study=case.name, sites=tuple(applied))
    original = discharge(bundle.original, bundle.program_name, engine=engine)
    relaxed = discharge(bundle.relaxed, bundle.program_name, engine=engine)
    report = AcceptabilityReport(
        program_name=bundle.program_name, original=original, relaxed=relaxed
    )
    return ExplainReport(
        study=case.name,
        program=bundle.program_name,
        sites=tuple(applied),
        verified=report.verified,
        diagnostics=diagnose_report(report, program=bundle.program),
    )


def explain_from_payload(payload: Dict[str, object]) -> ExplainReport:
    """Rebuild an :class:`ExplainReport` from a recorded ``--json`` envelope.

    Accepts any payload carrying a ``diagnostics`` section (``explain
    --json``, ``verify-batch --explain --json``, ``verify-case-study
    --explain --json``); the diagnostics round-trip losslessly, so the
    rendered report is identical to the original run's — no solver needed.
    """
    if not isinstance(payload, dict):
        raise ValueError("report envelope must be a JSON object")
    section = payload.get("diagnostics")
    if section is None:
        raise ValueError(
            "report envelope has no 'diagnostics' section; re-run the "
            "producing command with --explain (or use 'repro explain')"
        )
    if not isinstance(section, list):
        raise ValueError("'diagnostics' section must be a list")
    diagnostics = [FailureDiagnostic.from_dict(entry) for entry in section]
    study = str(payload.get("study") or payload.get("name") or "")
    program = str(payload.get("program") or study)
    sites = tuple(str(site) for site in payload.get("sites", ()) or ())
    return ExplainReport(
        study=study,
        program=program,
        sites=sites,
        verified=bool(payload.get("verified", not diagnostics)),
        diagnostics=diagnostics,
        replayed=True,
    )


def report_diagnostics(report, program=None) -> List[FailureDiagnostic]:
    """Diagnostics for one acceptability (or single-layer) report."""
    return diagnose_report(report, program=program)


def batch_diagnostics(batch_report) -> List[FailureDiagnostic]:
    """Diagnostics for every failed program of a ``verify-batch`` report."""
    diagnostics: List[FailureDiagnostic] = []
    for result in batch_report.programs:
        if result.report is None or result.verified:
            continue
        diagnostics.extend(
            diagnose_report(result.report, program=result.program)
        )
    return diagnostics


def diagnostics_section(
    diagnostics: Sequence[FailureDiagnostic],
) -> List[Dict[str, object]]:
    """The JSON shape of the envelope's ``diagnostics`` section."""
    return [diag.as_dict() for diag in diagnostics]
