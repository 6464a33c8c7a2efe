"""Failure forensics: source-anchored diagnostics for failed obligations.

This package turns an undischarged proof obligation into an explanation a
developer can act on: the counterexample model printed as concrete variable
assignments, evaluated atom-by-atom against the violated formula, anchored
to an annotated excerpt of the offending source statement, and attributed
to the relaxation site(s) that produced the program under verification.

Entry points
------------
* :func:`attribute_result` / :func:`attribute_report` — the attribution
  stage: which rule failed, where, on which sites, under which model
  (provenance plus the solver's model, no re-check; the explorer's
  per-candidate ``failures``);
* :func:`diagnose_result` / :func:`diagnose_report` — the full
  :class:`FailureDiagnostic`: attribution plus source excerpt, atom table
  and mechanical re-check (``repro explain``, ``--explain``);
* :func:`render_diagnostics` — the human-readable forensic report;
* :func:`reevaluate` — mechanically re-check that the counterexample
  falsifies the obligation formula;
* :mod:`repro.diagnostics.explain` — the ``repro explain`` driver
  (seeded failing relaxations, envelope replay).
"""

from .explain import (
    ExplainReport,
    batch_diagnostics,
    diagnostics_section,
    explain_case_study,
    explain_from_payload,
)
from .report import (
    AtomEvaluation,
    FailureDiagnostic,
    attribute_report,
    attribute_result,
    diagnose_report,
    diagnose_result,
    reevaluate,
    render_diagnostics,
    source_excerpt,
)

__all__ = [
    "AtomEvaluation",
    "ExplainReport",
    "FailureDiagnostic",
    "attribute_report",
    "attribute_result",
    "batch_diagnostics",
    "diagnose_report",
    "diagnose_result",
    "diagnostics_section",
    "explain_case_study",
    "explain_from_payload",
    "reevaluate",
    "render_diagnostics",
    "source_excerpt",
]
