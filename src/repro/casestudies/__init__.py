"""The verified case-study corpus.

Every study is one :class:`~repro.casestudies.base.CaseStudy`: a relaxed
program written in the paper's language (``SOURCE``), plus module-level
hooks for its acceptability spec, its workloads and its substrate model.
The paper's Section 5 studies:

* ``swish-dynamic-knobs`` (:mod:`~repro.casestudies.swish`) — Swish++
  dynamic knobs (Section 5.1; relational accuracy property across a
  divergent loop),
* ``water-parallelization`` (:mod:`~repro.casestudies.water`) —
  lock-elided parallel Water (Section 5.2; integrity assumption preserved
  under an unconstrained array relaxation),
* ``lu-approximate-memory`` (:mod:`~repro.casestudies.lu`) — SciMark2 LU
  pivot selection over approximate memory (Section 5.3; Lipschitz-style
  accuracy bound as a relational loop invariant).

Four further workloads:

* ``sum-reduction-perforation`` — a reduction kernel whose relaxed
  execution may drop contributions, with an additive distortion budget,
* ``bnb-early-exit`` — branch-and-bound search whose scan cutoff is a
  dynamic knob (early exit), proved via the diverge rule,
* ``stencil-approx-memory`` — a three-tap stencil over approximate memory
  with *per-cell* error envelopes and an in-loop per-cell relate,
* ``pipeline-two-knobs`` — a two-stage pipeline whose two knobs are
  relaxed *jointly* under a shared drop budget.

Each study module registers its study with
:func:`~repro.casestudies.registry.register_case_study`; the CLI, batch
verifier, explorer and benchmark resolve studies exclusively through
:func:`all_case_studies` / :func:`get_case_study`.  Each study exposes
static verification (``verify``) and dynamic differential simulation
(``simulate``) against its substrate.
"""

from . import base, registry, spec
from .base import CaseStudy, SimulationRecord, SimulationSummary, random_chooser
from .registry import (
    DuplicateCaseStudyError,
    UnknownCaseStudyError,
    all_case_studies,
    case_study_names,
    get_case_study,
    register_case_study,
    unregister_case_study,
)
from .spec import LintFinding, LintReport, lint_case_study, lint_registry

# Importing the study modules registers them; registration order is the
# corpus order everywhere (reports, the benchmark, the CLI).
from . import swish, water, lu  # noqa: E402
from . import sumredux, bnb, stencil, pipeline  # noqa: E402

#: Alias kept for the pre-registry API; prefer :func:`get_case_study`.
resolve_case_study = get_case_study


__all__ = [
    "base",
    "registry",
    "spec",
    "lu",
    "swish",
    "water",
    "bnb",
    "pipeline",
    "stencil",
    "sumredux",
    "CaseStudy",
    "SimulationRecord",
    "SimulationSummary",
    "LintFinding",
    "LintReport",
    "DuplicateCaseStudyError",
    "UnknownCaseStudyError",
    "all_case_studies",
    "case_study_names",
    "get_case_study",
    "random_chooser",
    "register_case_study",
    "unregister_case_study",
    "resolve_case_study",
    "lint_case_study",
    "lint_registry",
]
