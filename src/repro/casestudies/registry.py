"""The case-study registry: every study, by name.

The CLI, the batch verifier, the explorer and the benchmark all resolve
studies through this module, so adding a study means writing one module
that registers a :class:`~repro.casestudies.base.CaseStudy`, not editing
a tuple threaded through every consumer:

* :func:`register_case_study` adds a study under its ``name`` and rejects
  a different study under a taken name loudly
  (:class:`DuplicateCaseStudyError`) — two studies silently shadowing each
  other would corrupt every downstream report.
* :func:`all_case_studies` / :func:`case_study_names` — the registered
  studies / names in registration order (module import order).
* :func:`get_case_study` resolves an instance, a registered name or a
  unique name prefix (so ``repro explore lu`` works).  Unknown references
  raise :class:`UnknownCaseStudyError`, whose message lists every
  registered study.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from .base import CaseStudy


class DuplicateCaseStudyError(ValueError):
    """Raised when two case studies register under the same name."""


class UnknownCaseStudyError(ValueError):
    """Raised when a case-study reference does not resolve; the message
    lists every registered study so the caller can self-correct."""


_REGISTRY: Dict[str, CaseStudy] = {}


def register_case_study(study: CaseStudy) -> CaseStudy:
    """Add ``study`` to the registry and return the registered study.

    Registering a study equal to the registered one is a no-op.
    """
    if not isinstance(study, CaseStudy):
        raise TypeError(f"register_case_study expects a CaseStudy, not {study!r}")
    registered = _REGISTRY.setdefault(study.name, study)
    if registered != study:
        raise DuplicateCaseStudyError(
            f"case study name {study.name!r} is already registered"
        )
    return registered


def unregister_case_study(name: str) -> None:
    """Remove a study from the registry (tests and examples)."""
    _REGISTRY.pop(name, None)


def all_case_studies() -> Tuple[CaseStudy, ...]:
    """Every registered case study, in registration order."""
    return tuple(_REGISTRY.values())


def case_study_names() -> Tuple[str, ...]:
    """The registered study names, in registration order."""
    return tuple(_REGISTRY)


def get_case_study(reference: Union[str, CaseStudy]) -> CaseStudy:
    """Resolve ``reference`` to a case study.

    Accepts an instance (returned as is), a registered name, or a unique
    prefix of a registered name (so ``get_case_study('lu')`` finds
    ``lu-approximate-memory``).
    """
    if isinstance(reference, CaseStudy):
        return reference
    if isinstance(reference, str):
        exact = _REGISTRY.get(reference)
        if exact is not None:
            return exact
        matches = [study for name, study in _REGISTRY.items() if name.startswith(reference)]
        if len(matches) == 1:
            return matches[0]
    names = ", ".join(_REGISTRY) or "<none registered>"
    raise UnknownCaseStudyError(
        f"unknown case study {reference!r}; registered studies: {names}"
    )
