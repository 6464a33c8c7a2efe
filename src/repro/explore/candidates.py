"""Candidate enumeration: the relaxation space induced by one program.

One original program induces a *space* of relaxed programs — every
combination of the mechanisms in :mod:`repro.relaxations.transforms`
applied at the sites :mod:`repro.relaxations.sites` discovers.  This module
walks that space breadth-first up to a composition depth: depth 0 is the
baseline program itself, depth 1 applies one site, depth ``d`` applies a
site to every depth ``d-1`` candidate (sites are re-discovered on each
transformed program, so compositions chain naturally — e.g. restrict the
approximate-read envelope of an already perforated loop).

Structurally identical candidates reached along different paths are
deduplicated by a *program fingerprint* — a hash of the pretty-printed
body plus declarations, independent of the candidate's display name — so
the downstream verification wave never proves the same program twice.

:class:`CandidateSpace` is the incremental form of the walk: it expands
one generation at a time from whatever parent set the caller supplies,
which is what lets the explorer's frontier scheduler choose *which*
parents to expand (beam search) while sharing the dedup/cap/inapplicable
accounting with the exhaustive path.  :func:`enumerate_candidates` is the
one-shot wrapper over it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, List, Sequence, Set, Tuple

from ..lang.ast import Program
from ..lang.pretty import pretty_stmt
from ..lang.source import ensure_source
from ..relaxations.sites import RelaxationSite, apply_site

#: A function yielding the applicable sites of a program (typically the
#: case study's :meth:`~repro.casestudies.base.CaseStudy.relaxation_sites`).
SiteProvider = Callable[[Program], Sequence[RelaxationSite]]


def program_fingerprint(program: Program) -> str:
    """A stable identity for a candidate program, independent of its name.

    Two candidates with the same fingerprint have the same body and
    declarations, hence identical semantics and identical proof
    obligations.
    """
    digest = hashlib.sha256()
    digest.update(pretty_stmt(program.body).encode("utf-8"))
    digest.update(("\x00vars:" + ",".join(sorted(program.variables))).encode("utf-8"))
    digest.update(("\x00arrays:" + ",".join(sorted(program.arrays))).encode("utf-8"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class Candidate:
    """One point of the relaxation space."""

    name: str
    program: Program
    fingerprint: str
    depth: int
    applied: Tuple[RelaxationSite, ...] = ()
    #: The fingerprint of the candidate this one was derived from by a
    #: single site application ("" for the baseline) — the parent link the
    #: incremental gate diffs obligation sets along.
    parent_fingerprint: str = ""

    @property
    def site_ids(self) -> Tuple[str, ...]:
        return tuple(site.site_id for site in self.applied)

    def describe(self) -> str:
        if not self.applied:
            return "baseline (no additional relaxation applied)"
        return "; ".join(site.description for site in self.applied)


@dataclass
class Enumeration:
    """The outcome of one candidate enumeration."""

    candidates: List[Candidate]
    #: Sites that could not be applied (stale anchors after composition).
    inapplicable: int = 0
    #: Distinct site applications skipped because the ``max_candidates``
    #: cap was reached: each skipped (parent, site) pair counts exactly
    #: once, at the first generation where the cap bit (deeper generations
    #: that were never expanded are a consequence of the cap, not
    #: additional distinct skips).  Reported, never silently dropped.
    capped: int = 0
    #: Structurally duplicate candidates folded by fingerprint.
    duplicates: int = 0


class CandidateSpace:
    """The relaxation space of one program, expanded a generation at a time.

    The space owns the global dedup set, the candidate cap, and the
    inapplicable/duplicate/capped accounting; callers decide *which*
    parents to expand each generation (all of them for exhaustive
    breadth-first search, a scheduler-chosen subset for beam search).
    Expansion order is deterministic: parents in the order given, each
    parent's sites in discovery order.
    """

    def __init__(
        self,
        program: Program,
        site_provider: SiteProvider,
        max_candidates: int = 48,
    ) -> None:
        if max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        self.program = program
        self.site_provider = site_provider
        self.max_candidates = max_candidates
        self.baseline = Candidate(
            name=program.name,
            program=program,
            fingerprint=program_fingerprint(program),
            depth=0,
        )
        self.total = 1  # candidates admitted, baseline included
        self.inapplicable = 0
        self.duplicates = 0
        #: Distinct (parent fingerprint, site id) applications skipped by
        #: the cap — a set, so one skipped application never counts twice.
        self._skipped: Set[Tuple[str, str]] = set()
        self._seen: Set[str] = {self.baseline.fingerprint}
        self._cap_hit = False

    @property
    def capped(self) -> int:
        return len(self._skipped)

    @property
    def exhausted(self) -> bool:
        """True once the cap bit: deeper generations are not expanded."""
        return self._cap_hit

    def expand(self, parents: Sequence[Candidate], level: int) -> List[Candidate]:
        """One generation: apply every discoverable site to each parent.

        Returns the admitted children (deduplicated against everything the
        space has seen).  Once the cap bites, the remainder of the current
        generation is counted into :attr:`capped` as distinct skipped
        applications and later calls return ``[]`` without counting —
        generations that never started are a consequence of the cap, not
        additional skips.
        """
        if self._cap_hit:
            return []
        children: List[Candidate] = []
        for parent in parents:
            for site in self.site_provider(parent.program):
                if self.total >= self.max_candidates:
                    self._skipped.add((parent.fingerprint, site.site_id))
                    continue
                try:
                    result = apply_site(parent.program, site)
                except ValueError:
                    self.inapplicable += 1
                    continue
                fingerprint = program_fingerprint(result.program)
                if fingerprint in self._seen:
                    self.duplicates += 1
                    continue
                self._seen.add(fingerprint)
                name = (
                    f"{self.program.name}"
                    f"+{'+'.join(parent.site_ids + (site.site_id,))}"
                )
                # Printed once here, under its own name, rather than by
                # every collect of the candidate.
                candidate = Candidate(
                    name=name,
                    program=ensure_source(dc_replace(result.program, name=name)),
                    fingerprint=fingerprint,
                    depth=level,
                    applied=parent.applied + (site,),
                    parent_fingerprint=parent.fingerprint,
                )
                children.append(candidate)
                self.total += 1
        if self._skipped:
            self._cap_hit = True
        return children


def enumerate_candidates(
    program: Program,
    site_provider: SiteProvider,
    depth: int = 1,
    max_candidates: int = 48,
) -> Enumeration:
    """Enumerate the relaxation space of ``program`` up to ``depth``.

    Breadth-first over site applications with fingerprint dedup; the
    baseline program is always candidate 0.  ``max_candidates`` bounds the
    total; the cap count is reported in the result so truncation is never
    silent, counting each distinct skipped (parent, site) application once
    (see :class:`Enumeration`).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    space = CandidateSpace(program, site_provider, max_candidates=max_candidates)
    enumeration = Enumeration(candidates=[space.baseline])
    frontier: List[Candidate] = [space.baseline]
    for level in range(1, depth + 1):
        frontier = space.expand(frontier, level)
        if not frontier:
            break
        enumeration.candidates.extend(frontier)
    enumeration.inapplicable = space.inapplicable
    enumeration.capped = space.capped
    enumeration.duplicates = space.duplicates
    return enumeration
