"""Relaxation-site discovery: where can a program be relaxed (further)?

The explorer (:mod:`repro.explore`) needs a uniform answer to "which
transformations from :mod:`repro.relaxations.transforms` apply to this
program, and with which parameters?".  A :class:`RelaxationSite` is one
such concrete, parameterised opportunity — e.g. *perforate the loop over*
``i`` *with stride up to 4*, or *restrict the relax on* ``a`` *to a ±1
envelope* — and :func:`apply_site` turns a site into the transformed
program.

Three site kinds are discovered syntactically:

``perforate-loop``
    A ``while`` loop whose body contains the canonical counter increment
    ``c = c + 1`` for a counter read by the loop condition.  Perforation
    widens the space *outward*: the relaxed program may skip iterations.

``restrict-relax``
    An existing ``relax (t) st (P)`` whose predicate relates the single
    scalar target ``t`` to a reference variable (typically the saved
    ``original_t``).  Restriction walks *inward*: the predicate is
    strengthened to ``P && |t - ref| <= delta``, which provably preserves
    any acceptability proof of the wider program (the relaxed-side
    obligations universally quantify over the predicate).

``dynamic-knob``
    A scalar variable read by some loop condition but never written by the
    program — a configuration knob in the Dynamic Knobs sense; the relaxed
    program may lower it to a floor.

Sites are plain frozen data (no callables), so candidate programs can be
fingerprinted, deduplicated and reported stably across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..lang import builder as b
from ..lang.analysis import bool_vars, modified_vars
from ..lang.ast import Assign, Havoc, Program, Relax, Stmt, While
from .transforms import (
    RelaxationResult,
    dynamic_knob,
    perforate_loop,
    restrict_relax,
)

#: The site kinds :func:`discover_sites` can produce.
SITE_KINDS = ("perforate-loop", "restrict-relax", "dynamic-knob")


@dataclass(frozen=True)
class RelaxationSite:
    """One concrete, parameterised transformation opportunity.

    ``node`` anchors the site to the statement it rewrites (the loop for
    perforation, the relax statement for restriction); AST nodes are frozen
    dataclasses, so sites are hashable and structurally comparable.
    """

    kind: str
    site_id: str
    description: str = ""
    node: Optional[Stmt] = None
    names: Tuple[str, ...] = ()
    params: Tuple[Tuple[str, int], ...] = ()

    def param(self, name: str, default: Optional[int] = None) -> Optional[int]:
        for key, value in self.params:
            if key == name:
                return value
        return default


def _loop_counters(loop: While) -> List[str]:
    """Counters incremented as ``c = c + 1`` inside ``loop`` and read by its
    condition — the shape :func:`perforate_loop` knows how to perforate."""
    condition_vars = bool_vars(loop.condition)
    counters = []
    for node in loop.body.walk():
        if (
            isinstance(node, Assign)
            and node.value == b.add(node.target, 1)
            and node.target in condition_vars
            and node.target not in counters
        ):
            counters.append(node.target)
    return counters


def _restrict_reference(relax: Relax, program: Program) -> Optional[str]:
    """The reference variable a restriction envelope is centred on."""
    if len(relax.targets) != 1:
        return None
    target = relax.targets[0]
    if target in program.arrays:
        return None
    predicate_vars = bool_vars(relax.predicate) - {target} - set(program.arrays)
    if f"original_{target}" in predicate_vars:
        return f"original_{target}"
    for name in sorted(predicate_vars):
        return name
    return None


def discover_sites(
    program: Program,
    perforation_strides: Sequence[int] = (2, 4),
    restrict_deltas: Sequence[int] = (0, 1, 2),
    knob_floors: Sequence[int] = (1,),
) -> List[RelaxationSite]:
    """Discover every applicable relaxation site of ``program``.

    Sites are returned in deterministic syntactic order; the ``site_id``
    embeds the anchor position and the parameter values, so two sites with
    the same id denote the same transformation.
    """
    sites: List[RelaxationSite] = []

    loops = [node for node in program.body.walk() if isinstance(node, While)]
    for loop_index, loop in enumerate(loops):
        for counter in _loop_counters(loop):
            for stride in perforation_strides:
                sites.append(
                    RelaxationSite(
                        kind="perforate-loop",
                        site_id=f"perforate:{counter}@L{loop_index}:s{stride}",
                        description=(
                            f"perforate the loop over {counter!r} "
                            f"(stride up to {stride})"
                        ),
                        node=loop,
                        names=(counter,),
                        params=(("max_stride", stride),),
                    )
                )

    relaxes = [node for node in program.body.walk() if isinstance(node, Relax)]
    for relax_index, relax in enumerate(relaxes):
        reference = _restrict_reference(relax, program)
        if reference is None:
            continue
        target = relax.targets[0]
        for delta in restrict_deltas:
            sites.append(
                RelaxationSite(
                    kind="restrict-relax",
                    site_id=f"restrict:{target}@R{relax_index}:d{delta}",
                    description=(
                        f"restrict relax on {target!r} to the "
                        f"±{delta} envelope around {reference!r}"
                    ),
                    node=relax,
                    names=(target, reference),
                    params=(("delta", delta),),
                )
            )

    written = modified_vars(program.body)
    relaxed_targets = {
        name
        for node in program.body.walk()
        if isinstance(node, (Relax, Havoc))
        for name in node.targets
    }
    knob_candidates: List[str] = []
    for loop in loops:
        for name in sorted(bool_vars(loop.condition)):
            if (
                name not in written
                and name not in relaxed_targets
                and name not in program.arrays
                and name not in knob_candidates
            ):
                knob_candidates.append(name)
    for name in knob_candidates:
        for floor in knob_floors:
            sites.append(
                RelaxationSite(
                    kind="dynamic-knob",
                    site_id=f"knob:{name}:f{floor}",
                    description=f"dynamic knob on {name!r} with floor {floor}",
                    names=(name,),
                    params=(("floor", floor),),
                )
            )

    return sites


def apply_site(program: Program, site: RelaxationSite) -> RelaxationResult:
    """Apply one discovered site to ``program``.

    Raises :class:`ValueError` for sites whose anchor no longer occurs in
    the program (e.g. a stale site applied after another transformation
    rewrote the same statement).
    """
    if site.kind == "perforate-loop":
        if not isinstance(site.node, While):
            raise ValueError(f"perforation site {site.site_id} has no loop anchor")
        counter = site.names[0]
        return perforate_loop(
            program,
            site.node,
            counter=counter,
            perforation_stride_var=f"{counter}_stride",
            max_stride=site.param("max_stride", 4),
        )
    if site.kind == "restrict-relax":
        if not isinstance(site.node, Relax):
            raise ValueError(f"restriction site {site.site_id} has no relax anchor")
        target, reference = site.names
        delta = site.param("delta", 0)
        constraint = b.and_(
            b.le(b.sub(reference, delta), target),
            b.le(target, b.add(reference, delta)),
        )
        return restrict_relax(
            program, site.node, constraint, suffix=f"restricted-d{delta}"
        )
    if site.kind == "dynamic-knob":
        return dynamic_knob(program, knob=site.names[0], floor=site.param("floor", 1))
    raise ValueError(f"unknown site kind {site.kind!r}")
