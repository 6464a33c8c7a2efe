"""Seeded synthesis of well-formed relaxed programs with planted sites.

Every generated program is drawn from one of a few *families* — structural
templates with randomised variable names, constants, accumulator updates,
optional branches and optional second loops — chosen so that the program is

* **well-formed** (:func:`repro.lang.analysis.check_program` passes with
  strict declarations),
* **round-trippable** (``parse(pretty(p)) == p`` modulo ``Seq``
  association), and
* **plantable**: its loops carry the canonical ``c = c + 1`` increment
  (→ ``perforate-loop`` sites), its bound variable is read by a loop
  condition but never written (→ ``dynamic-knob``), and — in the envelope
  families — its relax predicate relates a single scalar target to a saved
  ``original_<target>`` copy (→ ``restrict-relax``), exactly the syntactic
  shapes :func:`repro.relaxations.sites.discover_sites` detects.

The acceptability proof of every non-broken program is arranged to go
through mechanically: loops are lockstep (the generated ``rel_invariant``
pins every scalar equal across executions, so the convergent while rule
applies) and the only relaxed statement sits *after* the loops, so the
trailing ``relate`` envelope follows directly from the relax predicate.
The ``broken-envelope`` family deliberately asserts an envelope one unit
tighter than its relax allows — its relaxed-layer obligations are INVALID
with a concrete counterexample model, giving the differential oracle
failing verdicts (and models) to compare across backends, not just passing
ones.

Seeding is hierarchical and stringly keyed (``random.Random`` hashes
string seeds deterministically across platforms and processes): program
``index`` under driver seed ``s`` is always drawn from
``Random(f"repro-fuzz:{s}:{index}")``, so any single program of a run can
be regenerated without generating its predecessors.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..casestudies.base import CaseStudy, random_chooser
from ..hoare.verifier import AcceptabilitySpec
from ..lang import builder as b
from ..lang.ast import Program, Stmt
from ..lang.parser import parse_program
from ..lang.pretty import pretty_program
from ..semantics.state import State

#: The structural templates the synthesizer draws from.
FAMILIES = ("lockstep-envelope", "relax-free", "broken-envelope")

_COUNTERS = ("i", "j", "k")
_BOUNDS = ("n", "m", "limit")
_ACCUMULATORS = ("s", "acc", "total")
_TARGETS = ("x", "out", "result")

#: Every workload value is drawn from this range; generated assumes are
#: chosen to be satisfied by it (``1 <= v <= 4`` for every variable).
_WORKLOAD_RANGE = (1, 4)


@dataclass(frozen=True)
class PlantedSite:
    """One relaxation opportunity the synthesizer planted on purpose.

    ``kind`` is a :data:`repro.relaxations.sites.SITE_KINDS` member;
    ``name`` is the variable the site anchors on (the loop counter, the
    knob variable, or the relax target).  The generator's invariant —
    enforced by the hypothesis suite — is that site discovery finds at
    least one site of this kind over this name.
    """

    kind: str
    name: str


@dataclass
class GeneratedProgram:
    """One synthesized program plus everything needed to replay it."""

    name: str
    seed: int
    index: int
    family: str
    program: Program
    source: str
    planted: Tuple[PlantedSite, ...] = ()
    #: Whether the acceptability proof is expected to discharge fully
    #: (False for the deliberately-broken family).
    expect_verified: bool = True


class ProgramSynthesizer:
    """Deterministic program synthesis under one driver seed."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def _rng(self, index: int) -> random.Random:
        return random.Random(f"repro-fuzz:{self.seed}:{index}")

    def generate(self, index: int) -> GeneratedProgram:
        """Synthesize program ``index`` of this seed's corpus."""
        rng = self._rng(index)
        family = rng.choices(FAMILIES, weights=(5, 3, 2))[0]
        name = f"fuzz-s{self.seed}-{index:04d}"
        program, planted = _build_family(name, family, rng)
        return GeneratedProgram(
            name=name,
            seed=self.seed,
            index=index,
            family=family,
            program=program,
            source=pretty_program(program),
            planted=tuple(planted),
            expect_verified=(family != "broken-envelope"),
        )

    def corpus(self, count: int) -> List[GeneratedProgram]:
        return [self.generate(index) for index in range(count)]


def synthesize_corpus(seed: int, count: int) -> List[GeneratedProgram]:
    """The ``count`` programs of driver seed ``seed``, in index order."""
    return ProgramSynthesizer(seed).corpus(count)


def _build_family(
    name: str, family: str, rng: random.Random
) -> Tuple[Program, List[PlantedSite]]:
    counter = rng.choice(_COUNTERS)
    bound = rng.choice(_BOUNDS)
    acc = rng.choice(_ACCUMULATORS)
    branch_var = "t"
    planted: List[PlantedSite] = [
        PlantedSite("perforate-loop", counter),
        PlantedSite("dynamic-knob", bound),
    ]

    variables: List[str] = [counter, bound, acc]
    body: List[Stmt] = [
        # The workload range satisfies these by construction; the upper
        # bound also keeps every simulation's step count small.
        b.assume(b.ge(bound, 1)),
        b.assume(b.le(bound, 4)),
        b.assign(acc, 0),
        b.assign(counter, 0),
    ]

    use_branch = rng.random() < 0.5
    if use_branch:
        variables.append(branch_var)
        body.append(b.assign(branch_var, 0))

    step = _step_expression(acc, counter, rng)
    loop_body: List[Stmt] = [b.assign(acc, b.add(acc, step))]
    if use_branch:
        # A convergent branch: its condition reads only lockstep-equal
        # variables, so the relational if rule applies without diverging.
        loop_body.append(
            b.if_(
                b.gt(acc, rng.randint(1, 6)),
                b.assign(branch_var, acc),
            )
        )
    loop_body.append(b.assign(counter, b.add(counter, 1)))

    # Variables the lockstep invariant pins equal across executions.  The
    # relax (if any) comes after every loop, so *all* scalars stay equal
    # inside them and the invariant is trivially inductive.
    second_loop = rng.random() < 0.35
    second_counter: Optional[str] = None
    if second_loop:
        second_counter = next(c for c in _COUNTERS if c != counter)
        variables.append(second_counter)
        planted.append(PlantedSite("perforate-loop", second_counter))

    relax_target: Optional[str] = None
    delta = 0
    if family in ("lockstep-envelope", "broken-envelope"):
        relax_target = rng.choice(_TARGETS)
        delta = rng.randint(1, 3)
        variables.extend([relax_target, f"original_{relax_target}"])

    lockstep = b.all_same(*variables)

    body.append(
        b.while_(
            b.lt(counter, bound),
            *loop_body,
            invariant=b.ge(counter, 0),
            rel_invariant=lockstep,
        )
    )
    if second_loop and second_counter is not None:
        body.append(b.assign(second_counter, 0))
        body.append(
            b.while_(
                b.lt(second_counter, bound),
                b.assign(acc, b.add(acc, 1)),
                b.assign(second_counter, b.add(second_counter, 1)),
                invariant=b.ge(second_counter, 0),
                rel_invariant=lockstep,
            )
        )
    if rng.random() < 0.5:
        # Assert over the *last* loop's counter: the unary proof context
        # after a loop is its invariant plus the negated condition, so
        # facts about earlier counters do not survive a later loop.
        final_counter = second_counter if second_loop else counter
        body.append(b.assert_(b.ge(final_counter, 0)))

    if relax_target is not None:
        saved = f"original_{relax_target}"
        body.append(b.assign(relax_target, _target_expression(acc, counter, rng)))
        body.append(b.assign(saved, relax_target))
        body.append(
            b.relax(
                relax_target,
                b.and_(
                    b.le(b.sub(saved, delta), relax_target),
                    b.le(relax_target, b.add(saved, delta)),
                ),
            )
        )
        planted.append(PlantedSite("restrict-relax", relax_target))
        # The broken family claims an envelope one unit tighter than the
        # relax grants: INVALID with a concrete counterexample model.
        claimed = delta if family == "lockstep-envelope" else delta - 1
        relates = [
            b.relate("envelope", b.within(relax_target, claimed)),
            b.relate("agreement", b.same(acc)),
        ]
    else:
        names = [acc] + ([branch_var] if use_branch else [])
        relates = [b.relate("sync", b.all_same(*names))]
    body.extend(relates)

    # The trailing relates describe the final state, so the acceptability
    # properties the program declares must also hold of its final states.
    program = Program(
        body=b.block(*body),
        name=name,
        variables=tuple(variables),
        rel_ensures=b.rand(*[relate.condition for relate in relates]),
    )
    return program, planted


def _step_expression(acc: str, counter: str, rng: random.Random):
    choice = rng.randint(0, 2)
    if choice == 0:
        return b.e(counter)
    if choice == 1:
        return b.n(rng.randint(1, 3))
    return b.add(counter, rng.randint(1, 2))


def _target_expression(acc: str, counter: str, rng: random.Random):
    choice = rng.randint(0, 2)
    if choice == 0:
        return b.e(acc)
    if choice == 1:
        return b.add(acc, rng.randint(0, 2))
    return b.add(acc, counter)


#: The spec a generated program states (its ``rel_ensures`` clause, the
#: default noninterference precondition and trivial unary conditions), read
#: from the program like every other program's.
derive_spec = AcceptabilitySpec.of


# ---------------------------------------------------------------------------
# Generated programs as case studies
# ---------------------------------------------------------------------------


def generated_study(name: str, source: str) -> CaseStudy:
    """A synthesized program as an unregistered :class:`CaseStudy`.

    The registry, lint and explorer all accept case-study instances
    directly, so generated studies flow through ``casestudy lint`` and
    ``repro explore`` without polluting the global corpus.  Construction
    needs only ``(name, source)``, which is exactly what the committed
    corpus stores — replay builds the same study the generator did.
    """
    return CaseStudy(
        name=name,
        source=source,
        workloads_hook=functools.partial(
            _generated_workloads, name, parse_program(source, name=name).variables
        ),
        paper_section="generated",
        chooser_hook=random_chooser,
    )


def _generated_workloads(
    name: str, variables: Tuple[str, ...], count: int, seed: int = 0
) -> List[State]:
    """Seeded initial states over the program's declared scalars.

    Every variable is drawn from ``1..4`` — the range the generated
    ``assume`` bounds are written against — so no workload dies on an
    assumption and loop trip counts stay small.
    """
    lo, hi = _WORKLOAD_RANGE
    states = []
    for index in range(count):
        rng = random.Random(f"repro-fuzz-workload:{name}:{seed}:{index}")
        states.append(State.of({var: rng.randint(lo, hi) for var in variables}))
    return states
