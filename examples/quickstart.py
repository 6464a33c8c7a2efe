#!/usr/bin/env python3
"""Quickstart: write a relaxed program, run it, and verify its acceptability.

This example walks through the full workflow of the framework on a tiny
program inspired by the paper's approximate-memory example:

1. build a relaxed program (a ``relax`` statement plus a ``relate``
   acceptability property and an ``assert`` integrity property),
2. execute it under the dynamic *original* and *relaxed* semantics and check
   the relate statement on the observed executions,
3. statically verify the acceptability properties with the axiomatic
   original (⊢o) and relaxed (⊢r) proof systems,
4. print the semantic guarantees the proofs establish.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.lang import builder as b
from repro.lang.analysis import gamma
from repro.lang.pretty import pretty_program
from repro.hoare.verifier import AcceptabilitySpec, verify_acceptability
from repro.semantics.choosers import RandomChooser
from repro.semantics.interpreter import run_original, run_relaxed
from repro.semantics.observation import check_compatibility
from repro.semantics.state import State


def build_program():
    """A value read from approximate storage may deviate by at most ``e``."""
    return b.program(
        "quickstart",
        b.assume(b.ge("e", 0)),
        b.assign("y", "x"),
        b.relax("x", b.and_(b.le(b.sub("y", "e"), "x"), b.le("x", b.add("y", "e")))),
        b.relate("accuracy", b.within("x", b.r("e"))),
        b.assert_(b.le("x", b.add("y", "e"))),
        variables=("x", "y", "e"),
    )


def main() -> int:
    program = build_program()
    print("=== the relaxed program ===")
    print(pretty_program(program))

    # --- dynamic differential execution -------------------------------------
    initial = State.of({"x": 10, "e": 2})
    original = run_original(program, initial)
    relaxed = run_relaxed(program, initial, chooser=RandomChooser(seed=42))
    print("=== dynamic semantics ===")
    print(f"original execution final state : {original.state}")
    print(f"relaxed  execution final state : {relaxed.state}")
    compatibility = check_compatibility(
        gamma(program), original.observations, relaxed.observations
    )
    print(f"observations compatible (Γ ⊢ ψ1 ∼ ψ2): {bool(compatibility)}")

    # --- static verification --------------------------------------------------
    spec = AcceptabilitySpec(
        precondition=b.true,
        rel_precondition=b.rand(b.all_same("x", "e"), b.rge(b.r("e"), 0)),
    )
    report = verify_acceptability(program, spec)
    print()
    print("=== static verification ===")
    print(report.summary())
    return 0 if report.verified else 1


if __name__ == "__main__":
    raise SystemExit(main())
