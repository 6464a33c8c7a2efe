"""Axiomatic semantics: the ⊢o, ⊢i and ⊢r proof systems (Figures 7–9).

* :mod:`repro.hoare.unary` — weakest-precondition verification-condition
  generation for the axiomatic original (⊢o) and intermediate (⊢i)
  semantics,
* :mod:`repro.hoare.relational` — the relational axiomatic relaxed
  semantics ⊢r as a forward symbolic executor with convergent control-flow
  rules, the diverge rule and the relational frame,
* :mod:`repro.hoare.obligations` — proof obligations, solver discharge and
  verification reports (the basis of the proof-effort metrics),
* :mod:`repro.hoare.verifier` — the combined acceptability verifier and the
  mapping from proofs to the paper's five semantic guarantees.
"""

from . import obligations, relational, unary, verifier
from .obligations import (
    ObligationCollector,
    ObligationKind,
    ObligationResult,
    ProofObligation,
    ProofSystem,
    VerificationReport,
    discharge,
)
from .relational import (
    RelationalConfig,
    RelationalProofError,
    RelationalProver,
    prove_relaxed,
)
from .unary import (
    MissingInvariantError,
    UnarySystem,
    UnaryVCGenerator,
    UnsupportedStatementError,
    prove_intermediate,
    prove_original,
    prove_unary,
)
from .verifier import (
    AcceptabilityReport,
    AcceptabilitySpec,
    AcceptabilityVerifier,
    verify_acceptability,
)

__all__ = [
    "obligations",
    "relational",
    "unary",
    "verifier",
    "ObligationCollector",
    "ObligationKind",
    "ObligationResult",
    "ProofObligation",
    "ProofSystem",
    "VerificationReport",
    "discharge",
    "RelationalConfig",
    "RelationalProofError",
    "RelationalProver",
    "prove_relaxed",
    "MissingInvariantError",
    "UnarySystem",
    "UnaryVCGenerator",
    "UnsupportedStatementError",
    "prove_intermediate",
    "prove_original",
    "prove_unary",
    "AcceptabilityReport",
    "AcceptabilitySpec",
    "AcceptabilityVerifier",
    "verify_acceptability",
]
