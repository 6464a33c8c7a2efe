"""Corpus-scale program synthesis and differential fuzzing.

The verification stack is exercised on a *generated* population of relaxed
programs rather than only the hand-written case-study gallery:

* :mod:`~repro.fuzz.generator` — a seeded synthesizer emitting random,
  well-formed ``.rlx`` programs whose loops, relax envelopes and
  configuration variables are *planted* to match the syntactic shapes
  :func:`repro.relaxations.sites.discover_sites` detects, each stating its
  acceptability property in its own ``rel_ensures`` clause
  (:func:`~repro.fuzz.generator.derive_spec` reads it) and wrapped as an
  unregistered case study (:func:`~repro.fuzz.generator.generated_study`)
  so the lint / explore layers accept it like any other;
* :mod:`~repro.fuzz.funnel` — the pipeline driver behind ``repro fuzz``:
  every generated program runs the full funnel (``casestudy lint`` →
  ``verify-batch`` → ``explore``) while every layer is differentially
  tested — tree vs compiled evaluation, serial vs ``--jobs``
  discharge, cold vs warm cache, exhaustive vs full-width beam — asserting
  fingerprint / verdict / counterexample-model / frontier parity;
* :mod:`~repro.fuzz.shrink` — greedy statement-deletion shrinking of any
  divergence down to a minimal reproducer fixture on disk;
* :mod:`~repro.fuzz.corpus` — the standing committed corpus
  (``tests/corpus/``: sources + obligation fingerprints + verdicts) that
  future changes must replay byte-identically.
"""

from .generator import (
    FAMILIES,
    GeneratedProgram,
    PlantedSite,
    ProgramSynthesizer,
    derive_spec,
    generated_study,
    synthesize_corpus,
)
from .funnel import (
    Divergence,
    FuzzReport,
    available_backends,
    explore_signature,
    normalized_explore_payload,
    run_fuzz,
)
from .shrink import shrink_program, write_reproducer
from .corpus import CorpusReplayReport, replay_corpus, write_corpus

__all__ = [
    "CorpusReplayReport",
    "Divergence",
    "FAMILIES",
    "FuzzReport",
    "GeneratedProgram",
    "PlantedSite",
    "ProgramSynthesizer",
    "available_backends",
    "derive_spec",
    "explore_signature",
    "generated_study",
    "normalized_explore_payload",
    "replay_corpus",
    "run_fuzz",
    "shrink_program",
    "synthesize_corpus",
    "write_corpus",
]
