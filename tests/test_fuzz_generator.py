"""Hypothesis properties over the fuzz synthesizer itself.

The synthesizer's contract (stated in ``repro.fuzz.generator``):

* generation is a pure function of ``(seed, index)``,
* every program is statically well-formed and pretty/parse round-trips,
* every *planted* site is discovered by ``relaxations.sites`` and applies
  to a program that is itself well-formed and round-trips,
* the auto-derived acceptability spec collects obligations error-free on
  both proof layers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import flatten_stmt

from repro.fuzz import FAMILIES, ProgramSynthesizer, derive_spec
from repro.hoare.verifier import AcceptabilityVerifier
from repro.lang.analysis import check_program
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.relaxations.sites import apply_site, discover_sites

seeds = st.integers(min_value=0, max_value=50)
indices = st.integers(min_value=0, max_value=30)


@settings(max_examples=40, deadline=None)
@given(seeds, indices)
def test_generation_is_deterministic(seed, index):
    first = ProgramSynthesizer(seed).generate(index)
    second = ProgramSynthesizer(seed).generate(index)
    assert first.source == second.source
    assert first.program == second.program
    assert first.family == second.family
    assert first.family in FAMILIES


@settings(max_examples=40, deadline=None)
@given(seeds, indices)
def test_generated_program_is_well_formed_and_round_trips(seed, index):
    generated = ProgramSynthesizer(seed).generate(index)
    report = check_program(generated.program, strict_declarations=True)
    assert report.ok, report.errors
    reparsed = parse_program(generated.source, name=generated.name)
    assert flatten_stmt(reparsed.body) == flatten_stmt(generated.program.body)
    assert reparsed.variables == generated.program.variables
    # The pretty form is a fixpoint: corpus files never churn on rewrite.
    assert pretty_program(reparsed) == generated.source


@settings(max_examples=25, deadline=None)
@given(seeds, indices)
def test_planted_sites_are_discovered_and_apply(seed, index):
    generated = ProgramSynthesizer(seed).generate(index)
    sites = discover_sites(generated.program)
    discovered = {(site.kind, _anchor_name(site)) for site in sites}
    for planted in generated.planted:
        assert (planted.kind, planted.name) in discovered, (
            f"planted {planted} not discovered; got {sorted(discovered)}"
        )
    for site in sites:
        applied = apply_site(generated.program, site)
        assert check_program(applied.program).ok
        reparsed = parse_program(pretty_program(applied.program))
        assert flatten_stmt(reparsed.body) == flatten_stmt(applied.program.body)


def _anchor_name(site):
    """The variable a site anchors on, parsed back out of its ``site_id``
    (``perforate:i@L0:s2`` / ``restrict:x@R0:d1`` / ``knob:n:f1``)."""
    head = site.site_id.split(":")[1]
    return head.split("@")[0]


@settings(max_examples=20, deadline=None)
@given(seeds, indices)
def test_derived_spec_collects_obligations_error_free(seed, index):
    generated = ProgramSynthesizer(seed).generate(index)
    spec = derive_spec(generated.program)
    collected = AcceptabilityVerifier().collect(generated.program, spec)
    assert not collected.original.errors, collected.original.errors
    assert not collected.relaxed.errors, collected.relaxed.errors
    assert collected.original.obligations
    assert collected.relaxed.obligations


def test_generated_workloads_parse_only_at_construction(monkeypatch):
    """``workloads()`` reuses the variables read at construction (no parse per
    call), draws the same states as always, and still pickles for workers."""
    import pickle
    from pathlib import Path

    from repro.fuzz import generator

    source = (Path(__file__).parent / "corpus" / "programs" / "fuzz-s0-0000.rlx").read_text()
    study = generator.generated_study("fuzz-s0-0000", source)
    parses = []
    monkeypatch.setattr(generator, "parse_program", lambda *a, **k: parses.append(a))
    states = [state.scalar_map() for state in study.workloads(3, seed=7)]
    assert parses == []
    assert states == [
        {"i": 1, "m": 3, "acc": 2, "t": 2, "j": 1, "result": 2, "original_result": 2},
        {"i": 4, "m": 2, "acc": 3, "t": 1, "j": 2, "result": 2, "original_result": 2},
        {"i": 3, "m": 2, "acc": 1, "t": 2, "j": 2, "result": 2, "original_result": 3},
    ]
    hook = pickle.loads(pickle.dumps(study.workloads_hook))
    assert [state.scalar_map() for state in hook(3, seed=7)] == states
