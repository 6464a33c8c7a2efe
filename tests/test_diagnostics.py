"""Tests for the failure-forensics layer (provenance, diagnostics, explain).

Covers the acceptance criteria of the forensics PR:

* seeded failing relaxations of three registered case studies produce
  diagnostics with an exact source span, the applied relaxation site, and a
  concrete counterexample under which the violated formula mechanically
  evaluates to false;
* every obligation of every registered case study carries non-empty
  provenance whose span resolves into the program source;
* provenance and counterexample models survive pickling (the ``--jobs``
  worker round-trip) and the persistent disk cache, fully typed;
* UNKNOWN verdicts surface the solver's stored reason string;
* the ``diagnostics`` JSON section round-trips losslessly through
  ``repro explain --from-json``.
"""

import glob
import hashlib
import json
import os
import pickle

import pytest

from repro.casestudies import all_case_studies, get_case_study
from repro.cli import main
from repro.diagnostics import explain as explain_module
from repro.diagnostics import (
    AtomEvaluation,
    FailureDiagnostic,
    diagnose_report,
    diagnose_result,
    render_diagnostics,
    reevaluate,
    source_excerpt,
)
from repro.diagnostics.explain import (
    ExplainReport,
    diagnostics_section,
    explain_case_study,
    explain_from_payload,
)
from repro.engine import ObligationEngine
from repro.engine.cache import ObligationCache
from repro.hoare.obligations import (
    ObligationKind,
    ObligationResult,
    ProofObligation,
    ProofSystem,
)
from repro.hoare.verifier import AcceptabilitySpec, AcceptabilityVerifier
from repro.lang.ast import Span
from repro.lang.parser import parse_program
from repro.logic.formula import FALSE, Symbol, Tag, forall, gt, sym, var
from repro.solver import interface
from repro.solver.interface import Solver
from repro.solver.lia import Status

TESTS = os.path.dirname(__file__)
BROKEN_FIXTURE = os.path.join(TESTS, "fixtures", "broken", "broken_relax.rlx")

#: Every ``.rlx`` program the tests verify: the fuzz corpus and the fixtures.
RLX_PROGRAMS = sorted(
    glob.glob(os.path.join(TESTS, "corpus", "programs", "*.rlx"))
    + glob.glob(os.path.join(TESTS, "fixtures", "*", "*.rlx"))
)

#: ``explain lu`` of rejected depth-1 candidates, pinned by the sha256
#: prefix of the sorted-key JSON of ``ExplainReport.as_dict()``.
EXPLAIN_DIGESTS = {
    "knob:N:f1": "cc85f78ece9c5b30",
    "perforate:i@L0:s2": "cb8ed5014fcd3806",
    "perforate:i@L0:s4": "fff8082de35c4a7b",
}

#: Registered case studies with a seeded knob relaxation known to FAIL
#: verification with a concrete counterexample (acceptance set: >= 3).
FAILING_KNOBS = [
    ("lu-approximate-memory", "knob:N:f1"),
    ("sum-reduction-perforation", "knob:N:f1"),
    ("water-parallelization", "knob:N:f1"),
]


def _broken_program():
    with open(BROKEN_FIXTURE, "r", encoding="utf-8") as handle:
        return parse_program(handle.read(), name="broken_relax")


class TestSeededFailures:
    """Acceptance: explain pins span, site, and a mechanically-confirmed model."""

    @pytest.mark.parametrize("study,site", FAILING_KNOBS)
    def test_explain_reports_span_site_and_confirmed_model(self, study, site):
        report = explain_case_study(study, [site])
        assert not report.verified
        assert report.sites == (site,)
        assert report.diagnostics, "a failing relaxation must produce diagnostics"
        diagnostic = report.diagnostics[0]
        # Exact source anchoring: a resolved span, not "unknown location".
        assert diagnostic.span is not None
        assert diagnostic.location.startswith("line")
        assert diagnostic.excerpt and ">" in diagnostic.excerpt
        # The applied relaxation site is named.
        assert diagnostic.sites == [site]
        assert diagnostic.study == study
        # A concrete counterexample, confirmed mechanically: substituting the
        # model into the violated formula yields false.
        assert diagnostic.model, "INVALID verdicts must carry a model"
        assert all(isinstance(v, int) for v in diagnostic.model.values())
        assert diagnostic.formula_value is False
        assert diagnostic.check_method in ("evaluation", "solver-substitution")

    @pytest.mark.parametrize("site", sorted(EXPLAIN_DIGESTS))
    def test_explain_payload_is_pinned(self, site):
        report = explain_case_study("lu", [site])
        assert not report.verified and report.diagnostics
        payload = json.dumps(report.as_dict(), sort_keys=True, default=str)
        digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
        assert digest == EXPLAIN_DIGESTS[site]

    def test_unknown_site_raises_with_applicable_sites(self):
        with pytest.raises(ValueError) as excinfo:
            explain_case_study("lu", ["knob:nonexistent:f9"])
        assert "applicable sites" in str(excinfo.value)
        assert "knob:N:f1" in str(excinfo.value)

    def test_verified_study_explains_to_no_failures(self):
        report = explain_case_study("lu")
        assert report.verified
        assert report.diagnostics == []
        assert "VERIFIED" in report.render()


class TestUnknownReasonSurfacing:
    def test_unknown_verdict_carries_solver_reason(self):
        report = explain_case_study("swish-dynamic-knobs", ["knob:N:f1"])
        assert not report.verified
        unknowns = [d for d in report.diagnostics if d.status == "unknown"]
        assert unknowns, "swish + knob:N:f1 is the seeded UNKNOWN fixture"
        assert unknowns[0].reason, "UNKNOWN must surface the solver's reason"
        assert unknowns[0].reason in render_diagnostics(report.diagnostics)

    def test_reason_reaches_layer_summary_and_json(self):
        program = _broken_program()
        verifier = AcceptabilityVerifier()
        report = verifier.verify(program, AcceptabilitySpec())
        assert not report.verified
        undischarged = report.relaxed.as_dict()["undischarged"]
        assert undischarged and undischarged[0]["reason"]
        text = report.relaxed.summary()
        assert undischarged[0]["reason"] in text
        assert "@ line" in text  # provenance location rides along


class TestProvenanceEverywhere:
    @pytest.mark.parametrize(
        "case", all_case_studies(), ids=lambda case: case.name
    )
    def test_every_obligation_carries_resolving_provenance(self, case):
        program = case.build_program()
        spec = case.acceptability_spec(program)
        bundle = AcceptabilityVerifier().collect(program, spec, study=case.name)
        source = bundle.program.source
        assert source, "collect must recover program source text"
        lines = source.splitlines()
        for collector in (bundle.original, bundle.relaxed):
            assert collector.obligations, "every layer produces obligations"
            for obligation in collector.obligations:
                provenance = obligation.provenance
                assert provenance is not None
                assert provenance.program == program.name
                assert provenance.study == case.name
                assert provenance.rule and provenance.system and provenance.kind
                span = provenance.span
                assert span is not None, (
                    f"{provenance.rule} obligation has no span"
                )
                # The span resolves into the recovered source text.
                assert 1 <= span.line <= span.end_line <= len(lines)
                assert span.column >= 1 and span.end_column >= 1

    @pytest.mark.parametrize(
        "name",
        [case.name for case in all_case_studies()]
        + [os.path.relpath(path, TESTS) for path in RLX_PROGRAMS],
    )
    def test_every_obligation_names_its_program_and_source(self, name):
        # Provenance alone anchors a diagnostic: no program object needed.
        if name.endswith(".rlx"):
            with open(os.path.join(TESTS, name), "r", encoding="utf-8") as handle:
                stem = os.path.splitext(os.path.basename(name))[0]
                program = parse_program(handle.read(), name=stem)
            spec = AcceptabilitySpec.of(program)
        else:
            case = get_case_study(name)
            program = case.build_program()
            spec = case.acceptability_spec(program)
        bundle = AcceptabilityVerifier().collect(program, spec)
        obligations = bundle.original.obligations + bundle.relaxed.obligations
        assert obligations
        for obligation in obligations:
            assert obligation.provenance.program
            assert obligation.provenance.source

    def test_provenance_survives_pickling(self):
        case = get_case_study("lu")
        program = case.build_program()
        bundle = AcceptabilityVerifier().collect(
            program, case.acceptability_spec(program), study=case.name
        )
        for obligation in bundle.original.obligations + bundle.relaxed.obligations:
            clone = pickle.loads(pickle.dumps(obligation))
            assert clone.provenance == obligation.provenance
            assert clone.provenance.span == obligation.provenance.span

    def test_provenance_survives_jobs_worker_roundtrip(self):
        program = _broken_program()
        engine = ObligationEngine.for_batch(jobs=2)
        report = AcceptabilityVerifier(engine=engine).verify(
            program, AcceptabilitySpec()
        )
        assert not report.verified
        failures = report.relaxed.undischarged()
        assert failures
        provenance = failures[0].obligation.provenance
        assert provenance is not None and provenance.span is not None
        assert provenance.statement.startswith("relate")
        # The model made it back across the process boundary, typed.
        model = failures[0].counterexample
        assert model
        assert all(isinstance(symbol, Symbol) for symbol in model)
        assert all(isinstance(value, int) for value in model.values())


class TestModelCacheRoundTrip:
    def test_counterexample_model_survives_disk_roundtrip_typed(self, tmp_path):
        cache = ObligationCache(cache_dir=str(tmp_path))
        model = {
            Symbol("x", Tag.ORIGINAL): 0,
            Symbol("x", Tag.RELAXED): -3,
            Symbol("n", None): 17,
        }
        cache.put("fp", Status.INVALID, model=model, reason="counterexample found")
        cache.save()

        replayed = ObligationCache(cache_dir=str(tmp_path)).get("fp")
        assert replayed is not None and replayed.origin == "disk"
        assert replayed.status is Status.INVALID
        assert replayed.reason == "counterexample found"
        assert replayed.model == model
        for symbol, value in replayed.model.items():
            assert isinstance(symbol, Symbol) and isinstance(value, int)
        # Tags round-trip as Tag values, not strings.
        tags = {symbol.tag for symbol in replayed.model}
        assert tags == {Tag.ORIGINAL, Tag.RELAXED, None}

    def test_explain_replays_model_from_warm_cache(self, tmp_path):
        cold_engine = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        cold = explain_case_study("lu", ["knob:N:f1"], engine=cold_engine)
        cold_engine.save()
        assert cold.diagnostics and cold.diagnostics[0].model

        warm_engine = ObligationEngine.for_batch(cache_dir=str(tmp_path))
        warm = explain_case_study("lu", ["knob:N:f1"], engine=warm_engine)
        assert warm_engine.statistics.as_dict()["solver_calls"] == 0
        assert warm.diagnostics
        assert warm.diagnostics[0].model == cold.diagnostics[0].model
        assert warm.diagnostics[0].formula_value is False


class TestDiagnosticRoundTrip:
    def _diagnostic(self):
        program = _broken_program()
        report = AcceptabilityVerifier().verify(program, AcceptabilitySpec())
        diagnostics = diagnose_report(report)
        assert diagnostics
        return diagnostics[0]

    def test_as_dict_from_dict_is_lossless(self):
        diagnostic = self._diagnostic()
        clone = FailureDiagnostic.from_dict(diagnostic.as_dict())
        assert clone == diagnostic
        assert clone.render() == diagnostic.render()

    def test_render_names_rule_model_and_source(self):
        text = self._diagnostic().render()
        assert "[relate]" in text
        assert "x<o> = 0" in text
        assert "relate exact" in text
        assert "confirmed mechanically" in text

    def test_explain_from_payload_replays_losslessly(self):
        program = _broken_program()
        report = AcceptabilityVerifier().verify(program, AcceptabilitySpec())
        diagnostics = diagnose_report(report)
        payload = {
            "program": program.name,
            "verified": False,
            "diagnostics": diagnostics_section(diagnostics),
        }
        replayed = explain_from_payload(payload)
        assert replayed.replayed and not replayed.verified
        assert replayed.diagnostics == diagnostics

    def test_explain_from_payload_requires_diagnostics_section(self):
        with pytest.raises(ValueError) as excinfo:
            explain_from_payload({"verified": False})
        assert "--explain" in str(excinfo.value)


class TestClosedFalseObligation:
    """A closed obligation refuted outright comes with an empty model."""

    def _diagnostic(self):
        verdict = Solver().check_valid(FALSE)
        assert verdict.status is Status.INVALID and verdict.model == {}
        obligation = ProofObligation(
            formula=FALSE,
            kind=ObligationKind.VALIDITY,
            system=ProofSystem.ORIGINAL,
            rule="assert",
            description="assertion holds",
        )
        result = ObligationResult(
            obligation, verdict.status, counterexample=verdict.model
        )
        return diagnose_result(result)

    def test_empty_model_is_rechecked(self):
        diagnostic = self._diagnostic()
        assert diagnostic.model == {}
        assert diagnostic.formula_value is False
        assert diagnostic.check_method == "evaluation"

    def test_empty_model_is_rendered_and_confirmed(self):
        text = self._diagnostic().render()
        assert "no free symbols: the formula is false in every state" in text
        assert "counterexample confirmed mechanically" in text


class TestRenderHelpers:
    def test_source_excerpt_marks_span_with_carets(self):
        source = "vars x;\nx = 0;\nassert x == 0;\n"
        excerpt = source_excerpt(source, Span(3, 1, 3, 15), context=1)
        assert "> 3 | assert x == 0;" in excerpt
        assert "^^^^^^^^^^^^^^" in excerpt
        assert "  2 | x = 0;" in excerpt

    def test_reevaluate_confirms_simple_counterexample(self):
        from repro.logic.formula import Atom, Rel, SymTerm

        x_o = Symbol("x", Tag.ORIGINAL)
        x_r = Symbol("x", Tag.RELAXED)
        formula = Atom(Rel.EQ, SymTerm(x_o), SymTerm(x_r))
        assert reevaluate(formula, {x_o: 0, x_r: 1}) is False
        assert reevaluate(formula, {x_o: 1, x_r: 1}) is True

    def test_atom_evaluation_roundtrip(self):
        atom = AtomEvaluation("(x<o> == x<r>)", False, "")
        assert AtomEvaluation.from_dict(atom.as_dict()) == atom

    def test_render_diagnostics_empty(self):
        assert "every obligation discharged" in render_diagnostics([])

    def test_explain_report_render_mentions_replay(self):
        report = ExplainReport(
            study="s", program="p", verified=True, replayed=True
        )
        assert "replayed" in report.render()


class TestRecheckBudget:
    """The solver queries behind a diagnostic's re-check run under the
    budget the engine's obligations ran under, and unbounded without one."""

    @pytest.fixture
    def budgets(self, monkeypatch):
        """The budget of every solver the re-check builds."""
        seen = []

        class RecordingSolver(interface.Solver):
            def __init__(self, budget_seconds=None):
                seen.append(budget_seconds)
                super().__init__(budget_seconds)

        monkeypatch.setattr(interface, "Solver", RecordingSolver)
        return seen

    @pytest.mark.parametrize("budget", [None, 7.5])
    def test_diagnose_result_rechecks_under_budget(self, budgets, budget):
        # Five nested quantifiers are too deep to enumerate, so the model is
        # grounded into the formula and the solver refutes it.
        formula = forall([sym(name) for name in "abcde"], gt(var("x"), 0))
        obligation = ProofObligation(
            formula=formula,
            kind=ObligationKind.VALIDITY,
            system=ProofSystem.ORIGINAL,
            rule="assert",
            description="assertion holds",
        )
        result = ObligationResult(
            obligation, Status.INVALID, counterexample={sym("x"): 0}
        )
        diagnostic = diagnose_result(result, budget)
        assert diagnostic.check_method == "solver-substitution"
        assert diagnostic.formula_value is False
        assert budgets == [budget]

    @pytest.mark.parametrize("budget", [None, 30.0])
    def test_verify_batch_explain_rechecks_under_budget(self, budgets, budget, capsys):
        argv = ["verify-batch", "--dir", os.path.dirname(BROKEN_FIXTURE), "--explain"]
        if budget is not None:
            argv += ["--budget", str(budget)]
        assert main(argv) == 1
        assert "refuted by the solver" in capsys.readouterr().out
        assert budgets and set(budgets) == {budget}

    def test_explain_passes_engine_budget(self, monkeypatch):
        seen = []

        def recording(report, budget_seconds=None):
            seen.append(budget_seconds)
            return []

        monkeypatch.setattr(explain_module, "diagnose_report", recording)
        with ObligationEngine.for_batch(budget_seconds=30.0) as engine:
            explain_case_study("lu", ["knob:N:f1"], engine=engine)
        explain_case_study("lu", ["knob:N:f1"])
        assert seen == [30.0, None]
