"""Tests for the case-study type, the registry and lint."""

import os
import pickle
import subprocess
import sys

import pytest

from repro.casestudies import (
    CaseStudy,
    DuplicateCaseStudyError,
    UnknownCaseStudyError,
    all_case_studies,
    case_study_names,
    get_case_study,
    lint_case_study,
    lint_registry,
    register_case_study,
    unregister_case_study,
)
from repro.casestudies.lu import LU
from repro.casestudies.spec import branch_at, loop_at, relax_at
from repro.casestudies.swish import SWISH
from repro.casestudies.water import WATER
from repro.cli import main
from repro.fuzz.generator import ProgramSynthesizer, generated_study
from repro.hoare.verifier import AcceptabilitySpec
from repro.lang.parser import parse_program
from repro.semantics.state import State

from casestudy_ids import study_id

#: Every study this PR's corpus must expose, in registration order.
EXPECTED_NAMES = (
    "swish-dynamic-knobs",
    "water-parallelization",
    "lu-approximate-memory",
    "sum-reduction-perforation",
    "bnb-early-exit",
    "stencil-approx-memory",
    "pipeline-two-knobs",
)


TOY_SOURCE = "vars x; relax (x) st (x == x); relate l: (x<o> == x<o>);"


def _toy_spec(program):
    return AcceptabilitySpec()


def _toy_workloads(count, seed):
    return [State.of({"x": 0}) for _ in range(count)]


def _toy_study(name: str, source: str = TOY_SOURCE) -> CaseStudy:
    return CaseStudy(
        name=name, source=source, spec_hook=_toy_spec, workloads_hook=_toy_workloads
    )


class TestRegistryContents:
    def test_all_seven_studies_registered(self):
        assert case_study_names() == EXPECTED_NAMES

    def test_classes_are_case_studies(self):
        for case in all_case_studies():
            assert type(case) is CaseStudy
            assert case.name in EXPECTED_NAMES


class TestResolution:
    @pytest.mark.parametrize("name", EXPECTED_NAMES)
    def test_round_trip_by_name(self, name):
        assert get_case_study(name).name == name

    @pytest.mark.parametrize("case", all_case_studies(), ids=study_id)
    def test_round_trip_by_instance(self, case):
        assert get_case_study(case) is case
        assert get_case_study(case.name) is case

    def test_unique_prefix_resolves(self):
        assert get_case_study("lu").name == "lu-approximate-memory"
        assert get_case_study("bnb").name == "bnb-early-exit"
        assert get_case_study("stencil").name == "stencil-approx-memory"

    def test_classic_classes_resolve(self):
        assert get_case_study("swish") is SWISH
        assert get_case_study("water") is WATER
        assert get_case_study("lu") is LU

    def test_unknown_name_lists_registered_studies(self):
        with pytest.raises(UnknownCaseStudyError) as excinfo:
            get_case_study("no-such-study")
        message = str(excinfo.value)
        for name in EXPECTED_NAMES:
            assert name in message

    def test_ambiguous_prefix_is_unknown(self):
        # 's' prefixes swish-*, sum-* and stencil-* — must not silently pick one.
        with pytest.raises(UnknownCaseStudyError):
            get_case_study("s")


class TestRegistration:
    def test_duplicate_name_rejected(self):
        register_case_study(_toy_study("toy-duplicate-study"))
        try:
            other = _toy_study("toy-duplicate-study", "vars x; x = 1;")
            with pytest.raises(DuplicateCaseStudyError, match="toy-duplicate-study"):
                register_case_study(other)
        finally:
            unregister_case_study("toy-duplicate-study")

    def test_reregistering_same_class_is_idempotent(self):
        register_case_study(SWISH)  # the registered study itself: no error
        assert case_study_names() == EXPECTED_NAMES

    def test_registering_base_class_name_rejected(self):
        with pytest.raises(ValueError, match="distinctive 'name'"):
            register_case_study(_toy_study(""))

    def test_non_case_study_rejected(self):
        with pytest.raises(TypeError):
            register_case_study(object())

    def test_definition_registration_round_trips(self):
        register_case_study(_toy_study("toy-registered-study"))
        try:
            study = get_case_study("toy-registered-study")
            assert study.name == "toy-registered-study"
            assert study.build_program().name == "toy-registered-study"
            assert len(study.workloads(3)) == 3
        finally:
            unregister_case_study("toy-registered-study")

    def test_definition_reregistration_is_idempotent(self):
        study = _toy_study("toy-idempotent-study")
        register_case_study(study)
        try:
            # An equal study under the same name is not a duplicate.
            register_case_study(_toy_study("toy-idempotent-study"))
            assert get_case_study("toy-idempotent-study") is study
        finally:
            unregister_case_study("toy-idempotent-study")


class TestHooks:
    def test_lambda_hook_rejected(self):
        with pytest.raises(TypeError, match="module-level"):
            CaseStudy(
                name="toy-lambda-study",
                source=TOY_SOURCE,
                spec_hook=_toy_spec,
                workloads_hook=_toy_workloads,
                chooser_hook=lambda seed: None,
            )

    @pytest.mark.parametrize("case", all_case_studies(), ids=study_id)
    def test_fresh_instance_builds_spec_without_build_program(self, case):
        # A fresh copy of the study, and a program it never built: every
        # divergence annotation must still anchor to a node of that program.
        fresh = pickle.loads(pickle.dumps(case))
        program = parse_program(case.source, name=case.name)
        spec = fresh.acceptability_spec(program)
        nodes = list(program.body.walk())
        for node in spec.relational_config.divergence_specs:
            assert node in nodes
        assert spec == case.acceptability_spec(case.build_program())

    def test_lu_verifies_under_optimized_python(self):
        # ``python -O`` strips asserts, so no spec may depend on one.
        code = (
            "from repro.casestudies import get_case_study\n"
            "from repro.hoare.verifier import AcceptabilityVerifier\n"
            "from repro.lang.parser import parse_program\n"
            "study = get_case_study('lu')\n"
            "program = parse_program(study.source, name=study.name)\n"
            "spec = study.acceptability_spec(program)\n"
            "assert False, 'asserts must be stripped under -O'\n"
            "raise SystemExit(0 if AcceptabilityVerifier().verify(program, spec).verified else 1)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_studies_pickle_by_value(self):
        generated = ProgramSynthesizer(0).generate(0)
        studies = list(all_case_studies())
        studies.append(generated_study(generated.name, generated.source))
        for case in studies:
            copy = pickle.loads(pickle.dumps(case))
            program = copy.build_program()
            assert program == case.build_program()
            assert copy.acceptability_spec(program) == case.acceptability_spec(program)
            assert copy.workloads(2, seed=1) == case.workloads(2, seed=1)


class TestSelectors:
    def test_selectors_find_positional_nodes(self):
        program = parse_program(
            "vars x; relax (x) st (x == x);"
            "while (x < 3) invariant (true) { if (x < 1) { x = x + 1; } }"
        )
        assert loop_at(program, 0).condition is not None
        assert branch_at(program, 0).condition is not None
        assert relax_at(program, 0).targets == ("x",)

    def test_selector_out_of_range(self):
        program = parse_program("vars x; x = 1;")
        with pytest.raises(IndexError, match="0 While"):
            loop_at(program, 0)


class TestLint:
    def test_full_registry_is_lint_clean(self):
        reports = lint_registry()
        assert [report.study for report in reports] == list(EXPECTED_NAMES)
        for report in reports:
            assert report.ok, report.summary()
            assert report.obligations > 0
            assert report.checks_run >= 7

    def test_lint_flags_undeclared_variables(self):
        report = lint_case_study(
            _toy_study("toy-undeclared-study", "vars x; relax (x) st (x == x); y = x;")
        )
        assert not report.ok
        assert any(
            finding.check == "declared-variables" and "y" in finding.message
            for finding in report.findings
        )

    def test_lint_flags_fully_undeclared_program(self):
        # Omitting the 'vars' line entirely must still be an error, not the
        # declares-nothing warning, when the program does use variables.
        report = lint_case_study(
            _toy_study(
                "toy-no-decls-study",
                "x = 1; relax (x) st (x == x); relate l: (x<o> == x<r>);",
            )
        )
        assert not report.ok
        assert any(
            finding.check == "declared-variables" and finding.level == "error"
            for finding in report.findings
        )

    def test_lint_flags_missing_loop_invariant(self):
        report = lint_case_study(
            _toy_study(
                "toy-no-invariant-study",
                "vars x; relax (x) st (x == x); while (x < 3) { x = x + 1; }",
            )
        )
        assert not report.ok
        assert any(
            finding.check == "obligations-collect" for finding in report.findings
        )

    def test_lint_warns_without_relate(self):
        report = lint_case_study(
            _toy_study("toy-no-relate-study", "vars x; relax (x) st (x == x);")
        )
        assert report.ok  # warnings do not fail the gate
        assert any(
            finding.check == "relate-present" and finding.level == "warning"
            for finding in report.findings
        )


class TestCaseStudyCli:
    def test_list_names_every_study(self, capsys):
        assert main(["casestudy", "list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_NAMES:
            assert name in out

    def test_lint_full_registry_green(self, capsys, tmp_path):
        json_path = tmp_path / "lint.json"
        assert main(["casestudy", "lint", "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out
        import json

        payload = json.loads(json_path.read_text())
        from repro.cli_report import validate_payload

        assert validate_payload(payload) is None
        assert payload["command"] == "casestudy-lint"
        assert payload["verified"] is True
        assert len(payload["studies"]) == len(EXPECTED_NAMES)

    def test_lint_selected_study(self, capsys):
        assert main(["casestudy", "lint", "bnb-early-exit"]) == 0
        out = capsys.readouterr().out
        assert "bnb-early-exit: ok" in out

    def test_lint_unknown_study_exits_nonzero(self):
        with pytest.raises(SystemExit, match="registered studies"):
            main(["casestudy", "lint", "no-such-study"])
