"""Spans from the printer: ``print_with_spans`` gives what the parser would.

The verify path (``ensure_source``, called by every collect) takes a
builder-built or transformed program's source text and spans from the
pretty-printer instead of parsing the printed text.  That is only sound
while the printer's result equals ``parse_program(pretty_program(p))``
exactly — the same body with the same ``Seq`` nesting, the same span on
every node, the same source text and program span — and equals the input
up to ``Seq`` association.  The differential tests below pin both, over
generated programs and over every relaxation candidate of every study at
depth 2; the lint and shrink tests cover the places that still parse.
"""

import dataclasses

import pytest
from hypothesis import given, settings

from casestudy_ids import study_id
from strategies import any_programs, base_programs, flatten_stmt, transform_applications

from repro import telemetry
from repro.casestudies import all_case_studies, get_case_study, lint_case_study
from repro.casestudies.base import CaseStudy
from repro.explore.candidates import enumerate_candidates
from repro.explore.explorer import explore
from repro.fuzz import shrink_program
from repro.lang import builder as b
from repro.lang import parser as parser_module
from repro.lang.ast import Assign, Program, Var, While
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program, pretty_stmt, print_with_spans
from repro.lang.source import ensure_source
from repro.telemetry import TelemetrySession


def all_nodes(node):
    """Every node in pre-order, loop annotations included (``walk`` skips them)."""
    yield node
    if isinstance(node, While):
        for annotation in (node.invariant, node.rel_invariant):
            if annotation is not None:
                yield from all_nodes(annotation)
    for child in node.children():
        yield from all_nodes(child)


def assert_printer_is_the_parser(program: Program) -> Program:
    printed = print_with_spans(program)
    parsed = parse_program(pretty_program(program), name=program.name)
    assert printed.source == parsed.source
    # Seq equality is structural, so == also checks the Seq nesting.
    assert printed.body == parsed.body
    assert (printed.name, printed.variables, printed.arrays) == (
        parsed.name,
        parsed.variables,
        parsed.arrays,
    )
    printed_nodes = list(all_nodes(printed.body))
    parsed_nodes = list(all_nodes(parsed.body))
    assert len(printed_nodes) == len(parsed_nodes)
    for printed_node, parsed_node in zip(printed_nodes, parsed_nodes):
        assert type(printed_node) is type(parsed_node)
        assert printed_node.span == parsed_node.span, printed_node
    assert printed.span == parsed.span == printed.body.span
    # The check ensure_source used to run on every call: the result is the
    # input up to Seq association.
    assert flatten_stmt(printed.body) == flatten_stmt(program.body)
    return printed


class TestPrinterMatchesParser:
    @settings(max_examples=150, deadline=None)
    @given(any_programs())
    def test_any_program(self, program):
        assert_printer_is_the_parser(program)

    @settings(max_examples=40, deadline=None)
    @given(base_programs())
    def test_base_programs(self, drawn):
        assert_printer_is_the_parser(drawn[0])

    @settings(max_examples=60, deadline=None)
    @given(transform_applications())
    def test_transformed_programs(self, result):
        assert_printer_is_the_parser(result.program)

    @pytest.mark.parametrize("case", all_case_studies(), ids=study_id)
    def test_every_study_candidate_at_depth_two(self, case):
        program = case.build_program()
        enumeration = enumerate_candidates(program, case.relaxation_sites, depth=2)
        assert len(enumeration.candidates) > 1
        for candidate in enumeration.candidates:
            assert_printer_is_the_parser(candidate.program)

    def test_negative_literal_and_parentheses_conventions(self):
        program = b.program(
            "demo",
            b.assign("x", b.add(b.mul("y", -3), -4)),
            variables=("x", "y"),
        )
        printed = assert_printer_is_the_parser(program)
        line = printed.source.splitlines()[2]
        assert line == "x = ((y * -3) + -4);"

        def excerpt(node):
            return line[node.span.column - 1 : node.span.end_column - 1]

        value = printed.body.value
        # A parenthesised expression spans the contents of its parentheses;
        # a negative literal spans its sign.
        assert excerpt(printed.body) == line
        assert excerpt(value) == "(y * -3) + -4"
        assert excerpt(value.left) == "y * -3"
        assert excerpt(value.left.right) == "-3"
        assert excerpt(value.right) == "-4"


class TestInputsAreUntouched:
    def test_study_nodes_keep_their_own_spans(self):
        case = get_case_study("lu")
        program = case.build_program()
        before = [(node, node.span) for node in all_nodes(program.body)]
        candidates = enumerate_candidates(program, case.relaxation_sites, depth=1)
        for candidate in candidates.candidates[1:]:
            printed = print_with_spans(candidate.program)
            shared = {id(node) for node, _ in before}
            assert not any(id(node) in shared for node in all_nodes(printed.body))
        assert [(node, node.span) for node in all_nodes(program.body)] == before

    def test_builder_program_stays_spanless(self):
        program = b.program("demo", b.assign("x", 1), b.assert_(b.eq("x", 1)))
        print_with_spans(program)
        assert program.source is None
        assert all(node.span is None for node in all_nodes(program.body))


class TestEnsureSource:
    def test_parsed_program_is_returned_as_is(self):
        program = get_case_study("lu").build_program()
        assert ensure_source(program) is program

    def test_builder_program_gets_printed_source_and_spans(self):
        program = b.program("demo", b.assign("x", 1), b.assert_(b.eq("x", 1)))
        ensured = ensure_source(program)
        assert ensured.source == pretty_program(program)
        assert ensured.body == program.body
        assert all(node.span is not None for node in all_nodes(ensured.body))

    def test_stale_source_over_a_spanless_body_is_reprinted(self):
        program = parse_program("vars x; x = 1; x = 2;")
        stale = dataclasses.replace(program, body=b.assign("x", 3))
        assert ensure_source(stale).source == pretty_program(stale)

    def test_ensure_source_never_parses(self, monkeypatch):
        def no_parse(text):
            raise AssertionError("ensure_source must not parse")

        monkeypatch.setattr(parser_module, "tokenize", no_parse)
        program = b.program("demo", b.assign("x", 1), b.assume(b.le("x", 2)))
        assert ensure_source(program).source == pretty_program(program)


class TestShrinkDropsStaleSource:
    def test_shrunk_spans_index_into_its_own_text(self):
        program = parse_program("vars x, y; x = 1; y = 2; assert (x == 1);")

        def still_fails(source):
            return "assert" in source

        shrunk = shrink_program(program, still_fails)
        assert [type(node).__name__ for node in shrunk.statements()] == ["Assert"]
        assert shrunk.source is None
        ensured = ensure_source(shrunk)
        assert ensured is not shrunk
        assert ensured.source == pretty_program(shrunk)
        lines = ensured.source.splitlines()
        for stmt in ensured.statements():
            span = stmt.span
            excerpt = lines[span.line - 1][span.column - 1 : span.end_column - 1]
            assert excerpt == pretty_stmt(stmt)


class TestLintKeepsTheGuard:
    def test_registered_studies_round_trip(self):
        for case in all_case_studies():
            report = lint_case_study(case)
            assert not [f for f in report.findings if f.check == "program-parses"]

    def test_program_that_does_not_round_trip_is_reported(self, monkeypatch):
        # "a + b" prints as three tokens and parses back as a BinOp.
        program = b.program(
            "broken", Assign("x", Var("a + b")), variables=("x", "a", "b")
        )
        monkeypatch.setattr(CaseStudy, "build_program", lambda self: program)
        report = lint_case_study(get_case_study("lu"))
        findings = [f for f in report.findings if f.check == "program-parses"]
        assert findings and findings[0].level == "error"
        assert "round-trip" in findings[0].message


class TestNoParseOnTheVerifyPath:
    def test_explore_parses_only_the_study_source(self, monkeypatch):
        case = get_case_study("lu")
        parsed = []
        tokenize = parser_module.tokenize

        def recording(text):
            parsed.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser_module, "tokenize", recording)
        report = explore(case.name, depth=2, samples=2)
        assert len(report.outcomes) > 1
        # build_program, plus spec.source_program unless already cached
        assert 1 <= len(parsed) <= 2
        assert set(parsed) == {case.source}

    def test_parse_program_is_counted(self):
        with telemetry.activated(TelemetrySession()) as session:
            parse_program("x = 1;")
            parse_program("y = 2;")
        assert session.counters["lang.parse"] == 2
