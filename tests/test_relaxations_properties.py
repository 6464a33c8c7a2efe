"""Property-based tests (hypothesis) for the relaxation transformations.

Satellite properties for every transform in ``repro.relaxations.transforms``:

* the transformed program is statically well-formed,
* it pretty-prints to concrete syntax that re-parses to an equal AST
  (modulo the semantically irrelevant association of ``Seq``),
* every inserted ``relax`` statement references only in-scope variables
  (targets and predicate variables are declared by the transformed program),
* every loop and branch keeps its annotations (``invariant``,
  ``rel_invariant``, ``diverge``) and the program keeps its declarations
  and header clauses.

The program generators live in the shared ``tests/strategies.py`` module
(also consumed by the formula-core and fuzz-synthesizer suites).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import (
    base_programs,
    flatten_stmt as _flatten,
    transform_applications,
    transform_pairs,
)

from repro.lang.analysis import bool_vars, check_program
from repro.lang.ast import If, Program, While
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.relaxations.transforms import RelaxationResult
from repro.relaxations.sites import apply_site, discover_sites


def _annotations(program: Program):
    """Each loop's and branch's condition with its annotations, in order."""
    return [
        (
            type(node).__name__,
            node.condition,
            getattr(node, "invariant", None),
            getattr(node, "rel_invariant", None),
            node.diverge,
        )
        for node in program.body.walk()
        if isinstance(node, (If, While))
    ]


def _clauses(program: Program):
    return (
        program.arrays,
        program.shared,
        program.requires,
        program.ensures,
        program.rel_requires,
        program.rel_ensures,
    )


class TestTransformProperties:
    @settings(max_examples=80, deadline=None)
    @given(transform_pairs())
    def test_transforms_keep_annotations_and_clauses(self, pair):
        program, result = pair
        assert _annotations(result.program) == _annotations(program)
        assert _clauses(result.program) == _clauses(program)

    @settings(max_examples=60, deadline=None)
    @given(transform_applications())
    def test_transformed_program_is_well_formed(self, result: RelaxationResult):
        report = check_program(result.program, strict_declarations=True)
        assert report.ok, report.errors

    @settings(max_examples=60, deadline=None)
    @given(transform_applications())
    def test_pretty_print_reparses_to_equal_ast(self, result: RelaxationResult):
        text = pretty_program(result.program)
        reparsed = parse_program(text, name=result.program.name)
        assert _flatten(reparsed.body) == _flatten(result.program.body)
        assert reparsed.variables == result.program.variables
        assert reparsed.arrays == result.program.arrays
        # A second round trip is a fixpoint.
        assert pretty_program(reparsed) == text.replace(
            f"// program: {result.program.name}", f"// program: {reparsed.name}"
        )

    @settings(max_examples=60, deadline=None)
    @given(transform_applications())
    def test_inserted_relax_references_only_in_scope_variables(
        self, result: RelaxationResult
    ):
        declared = set(result.program.variables) | set(result.program.arrays)
        assert result.inserted_relax, "every transform inserts/rewrites a relax"
        for relax in result.inserted_relax:
            assert relax in list(result.program.body.walk())
            assert set(relax.targets) <= declared
            assert bool_vars(relax.predicate) <= declared

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_discovered_sites_apply_cleanly(self, data):
        program, _loop, _read, _compute, _counter = data.draw(base_programs())
        for site in discover_sites(program):
            applied = apply_site(program, site)
            assert check_program(applied.program).ok
            assert _annotations(applied.program) == _annotations(program)
            assert _clauses(applied.program) == _clauses(program)
            reparsed = parse_program(pretty_program(applied.program))
            assert _flatten(reparsed.body) == _flatten(applied.program.body)
