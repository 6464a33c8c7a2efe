"""The separation between program expressions and relational expressions.

A relational expression (``B*``) has the grammar of a program expression
(``B``); only its reads differ, because each names its execution (``x<o>``,
``x<r>``, ``A<o>[i]``).  These tests pin that the two kinds never mix: the
parser rejects a tagged read where a program expression is expected and an
untagged read where a relational one is, with the messages below, and the
translation into formulas rejects either kind of read in the wrong mode.
"""

import pytest

from repro.lang import builder as b
from repro.lang.parser import (
    ParseError,
    parse_bool,
    parse_program,
    parse_rel_bool,
    parse_statement,
)
from repro.logic.formula import Tag
from repro.logic.translate import formula_of_bool, formula_of_rel_bool

_PARSERS = {
    "bool": parse_bool,
    "rel_bool": parse_rel_bool,
    "statement": parse_statement,
    "program": parse_program,
}

#: ``(parser, text, message)``: a tagged read in a program expression.
TAGGED_IN_PROGRAM = [
    ("bool", "x<o> < 1", "expected 'EOF' but found '>' (line 1, column 4)"),
    ("bool", "A<r>[0] == 1", "expected 'EOF' but found '>' (line 1, column 4)"),
    ("statement", "y = x<o>;", "expected ';' but found '<' (line 1, column 6)"),
    ("statement", "A[0] = x<r>;", "expected ';' but found '<' (line 1, column 9)"),
    ("statement", "if (x<o> < 1) { skip; }", "expected ')' but found '>' (line 1, column 8)"),
    (
        "statement",
        "while (x<o> < 1) { skip; }",
        "expected ')' but found '>' (line 1, column 11)",
    ),
    ("statement", "assert x<o> == 1;", "expected ';' but found '>' (line 1, column 11)"),
]

#: ``(parser, text, message)``: an untagged read in a relational expression.
UNTAGGED_IN_RELATIONAL = [
    ("rel_bool", "x < 1", "expected a relational boolean expression (line 1, column 1)"),
    ("rel_bool", "A[0] == 1", "expected a relational boolean expression (line 1, column 1)"),
    (
        "statement",
        "relate l: x == 1;",
        "expected a relational boolean expression (line 1, column 11)",
    ),
    (
        "statement",
        "relate l: x<o> == y;",
        "expected a relational boolean expression (line 1, column 11)",
    ),
    (
        "statement",
        "while (x < 1) rel_invariant (x == 1) { skip; }",
        "expected a relational boolean expression (line 1, column 30)",
    ),
    (
        "program",
        "rel_requires (x == 1); skip;",
        "expected a relational boolean expression (line 1, column 15)",
    ),
]

#: Other malformed input, whose messages must not depend on the expression kind.
MALFORMED = [
    ("bool", "x <", "expected a boolean expression (line 1, column 1)"),
    ("bool", "(x < 1", "expected ')' but found '' (line 1, column 7)"),
    ("bool", ")", "expected a boolean expression (line 1, column 1)"),
    ("bool", "x + ", "expected a boolean expression (line 1, column 1)"),
    ("rel_bool", "x<q> < 1", "expected a relational boolean expression (line 1, column 1)"),
    ("rel_bool", "x<o> <", "expected a relational boolean expression (line 1, column 1)"),
    ("rel_bool", ")", "expected a relational boolean expression (line 1, column 1)"),
    ("rel_bool", "x<o> + ", "expected a relational boolean expression (line 1, column 1)"),
    ("rel_bool", "(x<o> < 1", "expected ')' but found '' (line 1, column 10)"),
    ("rel_bool", "x<o>", "expected a relational boolean expression (line 1, column 1)"),
    (
        "program",
        "rel_ensures (x<o> == ); skip;",
        "expected a relational boolean expression (line 1, column 14)",
    ),
]


@pytest.mark.parametrize(
    "parser, text, message", TAGGED_IN_PROGRAM + UNTAGGED_IN_RELATIONAL + MALFORMED
)
def test_parse_error_message(parser, text, message):
    with pytest.raises(ParseError) as caught:
        _PARSERS[parser](text)
    assert str(caught.value) == message


def test_both_kinds_parse_where_they_belong():
    program = parse_program(
        "rel_requires (x<o> == x<r>); "
        "while (x < 3) rel_invariant (x<o> <= x<r> + 1) { x = x + 1; } "
        "relate l: A<o>[x<o>] == A<r>[x<r>];"
    )
    assert program.rel_requires == b.same("x")
    assert parse_bool("x < 1") == b.lt("x", 1)


def test_untagged_read_in_relational_translation_is_rejected():
    with pytest.raises(TypeError):
        formula_of_rel_bool(b.lt("x", 1))


def test_tagged_read_in_program_translation_is_rejected():
    with pytest.raises(TypeError):
        formula_of_bool(parse_rel_bool("x<o> < 1"), Tag.ORIGINAL)
