"""Tests for the lexer, parser and pretty-printer round-trip."""

import pytest

from repro.lang.ast import (
    ArrayAssign,
    Assert,
    Assign,
    Assume,
    BoolOp,
    CmpOp,
    Havoc,
    If,
    IntOp,
    Relate,
    Relax,
    Seq,
    Skip,
    While,
)
from repro.lang.parser import (
    ParseError,
    parse_bool,
    parse_expr,
    parse_program,
    parse_rel_bool,
    parse_statement,
    tokenize,
)
from repro.lang.pretty import pretty_program, pretty_stmt


class TestTokenizer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("relax while x_1 st")
        kinds = [(token.kind, token.text) for token in tokens[:-1]]
        assert ("KEYWORD", "relax") in kinds
        assert ("IDENT", "x_1") in kinds

    def test_comments_are_skipped(self):
        tokens = tokenize("x = 1; // a comment\n y = 2;")
        texts = [token.text for token in tokens]
        assert "comment" not in " ".join(texts)

    def test_multi_character_operators(self):
        tokens = tokenize("==> <= >= == != && || <=>")
        texts = [token.text for token in tokens if token.kind == "OP"]
        assert texts == ["==>", "<=", ">=", "==", "!=", "&&", "||", "<=>"]

    def test_unexpected_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("x = 1; @")


class TestExpressionParsing:
    def test_precedence_multiplication_binds_tighter(self):
        expr = parse_expr("1 + 2 * 3")
        assert expr.op is IntOp.ADD
        assert expr.right.op is IntOp.MUL

    def test_unary_minus_literal(self):
        assert parse_expr("-5").value == -5

    def test_unary_minus_variable(self):
        expr = parse_expr("-x")
        assert expr.op is IntOp.SUB

    def test_min_max_calls(self):
        expr = parse_expr("min(x, max(y, 3))")
        assert expr.op is IntOp.MIN
        assert expr.right.op is IntOp.MAX

    def test_array_read(self):
        expr = parse_expr("A[i + 1]")
        assert expr.array == "A"

    def test_parenthesised_arithmetic(self):
        expr = parse_expr("(x + y) * 2")
        assert expr.op is IntOp.MUL


class TestBooleanParsing:
    def test_comparison(self):
        cond = parse_bool("x + 1 < y")
        assert cond.op is CmpOp.LT

    def test_parenthesised_comparison_with_connective(self):
        cond = parse_bool("(x < y) && !(x == 3)")
        assert cond.op is BoolOp.AND

    def test_parenthesised_arithmetic_inside_comparison(self):
        cond = parse_bool("(x + y) < z")
        assert cond.op is CmpOp.LT

    def test_implication(self):
        cond = parse_bool("x < 0 ==> y > 0")
        assert cond.op is BoolOp.IMPLIES

    def test_true_false(self):
        assert parse_bool("true").value is True
        assert parse_bool("false").value is False


class TestRelationalParsing:
    def test_tagged_variables(self):
        cond = parse_rel_bool("x<o> == x<r>")
        assert cond.op is CmpOp.EQ

    def test_tagged_array_read(self):
        cond = parse_rel_bool("A<o>[i<o>] <= A<r>[i<r>]")
        assert cond.op is CmpOp.LE

    def test_paper_swish_relate(self):
        text = "(num_r<o> < 10 && num_r<o> == num_r<r>) || (10 <= num_r<o> && 10 <= num_r<r>)"
        cond = parse_rel_bool(text)
        assert cond.op is BoolOp.OR

    def test_bad_tag_rejected(self):
        with pytest.raises(ParseError):
            parse_rel_bool("x<q> == 1")


class TestStatementParsing:
    def test_assignment(self):
        stmt = parse_statement("x = x + 1;")
        assert isinstance(stmt, Assign)

    def test_array_assignment(self):
        stmt = parse_statement("A[i] = 2 * x;")
        assert isinstance(stmt, ArrayAssign)

    def test_havoc_and_relax(self):
        stmt = parse_statement("havoc (x, y) st (x < y); relax (z) st (z >= 0);")
        assert isinstance(stmt, Seq)
        assert isinstance(stmt.first, Havoc)
        assert isinstance(stmt.second, Relax)

    def test_assert_assume_relate(self):
        stmt = parse_statement("assert x > 0; assume y > 0; relate l: x<o> == x<r>;")
        kinds = [type(node) for node in stmt.walk()]
        assert Assert in kinds and Assume in kinds and Relate in kinds

    def test_if_else(self):
        stmt = parse_statement("if (x < 0) { x = 0 - x; } else { skip; }")
        assert isinstance(stmt, If)
        assert isinstance(stmt.else_branch, Skip)

    def test_if_without_else(self):
        stmt = parse_statement("if (x < 0) { x = 0; }")
        assert isinstance(stmt, If)
        assert isinstance(stmt.else_branch, Skip)

    def test_while_with_invariants(self):
        stmt = parse_statement(
            "while (i < n) invariant (i <= n) rel_invariant (i<o> == i<r>) { i = i + 1; }"
        )
        assert isinstance(stmt, While)
        assert stmt.invariant is not None
        assert stmt.rel_invariant is not None

    def test_missing_semicolon_raises(self):
        with pytest.raises(ParseError):
            parse_statement("x = 1")


class TestProgramParsing:
    SOURCE = """
    vars x, y, e;
    arrays A;
    e = 2;
    y = A[0];
    relax (x) st (y - e <= x && x <= y + e);
    relate acc: (x<o> - x<r> <= e<o>) && (x<r> - x<o> <= e<o>);
    assert x <= y + 2;
    """

    def test_declarations(self):
        program = parse_program(self.SOURCE, "demo")
        assert program.variables == ("x", "y", "e")
        assert program.arrays == ("A",)

    def test_roundtrip_through_pretty_printer(self):
        program = parse_program(self.SOURCE, "demo")
        reparsed = parse_program(pretty_program(program), "demo")
        assert reparsed.body == program.body
        assert reparsed.variables == program.variables

    def test_roundtrip_preserves_while_annotations(self):
        source = """
        i = 0;
        while (i < n) invariant (i <= n) rel_invariant (i<o> == i<r>) { i = i + 1; }
        """
        stmt = parse_statement(source)
        reparsed = parse_statement(pretty_stmt(stmt))
        assert reparsed == stmt

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("x = ;")
        assert "line" in str(excinfo.value)


class TestSpecificationClauses:
    SOURCE = """
    vars x, y;
    arrays A, B;
    shared A;
    requires (0 <= x);
    ensures (y == 1);
    rel_requires (x<o> == x<r>);
    rel_ensures (y<o> == y<r>);
    relax (x) st (0 <= x);
    if (x > 0) diverge (y == 1) (y == 1) { y = 1; } else { y = A[0]; }
    while (x < 3) invariant (true) diverge (true) (x >= 3) { x = x + 1; }
    """

    def test_header_clauses(self):
        program = parse_program(self.SOURCE)
        assert program.shared == ("A",)
        assert program.requires == parse_bool("0 <= x")
        assert program.ensures == parse_bool("y == 1")
        assert program.rel_requires == parse_rel_bool("x<o> == x<r>")
        assert program.rel_ensures == parse_rel_bool("y<o> == y<r>")

    def test_absent_clauses_are_none(self):
        program = parse_program("vars x; x = 1;")
        assert program.shared == ()
        assert (program.requires, program.ensures) == (None, None)
        assert (program.rel_requires, program.rel_ensures) == (None, None)

    def test_diverge_annotations(self):
        program = parse_program(self.SOURCE)
        branch, loop = [
            node for node in program.body.walk() if isinstance(node, (If, While))
        ]
        assert branch.diverge.original_post == parse_bool("y == 1")
        assert loop.invariant == parse_bool("true")
        assert loop.diverge.relaxed_post == parse_bool("x >= 3")

    def test_roundtrip_preserves_clauses_and_annotations(self):
        program = parse_program(self.SOURCE, "demo")
        assert parse_program(pretty_program(program), "demo") == program

    def test_shared_array_must_be_declared(self):
        with pytest.raises(ParseError, match="shared array 'B' is not declared"):
            parse_program("vars x; arrays A; shared A, B; x = 1;")
        with pytest.raises(ParseError, match="shared array 'A'"):
            parse_program("shared A; skip;")

    def test_clauses_come_in_order(self):
        with pytest.raises(ParseError):
            parse_program("vars x; ensures (x == 1); requires (x == 1); x = 1;")
