"""Tests for the language AST, builder helpers and operator semantics."""

import pytest

from repro.lang import ast
from repro.lang import builder as b
from repro.lang.ast import (
    Assign,
    BinOp,
    BoolOp,
    CmpOp,
    Execution,
    IntLit,
    IntOp,
    Relate,
    Relax,
    Seq,
    Skip,
    Var,
    While,
)


class TestIntOp:
    def test_add_sub_mul(self):
        assert IntOp.ADD.apply(2, 3) == 5
        assert IntOp.SUB.apply(2, 3) == -1
        assert IntOp.MUL.apply(4, -3) == -12

    def test_floor_division(self):
        assert IntOp.DIV.apply(7, 2) == 3
        assert IntOp.DIV.apply(-7, 2) == -4

    def test_modulo(self):
        assert IntOp.MOD.apply(7, 3) == 1
        assert IntOp.MOD.apply(-7, 3) == 2

    def test_min_max(self):
        assert IntOp.MIN.apply(2, 5) == 2
        assert IntOp.MAX.apply(2, 5) == 5

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            IntOp.DIV.apply(1, 0)


class TestCmpOp:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            (CmpOp.LT, 1, 2, True),
            (CmpOp.LE, 2, 2, True),
            (CmpOp.GT, 3, 2, True),
            (CmpOp.GE, 1, 2, False),
            (CmpOp.EQ, 4, 4, True),
            (CmpOp.NE, 4, 4, False),
        ],
    )
    def test_apply(self, op, left, right, expected):
        assert op.apply(left, right) is expected

    @pytest.mark.parametrize("op", list(CmpOp))
    def test_negate_is_involution_on_semantics(self, op):
        for left in range(-2, 3):
            for right in range(-2, 3):
                assert op.negate().apply(left, right) == (not op.apply(left, right))

    @pytest.mark.parametrize("op", list(CmpOp))
    def test_flip_swaps_operands(self, op):
        for left in range(-2, 3):
            for right in range(-2, 3):
                assert op.flip().apply(right, left) == op.apply(left, right)


class TestBoolOp:
    def test_implication_truth_table(self):
        assert BoolOp.IMPLIES.apply(True, False) is False
        assert BoolOp.IMPLIES.apply(False, False) is True
        assert BoolOp.IMPLIES.apply(True, True) is True

    def test_iff(self):
        assert BoolOp.IFF.apply(True, True) is True
        assert BoolOp.IFF.apply(True, False) is False


class TestConstructors:
    def test_seq_empty_is_skip(self):
        assert ast.seq() == Skip()

    def test_seq_single_returns_statement(self):
        stmt = Assign("x", IntLit(1))
        assert ast.seq(stmt) is stmt

    def test_seq_right_associates(self):
        s1, s2, s3 = Assign("a", IntLit(1)), Assign("b", IntLit(2)), Assign("c", IntLit(3))
        result = ast.seq(s1, s2, s3)
        assert isinstance(result, Seq)
        assert result.first == s1
        assert isinstance(result.second, Seq)

    def test_conj_empty_is_true(self):
        assert ast.conj() == ast.TRUE

    def test_disj_empty_is_false(self):
        assert ast.disj() == ast.FALSE

    def test_int_expr_coercions(self):
        assert ast.int_expr(5) == IntLit(5)
        assert ast.int_expr("x") == Var("x")
        expr = BinOp(IntOp.ADD, IntLit(1), IntLit(2))
        assert ast.int_expr(expr) is expr

    def test_int_expr_rejects_bool(self):
        with pytest.raises(TypeError):
            ast.int_expr(True)

    def test_original_and_relaxed_tags(self):
        assert b.o("x").execution is Execution.ORIGINAL
        assert b.r("x").execution is Execution.RELAXED


class TestBuilder:
    def test_program_collects_statements(self):
        program = b.program("p", b.assign("x", 1), b.assert_(b.ge("x", 0)))
        statements = list(program.statements())
        assert any(isinstance(stmt, Assign) for stmt in statements)

    def test_relate_labels(self):
        program = b.program(
            "p",
            b.relate("one", b.same("x")),
            b.relate("two", b.same("y")),
        )
        assert program.relate_labels() == ("one", "two")

    def test_within_builds_two_sided_bound(self):
        condition = b.within("x", 3)
        text = str(condition)
        assert "x<o>" in text and "x<r>" in text

    def test_all_same_conjoins(self):
        condition = b.all_same("x", "y")
        assert "x<o>" in str(condition) and "y<r>" in str(condition)

    def test_while_accepts_invariants(self):
        loop = b.while_(
            b.lt("i", "n"),
            b.assign("i", b.add("i", 1)),
            invariant=b.le("i", "n"),
            rel_invariant=b.same("i"),
        )
        assert isinstance(loop, While)
        assert loop.invariant is not None
        assert loop.rel_invariant is not None

    def test_relax_single_target_string(self):
        stmt = b.relax("x", b.true)
        assert isinstance(stmt, Relax)
        assert stmt.targets == ("x",)

    def test_havoc_multiple_targets(self):
        stmt = b.havoc(["x", "y"], b.true)
        assert stmt.targets == ("x", "y")


class TestNodeTraversal:
    def test_walk_visits_all_nodes(self):
        program = b.program(
            "p",
            b.assign("x", b.add("x", 1)),
            b.if_(b.gt("x", 0), b.assign("y", "x"), b.skip),
        )
        nodes = list(program.body.walk())
        # The assignment target is a plain string, but every expression node is
        # reachable, including the Var read inside the if's then-branch.
        variable_reads = [node.name for node in nodes if isinstance(node, Var)]
        assert variable_reads.count("x") >= 2

    def test_str_representations(self):
        stmt = b.relate("l", b.same("x"))
        assert "relate l" in str(stmt)
        assert "skip" == str(Skip())
        assert "havoc" in str(b.havoc("x", b.true))
