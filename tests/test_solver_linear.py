"""Tests for linear-term normalisation."""

import pytest

from repro import telemetry
from repro.logic.formula import Atom, Const, Div, Divides, Min, Mul, Rel, Select, Symbol, var
from repro.solver.linear import (
    LinearTerm,
    NonLinearError,
    atom_linear,
    is_linear,
    linearize,
)
from repro.logic.formula import sym
from repro.telemetry import TelemetrySession


class TestLinearTerm:
    def test_of_drops_zero_coefficients(self):
        term = LinearTerm.of({sym("x"): 0, sym("y"): 2}, 1)
        assert term.symbols() == {sym("y")}

    def test_add_and_negate(self):
        a = LinearTerm.of({sym("x"): 2}, 1)
        b = LinearTerm.of({sym("x"): -2, sym("y"): 1}, 3)
        total = a.add(b)
        assert total.coefficient(sym("x")) == 0
        assert total.coefficient(sym("y")) == 1
        assert total.constant == 4
        assert a.negate().constant == -1

    def test_scale(self):
        term = LinearTerm.of({sym("x"): 3}, -2).scale(2)
        assert term.coefficient(sym("x")) == 6
        assert term.constant == -4
        assert LinearTerm.of({sym("x"): 1}).scale(0).is_constant()

    def test_substitute(self):
        term = LinearTerm.of({sym("x"): 2, sym("y"): 1}, 0)
        replaced = term.substitute(sym("x"), LinearTerm.of({sym("z"): 1}, 5))
        assert replaced.coefficient(sym("z")) == 2
        assert replaced.coefficient(sym("x")) == 0
        assert replaced.constant == 10

    def test_evaluate(self):
        term = LinearTerm.of({sym("x"): 2, sym("y"): -1}, 7)
        assert term.evaluate({sym("x"): 3, sym("y"): 4}) == 9

    def test_evaluate_missing_symbol_raises(self):
        with pytest.raises(KeyError):
            LinearTerm.of({sym("x"): 1}).evaluate({})

    def test_content(self):
        assert LinearTerm.of({sym("x"): 4, sym("y"): 6}).content() == 2
        assert LinearTerm.constant_term(5).content() == 0

    def test_to_term_roundtrip_through_linearize(self):
        term = LinearTerm.of({sym("x"): 3, sym("y"): -1}, 4)
        assert linearize(term.to_term()) == term


class TestLinearize:
    def test_simple_expression(self):
        term = linearize(var("x") * 2 + var("y") - Const(3))
        assert term.coefficient(sym("x")) == 2
        assert term.coefficient(sym("y")) == 1
        assert term.constant == -3

    def test_constant_times_variable_either_order(self):
        assert linearize(Mul(Const(3), var("x"))).coefficient(sym("x")) == 3
        assert linearize(Mul(var("x"), Const(3))).coefficient(sym("x")) == 3

    def test_nonlinear_product_raises(self):
        with pytest.raises(NonLinearError):
            linearize(Mul(var("x"), var("y")))

    def test_division_must_be_eliminated_first(self):
        with pytest.raises(NonLinearError):
            linearize(Div(var("x"), Const(2)))

    def test_min_select_not_linear(self):
        assert not is_linear(Min(var("x"), var("y")))
        assert not is_linear(Select(Symbol("A"), var("i")))

    def test_is_linear_true(self):
        assert is_linear(var("x") + 4 * var("y"))


class TestAtomLinear:
    """The per-atom linear form cached on the interned node."""

    def test_rows_per_relation(self):
        left, right = var("am_x") * 2 + var("am_y"), Const(3)
        term = linearize(left).subtract(linearize(right))
        one = LinearTerm.constant_term(1)
        expected = {
            Rel.LT: (term.add(one),),
            Rel.LE: (term,),
            Rel.GT: (term.negate().add(one),),
            Rel.GE: (term.negate(),),
            Rel.EQ: (term, term.negate()),
            Rel.NE: (),
        }
        for rel, rows in expected.items():
            form = atom_linear(Atom(rel, left, right))
            assert form.term == term
            assert form.rows == rows, rel

    def test_divides_term(self):
        form = atom_linear(Divides(3, var("am_z") + Const(1)))
        assert form.term == LinearTerm.of({sym("am_z"): 1}, 1)
        assert form.rows == ()

    def test_memo_is_per_node_and_counted_once(self):
        node = Atom(Rel.LE, var("am_fresh") * 3, var("am_other"))
        with telemetry.activated(TelemetrySession()) as session:
            first = atom_linear(node)
            assert atom_linear(node) is first
            assert atom_linear(Atom(Rel.LE, var("am_fresh") * 3, var("am_other"))) is first
        assert session.counters["solver.linearize.misses"] == 1

    def test_non_linear_atom_raises_every_time(self):
        node = Atom(Rel.LT, Mul(var("am_p"), var("am_q")), Const(0))
        with telemetry.activated(TelemetrySession()) as session:
            messages = []
            for _ in range(2):
                with pytest.raises(NonLinearError) as error:
                    atom_linear(node)
                messages.append(str(error.value))
        assert messages[0] == messages[1] and "non-linear" in messages[0]
        assert session.counters["solver.linearize.misses"] == 1
