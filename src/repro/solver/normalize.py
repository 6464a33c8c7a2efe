"""Formula normalisation passes used by the decision procedures.

The pipeline applied by :class:`repro.solver.interface.Solver` is:

1. :func:`eliminate_compound_terms` — remove ``min`` / ``max`` /
   ``if-then-else`` terms (by case splits) and constant-divisor ``div`` /
   ``mod`` terms (by introducing existentially quantified quotients, which is
   sound in any polarity because the quotient is uniquely determined).
2. :func:`ackermannize` — replace array ``select`` terms over symbolic
   arrays with fresh integer symbols plus functional-consistency constraints
   (Ackermann's reduction), valid because our obligations never store into
   arrays after weakest-precondition expansion.
3. :func:`to_nnf` — negation normal form, expanding ``==>`` and ``<=>``.
4. :func:`strip_positive_existentials` — skolemise the existential
   quantifiers of a satisfiability query that sit below no universal, by
   renaming the bound variables to fresh free symbols in one pass.
5. :class:`DnfWalk` — a depth-first search of the disjunctive normal form
   (with :func:`to_dnf`'s size cap and cube order), pruned by an interval
   box, whose surviving cubes are decided by the linear-arithmetic core.
   :func:`to_dnf` builds the same cubes as a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from ..logic.formula import (
    Add,
    And,
    Atom,
    Const,
    Div,
    Divides,
    Exists,
    FALSE,
    FalseF,
    Forall,
    Formula,
    FreshSymbols,
    Iff,
    Implies,
    Ite,
    Max,
    Min,
    Mod,
    Mul,
    Not,
    Or,
    Rel,
    Select,
    Store,
    Sub,
    SymTerm,
    Symbol,
    TRUE,
    Term,
    TrueF,
    _free_of,
    _qdepth_of,
    conj,
    disj,
    free_symbols,
    neg,
    node_children,
    rebuild,
)
from ..logic.subst import substitute
from ..logic.traverse import iter_nodes, map_atom_terms, replace_node

if TYPE_CHECKING:
    from .lia import IntervalBox


class UnsupportedFormulaError(Exception):
    """Raised when a formula falls outside the supported fragment
    (e.g. division by a non-constant term)."""


class FormulaTooLargeError(Exception):
    """Raised when a normalisation pass would exceed its size budget."""


# ---------------------------------------------------------------------------
# Compound-term elimination (ite / min / max / div / mod)
# ---------------------------------------------------------------------------


def _find_compound(term: Term) -> Optional[Term]:
    """Return an innermost compound subterm of ``term`` or None."""
    children: Tuple[Term, ...]
    if isinstance(term, (Const, SymTerm)):
        return None
    if isinstance(term, (Add, Sub, Mul)):
        children = (term.left, term.right)
    elif isinstance(term, (Div, Mod, Min, Max)):
        children = (term.left, term.right)
    elif isinstance(term, Ite):
        children = (term.then_term, term.else_term)
    elif isinstance(term, Select):
        children = (term.index,)
    elif isinstance(term, Store):
        children = (term.index, term.value)
    else:
        raise TypeError(f"unknown term {term!r}")
    for child in children:
        inner = _find_compound(child)
        if inner is not None:
            return inner
    if isinstance(term, (Div, Mod, Min, Max, Ite)):
        return term
    return None


def _replace_term(term: Term, target: Term, replacement: Term) -> Term:
    """Replace every occurrence of ``target`` (structural = identity when
    interned); ``Ite`` conditions are left alone (handled by the caller)."""
    return replace_node(term, target, replacement)


def _atom_terms(formula: Formula) -> Tuple[Term, ...]:
    if isinstance(formula, Atom):
        return (formula.left, formula.right)
    if isinstance(formula, Divides):
        return (formula.term,)
    return ()


def _rebuild_atom(formula: Formula, target: Term, replacement: Term) -> Formula:
    if isinstance(formula, Atom):
        return Atom(
            formula.rel,
            _replace_term(formula.left, target, replacement),
            _replace_term(formula.right, target, replacement),
        )
    if isinstance(formula, Divides):
        return Divides(formula.divisor, _replace_term(formula.term, target, replacement))
    raise TypeError(f"not an atom: {formula!r}")


def eliminate_compound_terms(formula: Formula, fresh: Optional[FreshSymbols] = None) -> Formula:
    """Remove ite/min/max/div/mod terms from every atom of ``formula``."""
    if fresh is None:
        fresh = FreshSymbols([s.name for s in free_symbols(formula)])

    def process(f: Formula) -> Formula:
        if isinstance(f, (TrueF, FalseF)):
            return f
        if isinstance(f, (Atom, Divides)):
            return process_atom(f)
        if isinstance(f, And):
            return conj(*[process(op) for op in f.operands])
        if isinstance(f, Or):
            return disj(*[process(op) for op in f.operands])
        if isinstance(f, Not):
            return neg(process(f.operand))
        if isinstance(f, Implies):
            return Implies(process(f.antecedent), process(f.consequent))
        if isinstance(f, Iff):
            return Iff(process(f.left), process(f.right))
        if isinstance(f, Exists):
            return Exists(f.symbol, process(f.body))
        if isinstance(f, Forall):
            return Forall(f.symbol, process(f.body))
        raise TypeError(f"unknown formula {f!r}")

    def process_atom(atom: Formula) -> Formula:
        offender: Optional[Term] = None
        for term in _atom_terms(atom):
            offender = _find_compound(term)
            if offender is not None:
                break
        if offender is None:
            return atom
        if isinstance(offender, Min):
            condition = Atom(Rel.LE, offender.left, offender.right)
            replacement: Term = Ite(condition, offender.left, offender.right)
            return process_atom(_rebuild_atom(atom, offender, replacement))
        if isinstance(offender, Max):
            condition = Atom(Rel.GE, offender.left, offender.right)
            replacement = Ite(condition, offender.left, offender.right)
            return process_atom(_rebuild_atom(atom, offender, replacement))
        if isinstance(offender, Ite):
            condition = process(offender.condition)
            then_atom = process_atom(_rebuild_atom(atom, offender, offender.then_term))
            else_atom = process_atom(_rebuild_atom(atom, offender, offender.else_term))
            return disj(conj(condition, then_atom), conj(neg(condition), else_atom))
        if isinstance(offender, (Div, Mod)):
            divisor = offender.right
            if not isinstance(divisor, Const) or divisor.value == 0:
                raise UnsupportedFormulaError(
                    f"division/modulo by non-constant or zero divisor in {offender}"
                )
            d = divisor.value
            quotient = fresh.fresh("q")
            q_term = SymTerm(quotient)
            numerator = offender.left
            if d > 0:
                definition = conj(
                    Atom(Rel.LE, Mul(Const(d), q_term), numerator),
                    Atom(Rel.LT, numerator, Add(Mul(Const(d), q_term), Const(d))),
                )
            else:
                definition = conj(
                    Atom(Rel.GE, Mul(Const(d), q_term), numerator),
                    Atom(Rel.GT, numerator, Add(Mul(Const(d), q_term), Const(d))),
                )
            if isinstance(offender, Div):
                replacement = q_term
            else:
                replacement = Sub(numerator, Mul(Const(d), q_term))
            rebuilt = process_atom(_rebuild_atom(atom, offender, replacement))
            return Exists(quotient, conj(definition, rebuilt))
        raise AssertionError(f"unexpected compound term {offender!r}")

    return process(formula)


# ---------------------------------------------------------------------------
# Ackermann reduction of array selects
# ---------------------------------------------------------------------------


def _collect_selects(formula: Formula) -> List[Select]:
    """Collect distinct Select terms appearing in the formula, in a stable order.

    The sharing-aware post-order of :func:`~repro.logic.traverse.iter_nodes`
    visits children before parents (so a select's index selects come first)
    and each interned node once, which is exactly the historical
    first-occurrence ordering.
    """
    return [node for node in iter_nodes(formula) if isinstance(node, Select)]


@dataclass(frozen=True)
class AckermannResult:
    """The outcome of Ackermannising a satisfiability query."""

    formula: Formula
    constraints: Formula


def ackermannize(formula: Formula, fresh: Optional[FreshSymbols] = None) -> AckermannResult:
    """Apply Ackermann's reduction to the array selects of a SAT query.

    Every select ``A[i]`` is replaced by a fresh integer symbol, and for each
    pair of selects over the same array the functional-consistency constraint
    ``i == j  ==>  a_i == a_j`` is added.  The reduction is equisatisfiable
    with the original formula provided selects do not occur under quantifiers
    that bind their index variables; the caller checks that restriction.
    """
    selects = _collect_selects(formula)
    if not selects:
        return AckermannResult(formula, TRUE)
    bound = _bound_symbols(formula)
    if fresh is None:
        fresh = FreshSymbols([s.name for s in free_symbols(formula)] + [s.name for s in bound])
    select_map: Dict[Select, Symbol] = {}
    for select in selects:
        from ..logic.formula import term_symbols

        if term_symbols(select.index) & bound:
            raise UnsupportedFormulaError(
                f"array read {select} indexes a quantified variable; "
                "the Ackermann reduction does not apply"
            )
        tag = select.array.tag
        select_map[select] = fresh.fresh(f"{select.array.name}_at", tag)

    # Replace selects (innermost first is unnecessary: indices contain no selects
    # after replacement ordering below; handle nested indices by replacing longest first).
    ordered = sorted(select_map.items(), key=lambda kv: -_term_depth(kv[0]))
    rewritten = formula
    for select, symbol in ordered:
        rewritten = _replace_select(rewritten, select, SymTerm(symbol))

    constraints: List[Formula] = []
    by_array: Dict[Symbol, List[Select]] = {}
    for select in selects:
        by_array.setdefault(select.array, []).append(select)
    for array, group in by_array.items():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                left, right = group[i], group[j]
                index_eq = Atom(Rel.EQ, left.index, right.index)
                value_eq = Atom(Rel.EQ, SymTerm(select_map[left]), SymTerm(select_map[right]))
                constraints.append(Implies(index_eq, value_eq))
    constraint_formula = conj(*constraints) if constraints else TRUE
    # Constraint indices may themselves contain selects over other arrays; in our
    # fragment indices are scalar expressions, so no recursion is needed.
    return AckermannResult(rewritten, constraint_formula)


def _term_depth(term: Term) -> int:
    if isinstance(term, (Const, SymTerm)):
        return 1
    if isinstance(term, Select):
        return 1 + _term_depth(term.index)
    if isinstance(term, (Add, Sub, Mul, Div, Mod, Min, Max)):
        return 1 + max(_term_depth(term.left), _term_depth(term.right))
    if isinstance(term, Ite):
        return 1 + max(_term_depth(term.then_term), _term_depth(term.else_term))
    if isinstance(term, Store):
        return 1 + max(_term_depth(term.index), _term_depth(term.value))
    raise TypeError(f"unknown term {term!r}")


def _replace_select(formula: Formula, target: Select, replacement: Term) -> Formula:
    """Replace one collected select across the formula's atoms.

    Deterministic, so the traversal memoises across shared subformulas;
    untouched subtrees come back as the same interned node.
    """
    return map_atom_terms(
        formula, lambda term: _replace_term(term, target, replacement)
    )


def _bound_symbols(formula: Formula) -> Set[Symbol]:
    bound: Set[Symbol] = set()

    def visit(f: Formula) -> None:
        if isinstance(f, (Exists, Forall)):
            bound.add(f.symbol)
            visit(f.body)
        elif isinstance(f, (And, Or)):
            for op in f.operands:
                visit(op)
        elif isinstance(f, Not):
            visit(f.operand)
        elif isinstance(f, Implies):
            visit(f.antecedent)
            visit(f.consequent)
        elif isinstance(f, Iff):
            visit(f.left)
            visit(f.right)

    visit(formula)
    return bound


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------


def to_nnf(formula: Formula) -> Formula:
    """Negation normal form: negations pushed to atoms, ``==>``/``<=>`` expanded.

    The pass is deterministic, so it memoises per ``(interned node,
    polarity)``: a subformula shared by many conjuncts (or revisited in both
    polarities by an ``<=>`` expansion) is normalised once per polarity.
    """
    return _nnf(formula, False, {})


def _nnf(formula: Formula, negated: bool, memo: Dict[Tuple[int, bool], Formula]) -> Formula:
    key = (id(formula), negated)
    cached = memo.get(key)
    if cached is not None:
        return cached
    result = _nnf_uncached(formula, negated, memo)
    memo[key] = result
    return result


def _nnf_uncached(
    formula: Formula, negated: bool, memo: Dict[Tuple[int, bool], Formula]
) -> Formula:
    if isinstance(formula, TrueF):
        return FALSE if negated else TRUE
    if isinstance(formula, FalseF):
        return TRUE if negated else FALSE
    if isinstance(formula, Atom):
        if negated:
            return Atom(formula.rel.negate(), formula.left, formula.right)
        return formula
    if isinstance(formula, Divides):
        return Not(formula) if negated else formula
    if isinstance(formula, Not):
        return _nnf(formula.operand, not negated, memo)
    if isinstance(formula, And):
        parts = tuple(_nnf(op, negated, memo) for op in formula.operands)
        return disj(*parts) if negated else conj(*parts)
    if isinstance(formula, Or):
        parts = tuple(_nnf(op, negated, memo) for op in formula.operands)
        return conj(*parts) if negated else disj(*parts)
    if isinstance(formula, Implies):
        if negated:
            return conj(_nnf(formula.antecedent, False, memo), _nnf(formula.consequent, True, memo))
        return disj(_nnf(formula.antecedent, True, memo), _nnf(formula.consequent, False, memo))
    if isinstance(formula, Iff):
        left_pos = _nnf(formula.left, False, memo)
        left_neg = _nnf(formula.left, True, memo)
        right_pos = _nnf(formula.right, False, memo)
        right_neg = _nnf(formula.right, True, memo)
        if negated:
            return disj(conj(left_pos, right_neg), conj(left_neg, right_pos))
        return disj(conj(left_pos, right_pos), conj(left_neg, right_neg))
    if isinstance(formula, Exists):
        if negated:
            return Forall(formula.symbol, _nnf(formula.body, True, memo))
        return Exists(formula.symbol, _nnf(formula.body, False, memo))
    if isinstance(formula, Forall):
        if negated:
            return Exists(formula.symbol, _nnf(formula.body, True, memo))
        return Forall(formula.symbol, _nnf(formula.body, False, memo))
    raise TypeError(f"unknown formula {formula!r}")


# ---------------------------------------------------------------------------
# Skolemisation of positive existentials
# ---------------------------------------------------------------------------


class _Renaming:
    """The skolem constants of the existentials above a point of the walk.

    ``mapping`` holds one entry per renamed variable, in the order their
    binders were stripped.  :meth:`apply` replaces every renamed symbol at
    once: a quantifier-free subformula is rebuilt once and the result
    memoised on the renaming, one that mentions none of them comes back as
    itself, and a universal goes through
    :func:`~repro.logic.subst.substitute`.
    """

    __slots__ = ("mapping", "domain", "memo")

    def __init__(self, mapping: Dict[Symbol, Term]) -> None:
        self.mapping = mapping
        self.domain = frozenset(mapping)
        self.memo: Dict[object, object] = {}

    def extend(self, symbol: Symbol, constant: Symbol) -> "_Renaming":
        mapping = dict(self.mapping)
        # A shadowing binder's substitution comes after those above it.
        mapping.pop(symbol, None)
        mapping[symbol] = SymTerm(constant)
        return _Renaming(mapping)

    def apply(self, node):
        if self.domain.isdisjoint(_free_of(node)):
            return node
        done = self.memo.get(node)
        if done is None:
            if type(node) is SymTerm:
                done = self.mapping[node.symbol]
            elif _qdepth_of(node):
                done = substitute(node, self.mapping)
            else:
                done = rebuild(node, tuple(self.apply(child) for child in node_children(node)))
            self.memo[node] = done
        return done


def strip_positive_existentials(formula: Formula, fresh: Optional[FreshSymbols] = None) -> Formula:
    """Remove existential quantifiers in positive positions of an NNF formula.

    For a satisfiability query, an existential quantifier in positive
    position can be replaced by a fresh free symbol (constant skolemisation).
    Universal quantifiers are left in place, bodies included (the caller
    decides how to handle them — Cooper elimination or bounded fallback):
    an existential below a universal depends on the universal's variable,
    so a constant cannot stand for it.

    One pass: the walk carries the renaming of the existentials above it
    down ``And``/``Or`` and applies it once to each subformula below the
    connectives.  Each existential adds its fresh symbol, drawn in walk
    order from its binder's name, so the result is the node that
    substituting each existential's symbol into its body in turn builds.
    The fresh names avoid every free and bound name of ``formula``, so no
    binder ever captures a constant.
    """
    if fresh is None:
        names = free_symbols(formula) | _bound_symbols(formula)
        fresh = FreshSymbols([s.name for s in names])

    def process(f: Formula, renaming: _Renaming) -> Formula:
        if isinstance(f, Exists):
            constant = fresh.fresh(f.symbol.name, f.symbol.tag)
            return process(f.body, renaming.extend(f.symbol, constant))
        if isinstance(f, And):
            return conj(*[process(op, renaming) for op in f.operands])
        if isinstance(f, Or):
            return disj(*[process(op, renaming) for op in f.operands])
        return renaming.apply(f)

    return process(formula, _Renaming({}))


def has_universal(formula: Formula) -> bool:
    """Return True iff an NNF formula still contains a universal quantifier."""
    if isinstance(formula, Forall):
        return True
    if isinstance(formula, Exists):
        return has_universal(formula.body)
    if isinstance(formula, (And, Or)):
        return any(has_universal(op) for op in formula.operands)
    if isinstance(formula, Not):
        return has_universal(formula.operand)
    if isinstance(formula, (Implies, Iff)):
        raise AssertionError("formula is not in NNF")
    return False


# ---------------------------------------------------------------------------
# Disjunctive normal form
# ---------------------------------------------------------------------------

Cube = Tuple[Formula, ...]


def to_dnf(formula: Formula, max_cubes: int = 4096) -> List[Cube]:
    """Convert an NNF, quantifier-free formula into a list of cubes.

    Each cube is a tuple of literals (atoms, divisibility atoms or negated
    divisibility atoms).  Raises :class:`FormulaTooLargeError` if the result
    would exceed ``max_cubes`` cubes.
    """
    if isinstance(formula, TrueF):
        return [()]
    if isinstance(formula, FalseF):
        return []
    if isinstance(formula, (Atom, Divides)):
        return [(formula,)]
    if isinstance(formula, Not):
        if isinstance(formula.operand, Divides):
            return [(formula,)]
        raise AssertionError("formula is not in NNF")
    if isinstance(formula, Or):
        cubes: List[Cube] = []
        for operand in formula.operands:
            cubes.extend(to_dnf(operand, max_cubes))
            if len(cubes) > max_cubes:
                raise FormulaTooLargeError(
                    f"DNF expansion exceeded {max_cubes} cubes"
                )
        return cubes
    if isinstance(formula, And):
        result: List[Cube] = [()]
        for operand in formula.operands:
            operand_cubes = to_dnf(operand, max_cubes)
            new_result: List[Cube] = []
            for existing in result:
                for cube in operand_cubes:
                    new_result.append(existing + cube)
                    if len(new_result) > max_cubes:
                        raise FormulaTooLargeError(
                            f"DNF expansion exceeded {max_cubes} cubes"
                        )
            result = new_result
        return result
    if isinstance(formula, (Exists, Forall)):
        raise AssertionError("quantifiers must be eliminated before DNF conversion")
    raise TypeError(f"unknown formula {formula!r}")


class DnfWalk:
    """The cubes of :func:`to_dnf`, found by a depth-first search instead
    of built as a list.

    Constructing a walk counts the DNF's cubes (:attr:`size`) and raises
    :class:`FormulaTooLargeError` exactly where :func:`to_dnf` would: an
    ``Or`` whose running count, or an ``And`` whose running product,
    exceeds ``max_cubes``.  :meth:`cubes` then visits ``And`` operands left
    to right and ``Or`` operands in order, so it yields the cubes in
    ``to_dnf``'s order and as the same literal tuples.

    Given an :class:`~repro.solver.lia.IntervalBox`, the walk pushes each
    literal of the current prefix into it once, and backtracks it with the
    prefix.  A prefix the box refutes is dropped with every cube below it;
    their number, counted from the subformula sizes, accumulates in
    :attr:`pruned`.  The box check is monotone (more rows only tighten
    it), so the dropped cubes are exactly those whose own rows the box
    refutes.  Every dropped cube comes before the next yielded one, so
    after any yield ``pruned`` plus the cubes yielded so far is the
    position in ``to_dnf``'s list.
    """

    def __init__(self, formula: Formula, max_cubes: int = 4096) -> None:
        self.formula = formula
        self.max_cubes = max_cubes
        self._sizes: Dict[Formula, int] = {}
        self.size = self._size(formula)
        self.pruned = 0

    def _size(self, formula: Formula) -> int:
        size = self._sizes.get(formula)
        if size is not None:
            return size
        if isinstance(formula, TrueF):
            size = 1
        elif isinstance(formula, FalseF):
            size = 0
        elif isinstance(formula, (Atom, Divides)):
            size = 1
        elif isinstance(formula, Not):
            if not isinstance(formula.operand, Divides):
                raise AssertionError("formula is not in NNF")
            size = 1
        elif isinstance(formula, Or):
            size = 0
            for operand in formula.operands:
                size += self._size(operand)
                if size > self.max_cubes:
                    raise FormulaTooLargeError(f"DNF expansion exceeded {self.max_cubes} cubes")
        elif isinstance(formula, And):
            size = 1
            for operand in formula.operands:
                size *= self._size(operand)
                if size > self.max_cubes:
                    raise FormulaTooLargeError(f"DNF expansion exceeded {self.max_cubes} cubes")
        elif isinstance(formula, (Exists, Forall)):
            raise AssertionError("quantifiers must be eliminated before DNF conversion")
        else:
            raise TypeError(f"unknown formula {formula!r}")
        self._sizes[formula] = size
        return size

    def cubes(self, box: Optional["IntervalBox"] = None) -> Iterator[Cube]:
        """Yield the cubes in :func:`to_dnf` order, without those below a
        prefix ``box`` refutes (none when ``box`` is ``None``)."""
        sizes = self._sizes
        prefix: List[Formula] = []
        # What is left to expand after the prefix is a linked list of
        # conjuncts ``(formula, rest, cubes)``, where ``cubes`` counts the
        # cubes the list expands to (``None`` is the empty list, one cube).
        # Each open ``Or`` is a choice point ``[operands, next operand,
        # rest, box mark, prefix length]``.
        choices: List[list] = [[(self.formula,), 0, None, box.mark() if box else 0, 0]]
        while choices:
            choice = choices[-1]
            operands, index, rest = choice[0], choice[1], choice[2]
            if index == len(operands):
                choices.pop()
                continue
            choice[1] = index + 1
            del prefix[choice[4]:]
            if box is not None:
                box.undo(choice[3])
            head = operands[index]
            below = sizes[head] * (1 if rest is None else rest[2])
            if not below:
                continue
            todo = (head, rest, below)
            while todo is not None:
                formula, rest, _ = todo
                if type(formula) is And:
                    for operand in reversed(formula.operands):
                        rest = (operand, rest, sizes[operand] * (1 if rest is None else rest[2]))
                    todo = rest
                elif type(formula) is Or:
                    choices.append(
                        [formula.operands, 0, rest, box.mark() if box else 0, len(prefix)]
                    )
                    break
                elif type(formula) is TrueF:
                    todo = rest
                else:  # a literal: nothing below has zero cubes, so not FALSE
                    prefix.append(formula)
                    if box is not None and box.push(formula):
                        self.pruned += 1 if rest is None else rest[2]
                        break
                    todo = rest
            else:
                yield tuple(prefix)
