"""Capture-avoiding substitution over terms and formulas.

The paper's proof rules use the standard substitution ``P[e/x]`` (assignment
rule), multi-substitution ``P[X'/X]`` (havoc and relax rules, replacing the
modified variables with fresh ones), and substitution of relational
variables ``P*[X'<r>/X<r>]``.  This module implements those operations over
the formula IR of :mod:`repro.logic.formula`, renaming bound variables when
a substitution would otherwise capture them.

With the interned IR the implementation is a memoised traversal with a
structural short-circuit: any subtree whose cached free symbols (and array
symbols) are disjoint from the substitution domain is returned as-is — no
walk, no rebuild.

Rewriting is a pure function of the node and the mapping (fresh names for
captured binders are derived from the formula and the mapping alone), so
its results are kept across calls in one process-wide *rewrite memo*: one
pass per distinct ``(symbol mapping, array mapping)`` pair, keyed by
``(frozenset(mapping.items()), frozenset(arrays.items()))``, each holding
the rewritten result of every sub-formula and sub-term it has seen, keyed
by the interned node itself.  Interned nodes live for the whole process, so
a node key is never reused for another node.  Sibling relaxation
candidates, and repeated verifications of one program, share most
sub-formulas, and the proof rules reuse the same mappings (the retagging of
:mod:`repro.logic.inject`, the fresh-symbol renamings of sp and wp), so
their rewrites hit.  The narrowed mapping below a binder in the domain and
the renaming of a captured binder are passes of their own.  The memo is
bounded: it is cleared whole once it holds :data:`_MEMO_LIMIT` results.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from .. import telemetry
from .formula import (
    Atom,
    Divides,
    Exists,
    Forall,
    Formula,
    FreshSymbols,
    Ite,
    Select,
    Store,
    SymTerm,
    Symbol,
    Term,
    _arrays_of,
    _free_of,
    free_symbols,
    term_symbols,
)
from .traverse import node_children, rebuild

Substitution = Mapping[Symbol, Term]
ArraySubstitution = Mapping[Symbol, "Term"]  # array symbol -> Store/Symbol-rooted term


# ---------------------------------------------------------------------------
# The rewrite memo
# ---------------------------------------------------------------------------

#: Flush threshold, in memoised results over all passes, checked at each
#: top-level call.  Keys and results are interned nodes, which the intern
#: table keeps alive anyway, so an entry costs one dict slot.  A depth-3 LU
#: exploration holds about 3,600 and the studies batch about 5,000.
_MEMO_LIMIT = 65_536

_PASSES: Dict[Tuple[FrozenSet, FrozenSet], "_Subst"] = {}
#: Results memoised over all passes, held against :data:`_MEMO_LIMIT`.
_memo_entries = 0


def rewrite_memo_stats() -> Dict[str, int]:
    """The rewrite memo's size: passes and memoised results.  Traced runs
    count its top-level hits and misses (``logic.rewrite.hits`` /
    ``logic.rewrite.misses``)."""
    return {"passes": len(_PASSES), "entries": _memo_entries}


def clear_rewrite_memo() -> None:
    """Drop every memoised rewrite."""
    global _memo_entries
    _PASSES.clear()
    _memo_entries = 0


def _pass(mapping: Substitution, arrays: Mapping[Symbol, Term]) -> "_Subst":
    """The memoised pass of one ``(mapping, arrays)`` pair."""
    key = (frozenset(mapping.items()), frozenset(arrays.items()))
    ctx = _PASSES.get(key)
    if ctx is None:
        # Copies: a caller may reuse its dicts after the call.
        ctx = _PASSES[key] = _Subst(dict(mapping), dict(arrays))
    return ctx


def _rewrite(node, mapping: Substitution, arrays: Mapping[Symbol, Term]):
    """Top-level entry: rewrite ``node`` (a term or a formula) through the memo."""
    if _memo_entries >= _MEMO_LIMIT:
        clear_rewrite_memo()
    ctx = _pass(mapping, arrays)
    if ctx.untouched(node):
        return node
    done = ctx.memo.get(node)
    if done is not None:
        telemetry.count("logic.rewrite.hits")
        return done
    telemetry.count("logic.rewrite.misses")
    return ctx.term(node) if isinstance(node, Term) else ctx.formula(node)


class _Subst:
    """One substitution pass: a fixed mapping and its memo of results."""

    __slots__ = ("mapping", "arrays", "sym_domain", "arr_domain", "memo")

    def __init__(self, mapping: Substitution, arrays: Mapping[Symbol, Term]) -> None:
        self.mapping = mapping
        self.arrays = arrays
        self.sym_domain = frozenset(mapping)
        self.arr_domain = frozenset(arrays)
        self.memo: Dict[object, object] = {}

    def untouched(self, node) -> bool:
        if self.sym_domain and not self.sym_domain.isdisjoint(_free_of(node)):
            return False
        if self.arr_domain and not self.arr_domain.isdisjoint(_arrays_of(node)):
            return False
        return True

    def captures(self, body: Formula) -> FrozenSet[Symbol]:
        """The symbols that the replacements of ``body``'s free symbols and
        arrays mention: a binder over ``body`` among them would capture them."""
        captured: FrozenSet[Symbol] = frozenset()
        for symbol in self.sym_domain.intersection(_free_of(body)):
            captured |= term_symbols(self.mapping[symbol])
        for array in self.arr_domain.intersection(_arrays_of(body)):
            replacement = self.arrays[array]
            if isinstance(replacement, Term):
                captured |= term_symbols(replacement)
        return captured

    def _remember(self, node, result):
        global _memo_entries
        self.memo[node] = result
        _memo_entries += 1
        return result

    # -- terms -----------------------------------------------------------------

    def term(self, term: Term) -> Term:
        if self.untouched(term):
            return term
        done = self.memo.get(term)
        if done is not None:
            return done  # type: ignore[return-value]
        return self._remember(term, self._term(term))

    def _term(self, term: Term) -> Term:
        if isinstance(term, SymTerm):
            replacement = self.mapping.get(term.symbol)
            return replacement if replacement is not None else term
        if isinstance(term, Ite):
            return Ite(
                self.formula(term.condition),
                self.term(term.then_term),
                self.term(term.else_term),
            )
        if isinstance(term, Select):
            new_index = self.term(term.index)
            replacement_array = self.arrays.get(term.array)
            if replacement_array is None:
                return Select(term.array, new_index)
            return _select_from(replacement_array, new_index)
        if isinstance(term, Store):
            base: Term
            if isinstance(term.array, Symbol):
                replacement_array = self.arrays.get(term.array, term.array)
                base = replacement_array
            else:
                base = self.term(term.array)
            return Store(
                base if isinstance(base, (Symbol, Store)) else term.array,
                self.term(term.index),
                self.term(term.value),
            )
        # Arithmetic operators: rebuild with substituted children.
        return rebuild(term, tuple(self.term(child) for child in node_children(term)))

    # -- formulas ----------------------------------------------------------------

    def formula(self, formula: Formula) -> Formula:
        if self.untouched(formula):
            return formula
        done = self.memo.get(formula)
        if done is not None:
            return done  # type: ignore[return-value]
        return self._remember(formula, self._formula(formula))

    def _formula(self, formula: Formula) -> Formula:
        if isinstance(formula, Atom):
            return Atom(formula.rel, self.term(formula.left), self.term(formula.right))
        if isinstance(formula, Divides):
            return Divides(formula.divisor, self.term(formula.term))
        if isinstance(formula, (Exists, Forall)):
            return self._quantifier(formula)
        return rebuild(
            formula, tuple(self.formula(child) for child in node_children(formula))
        )

    def _quantifier(self, formula: Formula) -> Formula:
        assert isinstance(formula, (Exists, Forall))
        bound = formula.symbol
        if bound in self.mapping:
            # Drop the binding of the bound variable itself; the narrowed
            # mapping is a different substitution, so it is a pass of its own.
            narrowed = {k: v for k, v in self.mapping.items() if k != bound}
            if not narrowed and not self.arrays:
                return formula
            ctx = _pass(narrowed, self.arrays)
        else:
            ctx = self
        # Rename the bound variable if a replacement that reaches the body
        # mentions it (capture).
        body = formula.body
        captured = ctx.captures(body)
        if bound in captured:
            used = {s.name for s in free_symbols(body) | captured}
            renamed = FreshSymbols(sorted(used)).fresh(bound.name, bound.tag)
            body = _pass({bound: SymTerm(renamed)}, {}).formula(body)
            bound = renamed
        return type(formula)(bound, ctx.formula(body))


def substitute_term(
    term: Term, mapping: Substitution, arrays: Optional[Mapping[Symbol, Term]] = None
) -> Term:
    """Substitute symbols for terms inside ``term``.

    ``arrays`` optionally maps array symbols to array-valued terms (``Store``
    chains or other array symbols); it is used by the weakest precondition of
    array assignment which replaces ``A`` with ``store(A, i, v)``.
    """
    arrays = arrays or {}
    if not mapping and not arrays:
        return term
    return _rewrite(term, mapping, arrays)


def substitute(
    formula: Formula, mapping: Substitution, arrays: Optional[Mapping[Symbol, Term]] = None
) -> Formula:
    """Capture-avoiding substitution of symbols for terms in ``formula``."""
    arrays = arrays or {}
    if not mapping and not arrays:
        return formula
    return _rewrite(formula, mapping, arrays)


def _select_from(array_term: Term, index: Term) -> Term:
    """Build ``select(array_term, index)`` where ``array_term`` may be a Store chain."""
    if isinstance(array_term, Symbol):
        return Select(array_term, index)
    if isinstance(array_term, Store):
        return _select_store(array_term, index)
    if isinstance(array_term, SymTerm):
        return Select(array_term.symbol, index)
    raise TypeError(f"cannot select from array term {array_term!r}")


def _select_store(store: Store, index: Term) -> Term:
    """Expand ``select(store(a, i, v), j)`` into ``ite(i == j, v, select(a, j))``."""
    from .formula import Atom, Rel

    inner: Term
    if isinstance(store.array, Store):
        inner = _select_store(store.array, index)
    else:
        inner = Select(store.array, index)
    return Ite(Atom(Rel.EQ, store.index, index), store.value, inner)


def rename_symbols(formula: Formula, renaming: Mapping[Symbol, Symbol]) -> Formula:
    """Rename free symbols (a special case of substitution)."""
    mapping = {old: SymTerm(new) for old, new in renaming.items()}
    return substitute(formula, mapping)


def rename_arrays(formula: Formula, renaming: Mapping[Symbol, Symbol]) -> Formula:
    """Rename array symbols appearing in Select/Store terms.

    A renaming is the array substitution whose replacements are symbols, so
    it shares the memoised passes of :func:`substitute`.
    """
    if not renaming:
        return formula
    return _rewrite(formula, {}, renaming)
