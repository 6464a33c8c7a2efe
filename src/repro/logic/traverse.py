"""Shared fold/transform framework over the interned formula IR.

Before this module existed every layer carried its own hand-rolled
``isinstance`` recursion over :mod:`repro.logic.formula` — substitution,
the solver's normalisation passes, obligation fingerprinting, the bounded
model search — each spelling out the same twenty-case dispatch.  This
module centralises that structure once:

* :func:`node_children` / :func:`rebuild` — the child spec and the
  identity-preserving reconstructor every traversal is built from;
* :func:`iter_nodes` — sharing-aware iterative post-order (each interned
  node is visited once, however many times the DAG references it);
* :func:`fold` — memoised bottom-up reduction;
* :func:`transform` — memoised bottom-up rewriting that returns the
  original node (not a copy) whenever nothing below it changed, which with
  interning means untouched subtrees are shared, not rebuilt;
* :func:`replace_node` — outermost-first replacement of one subterm;
* :func:`map_atom_terms` — rewrite the terms of every atom, preserving the
  formula skeleton;
* :class:`TypeDispatcher` — an O(1) type-indexed dispatch table used by the
  Hoare VC generators in place of linear ``isinstance`` chains.

Traversal memo tables are keyed by node identity, which interning makes
equivalent to keying by structure.  Memoisation is only safe for
*deterministic* rewrites: a pass that consumes fresh names per occurrence
(e.g. compound-term elimination) must not reuse results across occurrences
and therefore opts out.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar, Union

from .formula import (
    And,
    Atom,
    Const,
    Divides,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Select,
    Store,
    SymTerm,
    Term,
    TrueF,
    _BinTerm,
)

Node = Union[Term, Formula]
T = TypeVar("T")

_LEAVES = (Const, SymTerm, TrueF, FalseF)


def node_children(node: Node) -> Tuple[Node, ...]:
    """The immediate term/formula children of a node, in field order.

    ``Ite`` conditions count as children (they are formulas nested inside a
    term); ``Select``/``Store`` array *symbols* do not (symbols are not
    nodes), but a chained ``Store`` array does.
    """
    if isinstance(node, _LEAVES):
        return ()
    if isinstance(node, _BinTerm):
        return (node.left, node.right)
    if isinstance(node, Atom):
        return (node.left, node.right)
    if isinstance(node, (And, Or)):
        return node.operands
    if isinstance(node, Not):
        return (node.operand,)
    if isinstance(node, Implies):
        return (node.antecedent, node.consequent)
    if isinstance(node, Iff):
        return (node.left, node.right)
    if isinstance(node, (Exists, Forall)):
        return (node.body,)
    if isinstance(node, Divides):
        return (node.term,)
    if isinstance(node, Ite):
        return (node.condition, node.then_term, node.else_term)
    if isinstance(node, Select):
        return (node.index,)
    if isinstance(node, Store):
        if isinstance(node.array, Store):
            return (node.array, node.index, node.value)
        return (node.index, node.value)
    raise TypeError(f"unknown node {node!r}")


def formula_subformulas(formula: Formula) -> Tuple[Formula, ...]:
    """Immediate *formula* children only (terms are not descended into).

    This matches the formula-level cost model of the bounded model search:
    quantifiers and connectives matter, atom internals do not.
    """
    if isinstance(formula, (And, Or)):
        return formula.operands
    if isinstance(formula, Not):
        return (formula.operand,)
    if isinstance(formula, Implies):
        return (formula.antecedent, formula.consequent)
    if isinstance(formula, Iff):
        return (formula.left, formula.right)
    if isinstance(formula, (Exists, Forall)):
        return (formula.body,)
    return ()


def rebuild(node: Node, children: Tuple[Node, ...]) -> Node:
    """Reconstruct ``node`` with its children replaced (same order as
    :func:`node_children`), returning ``node`` itself when nothing changed."""
    old = node_children(node)
    if len(children) != len(old):
        raise ValueError(f"child arity mismatch rebuilding {node!r}")
    if all(new is prev for new, prev in zip(children, old)):
        return node
    cls = type(node)
    if isinstance(node, _BinTerm):
        return cls(children[0], children[1])
    if cls is Atom:
        return Atom(node.rel, children[0], children[1])
    if cls is And or cls is Or:
        return cls(tuple(children))
    if cls is Not:
        return Not(children[0])
    if cls is Implies:
        return Implies(children[0], children[1])
    if cls is Iff:
        return Iff(children[0], children[1])
    if cls is Exists or cls is Forall:
        return cls(node.symbol, children[0])
    if cls is Divides:
        return Divides(node.divisor, children[0])
    if cls is Ite:
        return Ite(children[0], children[1], children[2])
    if cls is Select:
        return Select(node.array, children[0])
    if cls is Store:
        if isinstance(node.array, Store):
            return Store(children[0], children[1], children[2])
        return Store(node.array, children[0], children[1])
    raise TypeError(f"unknown node {node!r}")


def iter_nodes(root: Node) -> Iterator[Node]:
    """Sharing-aware iterative post-order over a node DAG.

    Each distinct (interned) node is yielded exactly once, children before
    parents, with first-occurrence ordering — equivalent to a left-to-right
    recursive walk that skips already-seen subtrees.
    """
    seen = set()
    stack: List[Tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in reversed(node_children(node)):
            if id(child) not in seen:
                stack.append((child, False))


def fold(root: Node, fn: Callable[[Node, Tuple[T, ...]], T]) -> T:
    """Memoised bottom-up reduction: ``fn(node, child_results)`` per node.

    Shared subtrees are reduced once; the fold therefore runs in time
    proportional to the number of *distinct* nodes, not tree size.
    """
    results: Dict[int, T] = {}
    for node in iter_nodes(root):
        results[id(node)] = fn(
            node, tuple(results[id(child)] for child in node_children(node))
        )
    return results[id(root)]


def transform(
    root: Node,
    fn: Callable[[Node], Node],
    memo: Optional[Dict[int, Node]] = None,
) -> Node:
    """Memoised bottom-up rewrite: children first, then ``fn`` on the
    (identity-preserving) rebuilt node.

    Only use with deterministic ``fn`` — results are shared across all
    occurrences of a subtree.
    """
    if memo is None:
        memo = {}
    result = memo.get(id(root))
    if result is not None:
        return result
    children = node_children(root)
    if children:
        rebuilt = rebuild(root, tuple(transform(child, fn, memo) for child in children))
    else:
        rebuilt = root
    result = fn(rebuilt)
    memo[id(root)] = result
    return result


def replace_node(root: Node, target: Node, replacement: Node) -> Node:
    """Replace every occurrence of ``target`` by ``replacement``.

    Outermost-first, like the normaliser's historical ``_replace_term``:
    a match is replaced wholesale and the replacement itself is not
    descended into.  ``Ite`` *conditions* are left untouched — term
    replacement during compound elimination has never rewritten inside
    them (each condition is processed separately by the caller).
    """
    memo: Dict[int, Node] = {}

    def go(node: Node) -> Node:
        if node is target:
            return replacement
        done = memo.get(id(node))
        if done is not None:
            return done
        children = node_children(node)
        if isinstance(node, Ite):
            new_children: Tuple[Node, ...] = (
                node.condition,
                go(node.then_term),
                go(node.else_term),
            )
        else:
            new_children = tuple(go(child) for child in children)
        result = rebuild(node, new_children) if children else node
        memo[id(node)] = result
        return result

    return go(root)


def map_atom_terms(
    formula: Formula, term_fn: Callable[[Term], Term]
) -> Formula:
    """Apply ``term_fn`` to the terms of every atom, keeping the formula
    skeleton (raw connectives, no simplification) intact.

    Shared subformulas are rewritten once; untouched subtrees come back as
    the same interned object.
    """
    memo: Dict[int, Formula] = {}

    def go(f: Formula) -> Formula:
        done = memo.get(id(f))
        if done is not None:
            return done
        if isinstance(f, (TrueF, FalseF)):
            result: Formula = f
        elif isinstance(f, Atom):
            result = Atom(f.rel, term_fn(f.left), term_fn(f.right))
        elif isinstance(f, Divides):
            result = Divides(f.divisor, term_fn(f.term))
        else:
            result = rebuild(f, tuple(go(child) for child in node_children(f)))
        memo[id(f)] = result
        return result

    return go(formula)


class TypeDispatcher:
    """An exact-type dispatch table: ``dispatcher(node, *args)`` calls the
    handler registered for ``type(node)``.

    Replaces linear ``isinstance`` ladders with one dict lookup; used for
    statement dispatch in the Hoare VC generators.
    """

    __slots__ = ("label", "_handlers")

    def __init__(self, label: str) -> None:
        self.label = label
        self._handlers: Dict[type, Callable] = {}

    def register(self, *types: type) -> Callable[[Callable], Callable]:
        def decorator(fn: Callable) -> Callable:
            for tp in types:
                if tp in self._handlers:
                    raise ValueError(f"{self.label}: duplicate handler for {tp.__name__}")
                self._handlers[tp] = fn
            return fn
        return decorator

    def __call__(self, node, *args, **kwargs):
        handler = self._handlers.get(type(node))
        if handler is None:
            raise TypeError(f"unknown {self.label} node {node!r}")
        return handler(node, *args, **kwargs)
