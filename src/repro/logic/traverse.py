"""Shared traversals over the interned formula IR.

The IR's shape is stated once, in :mod:`repro.logic.formula`:
:func:`node_children` reads a node's children off its class's ``_fields``
and :func:`rebuild` puts new ones back in the same places.  Substitution,
the cached structural queries, the solver's normalisation passes and the
diagnostics all walk the IR through that one rule.  This module builds the
shared walks on it:

* :func:`iter_nodes` — sharing-aware iterative post-order (each interned
  node is visited once, however many times the DAG references it);
* :func:`replace_node` — outermost-first replacement of one subterm;
* :func:`map_atom_terms` — rewrite the terms of every atom, preserving the
  formula skeleton;
* :class:`TypeDispatcher` — an O(1) type-indexed dispatch table used by the
  Hoare VC generators in place of linear ``isinstance`` chains.

Traversal memo tables are keyed by node identity, which interning makes
equivalent to keying by structure.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple, Union

from .formula import (
    Atom,
    Divides,
    Formula,
    Ite,
    Term,
    node_children,
    rebuild,
)

Node = Union[Term, Formula]

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
        if isinstance(f, Atom):
            result: Formula = Atom(f.rel, term_fn(f.left), term_fn(f.right))
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
