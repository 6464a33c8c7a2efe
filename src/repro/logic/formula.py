"""First-order assertion logic over integer terms (Figures 5 and 6).

This module defines the formula intermediate representation shared by

* the assertion logic ``P`` (unary formulas over one execution's state),
* the relational assertion logic ``P*`` (formulas over pairs of states),
* the proof-obligation generator in :mod:`repro.hoare`, and
* the decision procedures in :mod:`repro.solver`.

Representation choices
----------------------

Variables are :class:`Symbol` objects carrying a *name* and a *tag*:

* ``tag = None`` — a plain variable ``x`` of a unary formula,
* ``tag = "o"`` — an original-execution variable ``x<o>``,
* ``tag = "r"`` — a relaxed-execution variable ``x<r>``.

A unary formula uses only untagged symbols; a relational formula uses only
tagged symbols.  The injections ``inj_o`` / ``inj_r`` of the paper are the
renamings that tag every plain symbol (see :mod:`repro.logic.inject`).

Terms include integer constants, symbols, the arithmetic operators of the
programming language, ``if-then-else`` terms (used by the weakest
precondition of array stores) and array ``select`` terms.  Formulas are
built from comparisons of terms, the boolean connectives, negation, and the
quantifiers ``exists`` / ``forall`` over symbols.

Hash consing
------------

Every term and formula node is **interned**: constructing a node with the
same class and fields twice returns the *same* object.  Consequences relied
on throughout the codebase:

* structural equality coincides with identity (``a == b`` iff ``a is b``),
  so equality checks, set membership and dict lookups are O(1);
* each node carries a precomputed structural hash, and caches its free
  symbols, array symbols, node count and quantifier depth, so
  ``free_symbols`` / ``formula_size`` / friends are O(1) after the first
  query on a subterm — even when that subterm is shared by many formulas;
* a node's children are read off its class's ``_fields``
  (:func:`node_children`), the one statement of the IR's shape that
  :func:`rebuild`, the cached queries and every generic walk derive from;
* nodes pickle by reconstruction (:meth:`_Interned.__reduce__`), so they
  re-intern on arrival in obligation-discharge worker processes.

The intern table holds strong references and is never cleared: clearing it
would let structurally equal nodes with distinct identities coexist,
breaking the equality-is-identity invariant.  Memory stays bounded by the
number of *distinct* nodes a process ever builds, which for the CLI
commands, the test harness and explorer rounds is small (a weak table was
measured 2.5x slower on normalisation due to dead-reference churn on
transient nodes).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union


class Tag(enum.Enum):
    """Which execution a symbol belongs to (``None`` means unary/plain)."""

    ORIGINAL = "o"
    RELAXED = "r"


class Symbol:
    """A logical variable, optionally tagged with an execution.

    Symbols are interned like the formula nodes: ``Symbol(n, t)`` always
    returns the same object for the same fields, equality is identity, and
    the hash and sort key are precomputed (symbols are the hottest dict
    keys in the linear-arithmetic core).
    """

    __slots__ = ("name", "tag", "_hash", "_key")
    _table: Dict[Tuple[str, Optional[Tag]], "Symbol"] = {}

    def __new__(cls, name: str, tag: Optional[Tag] = None) -> "Symbol":
        key = (name, tag)
        symbol = cls._table.get(key)
        if symbol is None:
            symbol = object.__new__(cls)
            object.__setattr__(symbol, "name", name)
            object.__setattr__(symbol, "tag", tag)
            object.__setattr__(symbol, "_hash", hash(key))
            object.__setattr__(
                symbol, "_key", (name, tag.value if tag is not None else "")
            )
            cls._table[key] = symbol
        return symbol

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Symbol is immutable")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Symbol, (self.name, self.tag))

    def __repr__(self) -> str:
        return f"Symbol(name={self.name!r}, tag={self.tag!r})"

    def __str__(self) -> str:
        if self.tag is None:
            return self.name
        return f"{self.name}<{self.tag.value}>"

    def with_tag(self, tag: Optional[Tag]) -> "Symbol":
        if tag is self.tag:
            return self
        return Symbol(self.name, tag)

    def __lt__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._key < other._key

    def __le__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._key <= other._key

    def __gt__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._key > other._key

    def __ge__(self, other: "Symbol") -> bool:
        if not isinstance(other, Symbol):
            return NotImplemented
        return self._key >= other._key


def sym(name: str) -> Symbol:
    """A plain (untagged) symbol."""
    return Symbol(name, None)


def sym_o(name: str) -> Symbol:
    """An original-execution symbol ``name<o>``."""
    return Symbol(name, Tag.ORIGINAL)


def sym_r(name: str) -> Symbol:
    """A relaxed-execution symbol ``name<r>``."""
    return Symbol(name, Tag.RELAXED)


# ---------------------------------------------------------------------------
# The intern table
# ---------------------------------------------------------------------------


_INTERN: Dict[tuple, "_Interned"] = {}

# Lazy-cache sentinel: slots are initialised to this until first computed.
_UNSET = object()


class _Interned:
    """Base of all hash-consed nodes (terms and formulas).

    Subclasses declare ``_fields`` (constructor argument order) and get
    interning, a precomputed structural hash, identity equality, pickling by
    reconstruction and a dataclass-style ``repr`` for free.
    """

    __slots__ = (
        "_hash", "_free", "_arrays", "_size", "_qdepth", "_compiled", "_linear", "__weakref__"
    )
    _fields: Tuple[str, ...] = ()

    def __hash__(self) -> int:
        return self._hash

    # Interning makes structural equality coincide with identity, so the
    # default object identity __eq__ is exactly structural equality.

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self._fields))

    def __repr__(self) -> str:
        parts = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({parts})"


def _mk(cls, args: tuple) -> "_Interned":
    """Intern-or-create the node ``cls(*args)``."""
    key = (cls, *args)
    node = _INTERN.get(key)
    if node is not None:
        return node
    node = object.__new__(cls)
    set_ = object.__setattr__
    for name, value in zip(cls._fields, args):
        set_(node, name, value)
    set_(node, "_hash", hash(key))
    set_(node, "_free", _UNSET)
    set_(node, "_arrays", _UNSET)
    set_(node, "_size", _UNSET)
    set_(node, "_qdepth", _UNSET)
    set_(node, "_compiled", _UNSET)
    set_(node, "_linear", _UNSET)
    _INTERN[key] = node
    return node


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(_Interned):
    """Base class of integer-valued terms."""

    __slots__ = ()

    def __add__(self, other: "TermLike") -> "Term":
        return Add(self, to_term(other))

    def __radd__(self, other: "TermLike") -> "Term":
        return Add(to_term(other), self)

    def __sub__(self, other: "TermLike") -> "Term":
        return Sub(self, to_term(other))

    def __rsub__(self, other: "TermLike") -> "Term":
        return Sub(to_term(other), self)

    def __mul__(self, other: "TermLike") -> "Term":
        return Mul(self, to_term(other))

    def __rmul__(self, other: "TermLike") -> "Term":
        return Mul(to_term(other), self)

    def __neg__(self) -> "Term":
        return Sub(Const(0), self)


TermLike = Union["Term", int]


class Const(Term):
    """An integer constant."""

    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value: int) -> "Const":
        return _mk(cls, (value,))

    def __str__(self) -> str:
        return str(self.value)


class SymTerm(Term):
    """A variable occurrence."""

    __slots__ = ("symbol",)
    _fields = ("symbol",)

    def __new__(cls, symbol: Symbol) -> "SymTerm":
        return _mk(cls, (symbol,))

    def __str__(self) -> str:
        return str(self.symbol)


class _BinTerm(Term):
    """Shared shape of the binary arithmetic operators."""

    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Term, right: Term):
        return _mk(cls, (left, right))


class Add(_BinTerm):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} + {self.right})"


class Sub(_BinTerm):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} - {self.right})"


class Mul(_BinTerm):
    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} * {self.right})"


class Div(_BinTerm):
    """Integer (floor) division."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} / {self.right})"


class Mod(_BinTerm):
    """Integer modulo (sign of divisor, Python semantics)."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"({self.left} % {self.right})"


class Min(_BinTerm):
    __slots__ = ()

    def __str__(self) -> str:
        return f"min({self.left}, {self.right})"


class Max(_BinTerm):
    __slots__ = ()

    def __str__(self) -> str:
        return f"max({self.left}, {self.right})"


class Ite(Term):
    """An if-then-else term (condition is a formula)."""

    __slots__ = ("condition", "then_term", "else_term")
    _fields = ("condition", "then_term", "else_term")

    def __new__(cls, condition: "Formula", then_term: Term, else_term: Term) -> "Ite":
        return _mk(cls, (condition, then_term, else_term))

    def __str__(self) -> str:
        return f"ite({self.condition}, {self.then_term}, {self.else_term})"


class Select(Term):
    """An array read ``select(array, index)`` over a symbolic array."""

    __slots__ = ("array", "index")
    _fields = ("array", "index")

    def __new__(cls, array: Symbol, index: Term) -> "Select":
        return _mk(cls, (array, index))

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


class Store(Term):
    """A functional array update ``store(array, index, value)``.

    ``Store`` terms only ever appear as the array argument of ``Select``
    (they are introduced by the weakest precondition of array assignment and
    eliminated during normalisation), so they are integer-sorted only in the
    degenerate sense; the normaliser removes them before solving.
    """

    __slots__ = ("array", "index", "value")
    _fields = ("array", "index", "value")

    def __new__(cls, array: Union[Symbol, "Store"], index: Term, value: Term) -> "Store":
        return _mk(cls, (array, index, value))

    def __str__(self) -> str:
        return f"store({self.array}, {self.index}, {self.value})"


def to_term(value: TermLike) -> Term:
    """Coerce an int or term into a :class:`Term`."""
    if isinstance(value, Term):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not integer terms")
    if isinstance(value, int):
        return Const(value)
    raise TypeError(f"cannot coerce {value!r} to a term")


def var(name: str, tag: Optional[Tag] = None) -> Term:
    """A variable occurrence term."""
    return SymTerm(Symbol(name, tag))


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Rel(enum.Enum):
    """Atomic comparison relations."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    def apply(self, left: int, right: int) -> bool:
        if self is Rel.LT:
            return left < right
        if self is Rel.LE:
            return left <= right
        if self is Rel.GT:
            return left > right
        if self is Rel.GE:
            return left >= right
        if self is Rel.EQ:
            return left == right
        if self is Rel.NE:
            return left != right
        raise AssertionError(f"unhandled relation {self}")

    def negate(self) -> "Rel":
        return _REL_NEGATION[self]


_REL_NEGATION = {
    Rel.LT: Rel.GE,
    Rel.LE: Rel.GT,
    Rel.GT: Rel.LE,
    Rel.GE: Rel.LT,
    Rel.EQ: Rel.NE,
    Rel.NE: Rel.EQ,
}


class Formula(_Interned):
    """Base class of formulas."""

    __slots__ = ()

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


class TrueF(Formula):
    __slots__ = ()
    _fields = ()

    def __new__(cls) -> "TrueF":
        return _mk(cls, ())

    def __str__(self) -> str:
        return "true"


class FalseF(Formula):
    __slots__ = ()
    _fields = ()

    def __new__(cls) -> "FalseF":
        return _mk(cls, ())

    def __str__(self) -> str:
        return "false"


TRUE = TrueF()
FALSE = FalseF()


class Atom(Formula):
    """A comparison of two terms."""

    __slots__ = ("rel", "left", "right")
    _fields = ("rel", "left", "right")

    def __new__(cls, rel: Rel, left: Term, right: Term) -> "Atom":
        return _mk(cls, (rel, left, right))

    def __str__(self) -> str:
        return f"({self.left} {self.rel.value} {self.right})"


class Divides(Formula):
    """A divisibility atom ``divisor | term`` (used by Cooper's algorithm)."""

    __slots__ = ("divisor", "term")
    _fields = ("divisor", "term")

    def __new__(cls, divisor: int, term: Term) -> "Divides":
        return _mk(cls, (divisor, term))

    def __str__(self) -> str:
        return f"({self.divisor} | {self.term})"


class And(Formula):
    __slots__ = ("operands",)
    _fields = ("operands",)

    def __new__(cls, operands: Tuple[Formula, ...]) -> "And":
        return _mk(cls, (tuple(operands),))

    def __str__(self) -> str:
        if not self.operands:
            return "true"
        return "(" + " && ".join(str(op) for op in self.operands) + ")"


class Or(Formula):
    __slots__ = ("operands",)
    _fields = ("operands",)

    def __new__(cls, operands: Tuple[Formula, ...]) -> "Or":
        return _mk(cls, (tuple(operands),))

    def __str__(self) -> str:
        if not self.operands:
            return "false"
        return "(" + " || ".join(str(op) for op in self.operands) + ")"


class Not(Formula):
    __slots__ = ("operand",)
    _fields = ("operand",)

    def __new__(cls, operand: Formula) -> "Not":
        return _mk(cls, (operand,))

    def __str__(self) -> str:
        return f"!({self.operand})"


class Implies(Formula):
    __slots__ = ("antecedent", "consequent")
    _fields = ("antecedent", "consequent")

    def __new__(cls, antecedent: Formula, consequent: Formula) -> "Implies":
        return _mk(cls, (antecedent, consequent))

    def __str__(self) -> str:
        return f"({self.antecedent} ==> {self.consequent})"


class Iff(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left: Formula, right: Formula) -> "Iff":
        return _mk(cls, (left, right))

    def __str__(self) -> str:
        return f"({self.left} <=> {self.right})"


class Exists(Formula):
    __slots__ = ("symbol", "body")
    _fields = ("symbol", "body")

    def __new__(cls, symbol: Symbol, body: Formula) -> "Exists":
        return _mk(cls, (symbol, body))

    def __str__(self) -> str:
        return f"(exists {self.symbol} . {self.body})"


class Forall(Formula):
    __slots__ = ("symbol", "body")
    _fields = ("symbol", "body")

    def __new__(cls, symbol: Symbol, body: Formula) -> "Forall":
        return _mk(cls, (symbol, body))

    def __str__(self) -> str:
        return f"(forall {self.symbol} . {self.body})"


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def conj(*formulas: Formula) -> Formula:
    """N-ary conjunction with unit simplification."""
    flat = []
    for formula in formulas:
        if isinstance(formula, TrueF):
            continue
        if isinstance(formula, FalseF):
            return FALSE
        if isinstance(formula, And):
            flat.extend(formula.operands)
        else:
            flat.append(formula)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*formulas: Formula) -> Formula:
    """N-ary disjunction with unit simplification."""
    flat = []
    for formula in formulas:
        if isinstance(formula, FalseF):
            continue
        if isinstance(formula, TrueF):
            return TRUE
        if isinstance(formula, Or):
            flat.extend(formula.operands)
        else:
            flat.append(formula)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(formula: Formula) -> Formula:
    """Negation with double-negation and literal simplification."""
    if isinstance(formula, TrueF):
        return FALSE
    if isinstance(formula, FalseF):
        return TRUE
    if isinstance(formula, Not):
        return formula.operand
    return Not(formula)


def implies(antecedent: Formula, consequent: Formula) -> Formula:
    if isinstance(antecedent, TrueF):
        return consequent
    if isinstance(antecedent, FalseF):
        return TRUE
    if isinstance(consequent, TrueF):
        return TRUE
    return Implies(antecedent, consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return Iff(left, right)


def exists(symbols: Union[Symbol, Sequence[Symbol]], body: Formula) -> Formula:
    """Existentially quantify one or more symbols (innermost is last)."""
    if isinstance(symbols, Symbol):
        symbols = [symbols]
    result = body
    for symbol in reversed(list(symbols)):
        result = Exists(symbol, result)
    return result


def forall(symbols: Union[Symbol, Sequence[Symbol]], body: Formula) -> Formula:
    """Universally quantify one or more symbols (innermost is last)."""
    if isinstance(symbols, Symbol):
        symbols = [symbols]
    result = body
    for symbol in reversed(list(symbols)):
        result = Forall(symbol, result)
    return result


def lt(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.LT, to_term(left), to_term(right))


def le(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.LE, to_term(left), to_term(right))


def gt(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.GT, to_term(left), to_term(right))


def ge(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.GE, to_term(left), to_term(right))


def eq(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.EQ, to_term(left), to_term(right))


def ne(left: TermLike, right: TermLike) -> Formula:
    return Atom(Rel.NE, to_term(left), to_term(right))


# ---------------------------------------------------------------------------
# The shape of the IR
# ---------------------------------------------------------------------------


def node_children(node: _Interned) -> Tuple[_Interned, ...]:
    """The term and formula children of ``node``, in field order.

    This is the one statement of the IR's shape, read off each class's
    ``_fields``: a child is a field value that is itself a node, or an
    element of a tuple field (the operands of ``And``/``Or``).  Symbols,
    relations and integers (an array symbol, a binder symbol,
    ``Divides.divisor``) are labels, not children; a ``Store`` in an array
    position (a chained store, or a read of one) is a child.
    """
    children: Tuple[_Interned, ...] = ()
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, _Interned):
            children += (value,)
        elif type(value) is tuple:
            children += value
    return children


def rebuild(node: _Interned, children: Tuple[_Interned, ...]) -> _Interned:
    """Reconstruct ``node`` with its children replaced (same order as
    :func:`node_children`, whose rule picks the fields to fill), returning
    ``node`` itself when nothing changed."""
    old = node_children(node)
    if len(children) != len(old):
        raise ValueError(f"child arity mismatch rebuilding {node!r}")
    if all(new is prev for new, prev in zip(children, old)):
        return node
    remaining = iter(children)
    args = []
    for name in node._fields:
        value = getattr(node, name)
        if isinstance(value, _Interned):
            value = next(remaining)
        elif type(value) is tuple:
            value = tuple(next(remaining) for _ in value)
        args.append(value)
    return type(node)(*args)


# -- cached structural queries ----------------------------------------------
#
# Each query is computed once per interned node and cached on it; with heavy
# subterm sharing (the common case across obligations of one program, and
# across sibling candidates in the explorer) the amortised cost of a query
# on a fresh formula is proportional to its *new* nodes only.  Each folds
# its children's answers and adds only its own special cases.

_EMPTY: FrozenSet[Symbol] = frozenset()


def _union(left: FrozenSet[Symbol], right: FrozenSet[Symbol]) -> FrozenSet[Symbol]:
    """``left | right``, reusing an operand that already holds the other."""
    if right <= left:
        return left
    if left <= right:
        return right
    return left | right


def _free_of(node: _Interned) -> FrozenSet[Symbol]:
    cached = node._free
    if cached is not _UNSET:
        return cached
    cls = type(node)
    if cls is SymTerm:
        result = frozenset((node.symbol,))
    else:
        result = _EMPTY
        for child in node_children(node):
            result = _union(result, _free_of(child))
        if (cls is Exists or cls is Forall) and node.symbol in result:
            result = result - {node.symbol}
    object.__setattr__(node, "_free", result)
    return result


def _arrays_of(node: _Interned) -> FrozenSet[Symbol]:
    cached = node._arrays
    if cached is not _UNSET:
        return cached
    cls = type(node)
    result = _EMPTY
    if (cls is Select or cls is Store) and type(node.array) is Symbol:
        result = frozenset((node.array,))
    for child in node_children(node):
        result = _union(result, _arrays_of(child))
    object.__setattr__(node, "_arrays", result)
    return result


def _size_of(node: _Interned) -> int:
    cached = node._size
    if cached is not _UNSET:
        return cached
    result = 1
    for child in node_children(node):
        result += _size_of(child)
    object.__setattr__(node, "_size", result)
    return result


def _qdepth_of(node: _Interned) -> int:
    cached = node._qdepth
    if cached is not _UNSET:
        return cached
    result = 0
    for child in node_children(node):
        depth = _qdepth_of(child)
        if depth > result:
            result = depth
    cls = type(node)
    if cls is Exists or cls is Forall:
        result += 1
    object.__setattr__(node, "_qdepth", result)
    return result


def term_symbols(term: Term) -> FrozenSet[Symbol]:
    """Return the integer symbols occurring in a term (not array symbols)."""
    if not isinstance(term, Term):
        raise TypeError(f"unknown term {term!r}")
    return _free_of(term)


def free_symbols(formula: Formula) -> FrozenSet[Symbol]:
    """Return the free integer symbols of a formula."""
    if not isinstance(formula, Formula):
        raise TypeError(f"unknown formula {formula!r}")
    return _free_of(formula)


def formula_arrays(formula: Formula) -> FrozenSet[Symbol]:
    """Return the array symbols occurring in a formula."""
    if not isinstance(formula, Formula):
        raise TypeError(f"unknown formula {formula!r}")
    return _arrays_of(formula)


def formula_size(formula: Formula) -> int:
    """A simple node-count size metric used in effort reports."""
    if not isinstance(formula, Formula):
        raise TypeError(f"unknown formula {formula!r}")
    return _size_of(formula)


def quantifier_depth(formula: Formula) -> int:
    """Maximum quantifier nesting depth (0 for quantifier-free formulas)."""
    if not isinstance(formula, (Formula, Term)):
        raise TypeError(f"unknown formula {formula!r}")
    return _qdepth_of(formula)


# ---------------------------------------------------------------------------
# Fresh symbol generation
# ---------------------------------------------------------------------------


class FreshSymbols:
    """A generator of fresh symbols avoiding a given set of used names.

    The proof rules (Figures 7 and 8) require ``fresh(X')`` side conditions;
    a shared instance of this class provides those fresh names while keeping
    them readable (``x'``, ``x''``, ``x'1`` are rendered as ``x_f1``,
    ``x_f2``, ...).
    """

    def __init__(self, used: Optional[Sequence[str]] = None) -> None:
        self._used = set(used or ())
        self._counter = itertools.count(1)

    def reserve(self, names: Sequence[str]) -> None:
        """Mark additional names as used."""
        self._used.update(names)

    def fresh(self, base: str, tag: Optional[Tag] = None) -> Symbol:
        """Return a fresh symbol whose name is derived from ``base``."""
        while True:
            index = next(self._counter)
            candidate = f"{base}_f{index}"
            if candidate not in self._used:
                self._used.add(candidate)
                return Symbol(candidate, tag)
