"""Abstract syntax for the relaxed-programming language of Carbin et al. (PLDI 2012).

The language (Figure 1 of the paper) is a small imperative language with:

* integer expressions ``E`` and boolean expressions ``B``,
* *relational* expressions ``E*`` / ``B*``, which have exactly the grammar
  of ``E`` / ``B`` except that each read names its execution: ``x<o>`` or
  ``A<o>[i]`` in the original execution, ``x<r>`` or ``A<r>[i]`` in the
  relaxed one,
* statements: ``skip``, assignment, ``havoc (X) st (B)``,
  ``relax (X) st (B)``, ``if``, ``while``, ``assume B``, ``assert B``,
  ``relate l : B*`` and sequential composition.

Every AST node is an immutable (frozen) dataclass so nodes can be hashed,
compared structurally, and safely shared between programs.  The module also
provides the array extension mentioned in Section 5 of the paper
(``ArrayRead`` / ``ArrayWrite`` and the corresponding statement form).

There is one expression tree for both kinds.  A relational expression is a
:class:`BoolExpr` whose reads are the tagged :class:`RelVar` /
:class:`RelArrayRead` nodes, and a program expression is one whose reads
are the plain :class:`Var` / :class:`ArrayRead` nodes; the parser and the
translation into formulas keep the two apart.

Nodes carry an optional source :class:`Span` (filled in by the parser).
The span is deliberately excluded from equality, hashing and repr: two
structurally identical programs are *the same program* no matter where
their text came from, divergence-spec anchors keep resolving across a
pretty/parse round-trip, and obligation fingerprints cannot depend on
source locations.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Tuple, Union


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


class IntOp(enum.Enum):
    """Integer binary operators (``iop`` in the paper's grammar)."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    MIN = "min"
    MAX = "max"

    @property
    def function(self) -> Callable[[int, int], int]:
        """The operator as a two-argument function, for compiled evaluators."""
        return _INT_FUNCTIONS[self]

    def apply(self, left: int, right: int) -> int:
        """Apply the operator to two integers using the paper's semantics.

        Division is integer division truncated toward negative infinity
        (Python semantics).  Division/modulo by zero raises
        :class:`EvaluationError` at interpretation time; here we raise
        ``ZeroDivisionError`` and let callers wrap it.
        """
        return _INT_FUNCTIONS[self](left, right)


_INT_FUNCTIONS = {
    IntOp.ADD: operator.add,
    IntOp.SUB: operator.sub,
    IntOp.MUL: operator.mul,
    IntOp.DIV: operator.floordiv,
    IntOp.MOD: operator.mod,
    IntOp.MIN: min,
    IntOp.MAX: max,
}


class CmpOp(enum.Enum):
    """Integer comparison operators (``cmp`` in the paper's grammar)."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    @property
    def function(self) -> Callable[[int, int], bool]:
        """The comparison as a two-argument function, for compiled evaluators."""
        return _CMP_FUNCTIONS[self]

    def apply(self, left: int, right: int) -> bool:
        return _CMP_FUNCTIONS[self](left, right)

    def negate(self) -> "CmpOp":
        """Return the comparison denoting the logical negation of this one."""
        return _CMP_NEGATION[self]

    def flip(self) -> "CmpOp":
        """Return the comparison with operands swapped (e.g. ``<`` -> ``>``)."""
        return _CMP_FLIP[self]


_CMP_FUNCTIONS = {
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.GT: operator.gt,
    CmpOp.GE: operator.ge,
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
}

_CMP_NEGATION = {
    CmpOp.LT: CmpOp.GE,
    CmpOp.LE: CmpOp.GT,
    CmpOp.GT: CmpOp.LE,
    CmpOp.GE: CmpOp.LT,
    CmpOp.EQ: CmpOp.NE,
    CmpOp.NE: CmpOp.EQ,
}

_CMP_FLIP = {
    CmpOp.LT: CmpOp.GT,
    CmpOp.LE: CmpOp.GE,
    CmpOp.GT: CmpOp.LT,
    CmpOp.GE: CmpOp.LE,
    CmpOp.EQ: CmpOp.EQ,
    CmpOp.NE: CmpOp.NE,
}


class BoolOp(enum.Enum):
    """Boolean connectives (``lop`` in the paper's grammar)."""

    AND = "&&"
    OR = "||"
    IMPLIES = "==>"
    IFF = "<=>"

    def apply(self, left: bool, right: bool) -> bool:
        if self is BoolOp.AND:
            return left and right
        if self is BoolOp.OR:
            return left or right
        if self is BoolOp.IMPLIES:
            return (not left) or right
        if self is BoolOp.IFF:
            return left == right
        raise AssertionError(f"unhandled boolean operator {self}")


class Execution(enum.Enum):
    """Which execution a tagged read talks about.

    ``ORIGINAL`` corresponds to ``x<o>`` and ``RELAXED`` to ``x<r>`` in the
    paper's relational expression syntax.
    """

    ORIGINAL = "o"
    RELAXED = "r"


# ---------------------------------------------------------------------------
# Source spans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """A source region: 1-based start line/column to inclusive end column.

    ``end_column`` points one past the last character (token column plus
    token length), matching the convention of most editors and LSP ranges.
    """

    line: int
    column: int
    end_line: int
    end_column: int

    def cover(self, other: Optional["Span"]) -> "Span":
        """The smallest span containing both ``self`` and ``other``."""
        if other is None:
            return self
        start = min((self.line, self.column), (other.line, other.column))
        end = max((self.end_line, self.end_column), (other.end_line, other.end_column))
        return Span(start[0], start[1], end[0], end[1])

    def describe(self) -> str:
        if self.line == self.end_line:
            return f"line {self.line}, columns {self.column}-{self.end_column}"
        return f"lines {self.line}-{self.end_line}"

    def as_dict(self) -> dict:
        return {
            "line": self.line,
            "column": self.column,
            "end_line": self.end_line,
            "end_column": self.end_column,
        }


# ---------------------------------------------------------------------------
# Integer expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Node:
    """Base class for every AST node.

    The ``span`` field is keyword-only with ``compare=False`` so that (a)
    every subclass keeps its positional field order, and (b) structural
    equality, hashing, anchor resolution and obligation fingerprints are
    all span-blind.
    """

    span: Optional[Span] = field(default=None, compare=False, repr=False, kw_only=True)

    def children(self) -> Tuple["Node", ...]:
        """Return the immediate child nodes (expressions and statements)."""
        return ()

    def walk(self) -> Iterator["Node"]:
        """Yield this node and every descendant in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


class Expr(Node):
    """Base class of integer expressions (``E``)."""

    __slots__ = ()


@dataclass(frozen=True)
class IntLit(Expr):
    """An integer literal ``n``."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class Var(Expr):
    """A program variable ``x`` read in the current execution."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BinOp(Expr):
    """A binary integer operation ``E iop E``."""

    op: IntOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        if self.op in (IntOp.MIN, IntOp.MAX):
            return f"{self.op.value}({self.left}, {self.right})"
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class ArrayRead(Expr):
    """An array read ``A[index]`` (Section 5 array extension)."""

    array: str
    index: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.index,)

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class RelVar(Expr):
    """A tagged read ``x<o>`` or ``x<r>``, legal only in a relational expression."""

    name: str
    execution: Execution

    def __str__(self) -> str:
        return f"{self.name}<{self.execution.value}>"


@dataclass(frozen=True)
class RelArrayRead(Expr):
    """A tagged array read ``A<o>[index]`` or ``A<r>[index]``."""

    array: str
    execution: Execution
    index: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.index,)

    def __str__(self) -> str:
        return f"{self.array}<{self.execution.value}>[{self.index}]"


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------


class BoolExpr(Node):
    """Base class of boolean expressions (``B``)."""

    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(BoolExpr):
    """``true`` or ``false``."""

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class Compare(BoolExpr):
    """A comparison ``E cmp E``."""

    op: CmpOp
    left: Expr
    right: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class BoolBin(BoolExpr):
    """A boolean connective ``B lop B``."""

    op: BoolOp
    left: BoolExpr
    right: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class Not(BoolExpr):
    """Boolean negation ``¬B``."""

    operand: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class of statements (``S``)."""

    __slots__ = ()


@dataclass(frozen=True)
class Skip(Stmt):
    """``skip``."""

    def __str__(self) -> str:
        return "skip"


@dataclass(frozen=True)
class Assign(Stmt):
    """``x = E``."""

    target: str
    value: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"{self.target} = {self.value}"


@dataclass(frozen=True)
class ArrayAssign(Stmt):
    """``A[E1] = E2`` (array extension)."""

    array: str
    index: Expr
    value: Expr

    def children(self) -> Tuple[Node, ...]:
        return (self.index, self.value)

    def __str__(self) -> str:
        return f"{self.array}[{self.index}] = {self.value}"


@dataclass(frozen=True)
class Havoc(Stmt):
    """``havoc (X) st (B)`` — nondeterministic assignment in both semantics."""

    targets: Tuple[str, ...]
    predicate: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.predicate,)

    def __str__(self) -> str:
        return f"havoc ({', '.join(self.targets)}) st ({self.predicate})"


@dataclass(frozen=True)
class Relax(Stmt):
    """``relax (X) st (B)`` — nondeterministic only in the relaxed semantics."""

    targets: Tuple[str, ...]
    predicate: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.predicate,)

    def __str__(self) -> str:
        return f"relax ({', '.join(self.targets)}) st ({self.predicate})"


@dataclass(frozen=True)
class Assume(Stmt):
    """``assume B`` — unary assumption; failure yields the ``ba`` outcome."""

    condition: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.condition,)

    def __str__(self) -> str:
        return f"assume {self.condition}"


@dataclass(frozen=True)
class Assert(Stmt):
    """``assert B`` — unary assertion; failure yields the ``wr`` outcome."""

    condition: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.condition,)

    def __str__(self) -> str:
        return f"assert {self.condition}"


@dataclass(frozen=True)
class Relate(Stmt):
    """``relate l : B*`` — a labelled relational acceptability assertion."""

    label: str
    condition: BoolExpr

    def children(self) -> Tuple[Node, ...]:
        return (self.condition,)

    def __str__(self) -> str:
        return f"relate {self.label}: {self.condition}"


@dataclass(frozen=True)
class Diverge:
    """The ``diverge (original_post) (relaxed_post)`` annotation.

    It sits on an ``if`` or ``while`` and gives the unary postconditions
    that the original (⊢o) and intermediate (⊢i) proofs establish when the
    relational prover verifies the statement with the diverge rule.
    Without one both default to ``true``: sound, but only the relational
    frame survives the divergent region.
    """

    original_post: BoolExpr
    relaxed_post: BoolExpr


@dataclass(frozen=True)
class If(Stmt):
    """``if (B) [diverge (B1) (B2)] {S1} else {S2}``.

    The optional ``diverge`` annotation is not part of the dynamic
    semantics.
    """

    condition: BoolExpr
    then_branch: Stmt
    else_branch: Stmt
    diverge: Optional[Diverge] = None

    def children(self) -> Tuple[Node, ...]:
        return (self.condition, self.then_branch, self.else_branch)

    def __str__(self) -> str:
        return (
            f"if ({self.condition}) {{ {self.then_branch} }} "
            f"else {{ {self.else_branch} }}"
        )


@dataclass(frozen=True)
class While(Stmt):
    """``while (B) {S}``.

    The optional ``invariant`` / ``rel_invariant`` / ``diverge`` fields
    carry the loop annotations used by the Hoare-logic verification front
    ends.  They are not part of the dynamic semantics.
    """

    condition: BoolExpr
    body: Stmt
    invariant: Optional[BoolExpr] = None
    rel_invariant: Optional[BoolExpr] = None
    diverge: Optional[Diverge] = None

    def children(self) -> Tuple[Node, ...]:
        return (self.condition, self.body)

    def __str__(self) -> str:
        return f"while ({self.condition}) {{ {self.body} }}"


@dataclass(frozen=True)
class Seq(Stmt):
    """Sequential composition ``S1 ; S2``."""

    first: Stmt
    second: Stmt

    def children(self) -> Tuple[Node, ...]:
        return (self.first, self.second)

    def __str__(self) -> str:
        return f"{self.first}; {self.second}"


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    """A complete relaxed program.

    A program is a single top-level statement together with optional
    declarations of the variables and arrays it uses.  Declarations are not
    required by the dynamic semantics (states are finite maps that grow on
    assignment) but allow well-formedness checking and nicer error messages.

    The header clauses state the program's acceptability specification:
    ``shared`` names the declared arrays both executions read identically,
    ``requires``/``ensures`` are the unary pre/postconditions of the ⊢o
    proof and ``rel_requires``/``rel_ensures`` the relational ones of the
    ⊢r proof (``None`` means the default, see
    :meth:`repro.hoare.verifier.AcceptabilitySpec.of`).
    """

    body: Stmt
    name: str = "program"
    variables: Tuple[str, ...] = field(default_factory=tuple)
    arrays: Tuple[str, ...] = field(default_factory=tuple)
    shared: Tuple[str, ...] = field(default_factory=tuple)
    requires: Optional[BoolExpr] = None
    ensures: Optional[BoolExpr] = None
    rel_requires: Optional[BoolExpr] = None
    rel_ensures: Optional[BoolExpr] = None
    #: The concrete syntax this program was parsed from (``None`` for
    #: programs assembled with the builder API).  Excluded from equality
    #: and hashing, like node spans.
    source: Optional[str] = field(default=None, compare=False, repr=False)

    def statements(self) -> Iterator[Stmt]:
        """Yield every statement node in the program in pre-order."""
        for node in self.body.walk():
            if isinstance(node, Stmt):
                yield node

    def relate_labels(self) -> Tuple[str, ...]:
        """Return the labels of all ``relate`` statements, in syntactic order."""
        return tuple(
            stmt.label for stmt in self.statements() if isinstance(stmt, Relate)
        )


# ---------------------------------------------------------------------------
# Convenience constants and helpers
# ---------------------------------------------------------------------------

TRUE = BoolLit(True)
FALSE = BoolLit(False)
SKIP = Skip()


def seq(*stmts: Stmt) -> Stmt:
    """Right-associate a sequence of statements into nested :class:`Seq` nodes.

    ``seq()`` returns ``skip`` and ``seq(s)`` returns ``s`` unchanged.
    """
    if not stmts:
        return SKIP
    result = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        result = Seq(stmt, result)
    return result


# Statement-valued fields of the statements that contain statements, in
# traversal order.  This is the single child spec used by the structural
# statement rewrites below (the formula IR has its own richer framework in
# :mod:`repro.logic.traverse`).
_STMT_CHILD_FIELDS = {
    Seq: ("first", "second"),
    If: ("then_branch", "else_branch"),
    While: ("body",),
}


def replace_statement(stmt: Stmt, target: Stmt, replacement: Stmt) -> Stmt:
    """Structurally replace the first occurrence of ``target`` in ``stmt``.

    Returns ``stmt`` itself (same object) when ``target`` does not occur, so
    callers and the recursion itself can detect "no replacement happened"
    with an identity check.  ``If`` and ``While`` statements keep their
    annotations through the rebuild.
    """
    import dataclasses as _dataclasses

    if stmt is target or stmt == target:
        return replacement
    fields = _STMT_CHILD_FIELDS.get(type(stmt))
    if not fields:
        return stmt
    for name in fields:
        child = getattr(stmt, name)
        new_child = replace_statement(child, target, replacement)
        if new_child is not child:
            return _dataclasses.replace(stmt, **{name: new_child})
    return stmt


def conj(*exprs: BoolExpr) -> BoolExpr:
    """Conjoin boolean expressions; ``conj()`` is ``true``."""
    if not exprs:
        return TRUE
    result = exprs[0]
    for expr in exprs[1:]:
        result = BoolBin(BoolOp.AND, result, expr)
    return result


def disj(*exprs: BoolExpr) -> BoolExpr:
    """Disjoin boolean expressions; ``disj()`` is ``false``."""
    if not exprs:
        return FALSE
    result = exprs[0]
    for expr in exprs[1:]:
        result = BoolBin(BoolOp.OR, result, expr)
    return result


def int_expr(value: Union[int, str, Expr]) -> Expr:
    """Coerce an int, variable name or expression into an :class:`Expr`."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not integer expressions")
    if isinstance(value, int):
        return IntLit(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot coerce {value!r} to an integer expression")
