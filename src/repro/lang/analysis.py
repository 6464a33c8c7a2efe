"""Static analyses over the relaxed-programming language AST.

These are the small syntactic analyses the paper's proof rules rely on:

* free variables of expressions and the tagged reads of relational ones,
* the set of variables a statement may modify,
* the ``no_rel(s)`` predicate guarding the ``diverge`` rule (Figure 8),
* well-formedness of programs: unique ``relate`` labels, use of declared
  variables, and ``relate`` statements not nested under divergent-only
  contexts (checked later by the proof system itself),
* the ``Gamma`` map from ``relate`` labels to their relational conditions
  used by the observational compatibility relation (Theorem 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Set, Tuple

from .ast import (
    ArrayAssign,
    ArrayRead,
    Assert,
    Assign,
    Assume,
    BinOp,
    BoolBin,
    BoolExpr,
    BoolLit,
    Compare,
    Expr,
    Havoc,
    If,
    IntLit,
    Not,
    Program,
    Relate,
    Relax,
    RelArrayRead,
    RelVar,
    Seq,
    Skip,
    Stmt,
    Var,
    While,
)


class WellFormednessError(Exception):
    """Raised when a program violates a static well-formedness requirement."""


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------


def expr_vars(expr: Expr) -> FrozenSet[str]:
    """Return the free program variables of an integer expression."""
    if isinstance(expr, IntLit):
        return frozenset()
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, BinOp):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, ArrayRead):
        return frozenset({expr.array}) | expr_vars(expr.index)
    raise TypeError(f"unknown expression node {expr!r}")


def bool_vars(expr: BoolExpr) -> FrozenSet[str]:
    """Return the free program variables of a boolean expression."""
    if isinstance(expr, BoolLit):
        return frozenset()
    if isinstance(expr, Compare):
        return expr_vars(expr.left) | expr_vars(expr.right)
    if isinstance(expr, BoolBin):
        return bool_vars(expr.left) | bool_vars(expr.right)
    if isinstance(expr, Not):
        return bool_vars(expr.operand)
    raise TypeError(f"unknown boolean expression node {expr!r}")


def rel_bool_vars(expr: BoolExpr) -> FrozenSet[Tuple[str, str]]:
    """Return the reads of a relational expression as ``(name, tag)`` pairs.

    The tag is ``"o"`` for original-execution reads and ``"r"`` for
    relaxed-execution reads, matching the paper's ``x<o>`` / ``x<r>``.
    """
    reads = set()
    for node in expr.walk():
        if isinstance(node, RelVar):
            reads.add((node.name, node.execution.value))
        elif isinstance(node, RelArrayRead):
            reads.add((node.array, node.execution.value))
        elif isinstance(node, (Var, ArrayRead)):
            raise TypeError(f"untagged read {node} in a relational expression")
    return frozenset(reads)


# ---------------------------------------------------------------------------
# Statement-level analyses
# ---------------------------------------------------------------------------


def modified_vars(stmt: Stmt) -> FrozenSet[str]:
    """Return the set of scalar variables a statement may modify.

    Array names are included when the statement writes an array element or
    havocs/relaxes the array wholesale (the case-study modelling of
    ``relax (RS) st (true)`` treats RS as a scalar summary or an array name).
    """
    if isinstance(stmt, (Skip, Assert, Assume, Relate)):
        return frozenset()
    if isinstance(stmt, Assign):
        return frozenset({stmt.target})
    if isinstance(stmt, ArrayAssign):
        return frozenset({stmt.array})
    if isinstance(stmt, (Havoc, Relax)):
        return frozenset(stmt.targets)
    if isinstance(stmt, If):
        return modified_vars(stmt.then_branch) | modified_vars(stmt.else_branch)
    if isinstance(stmt, While):
        return modified_vars(stmt.body)
    if isinstance(stmt, Seq):
        return modified_vars(stmt.first) | modified_vars(stmt.second)
    raise TypeError(f"unknown statement node {stmt!r}")


def read_vars(stmt: Stmt) -> FrozenSet[str]:
    """Return the set of variables a statement may read."""
    if isinstance(stmt, Skip):
        return frozenset()
    if isinstance(stmt, Assign):
        return expr_vars(stmt.value)
    if isinstance(stmt, ArrayAssign):
        return frozenset({stmt.array}) | expr_vars(stmt.index) | expr_vars(stmt.value)
    if isinstance(stmt, (Havoc, Relax)):
        return bool_vars(stmt.predicate)
    if isinstance(stmt, (Assert, Assume)):
        return bool_vars(stmt.condition)
    if isinstance(stmt, Relate):
        return frozenset(name for name, _tag in rel_bool_vars(stmt.condition))
    if isinstance(stmt, If):
        return (
            bool_vars(stmt.condition)
            | read_vars(stmt.then_branch)
            | read_vars(stmt.else_branch)
        )
    if isinstance(stmt, While):
        return bool_vars(stmt.condition) | read_vars(stmt.body)
    if isinstance(stmt, Seq):
        return read_vars(stmt.first) | read_vars(stmt.second)
    raise TypeError(f"unknown statement node {stmt!r}")


def used_vars(stmt: Stmt) -> FrozenSet[str]:
    """Return all variables mentioned by a statement (read or written)."""
    return read_vars(stmt) | modified_vars(stmt)


def no_rel(stmt: Stmt) -> bool:
    """The ``no_rel(s)`` predicate of Figure 8.

    True iff no ``relate`` statement occurs anywhere inside ``stmt``.  The
    ``diverge`` rule of the axiomatic relaxed semantics is only applicable to
    statements satisfying this predicate, because relational assertions have
    no natural semantics once the original and relaxed executions are no
    longer in lockstep.
    """
    return not any(isinstance(node, Relate) for node in stmt.walk())


def contains_relax(stmt: Stmt) -> bool:
    """Return True iff a ``relax`` statement occurs anywhere inside ``stmt``."""
    return any(isinstance(node, Relax) for node in stmt.walk())


def relate_statements(stmt: Stmt) -> List[Relate]:
    """Return all ``relate`` statements inside ``stmt`` in pre-order."""
    return [node for node in stmt.walk() if isinstance(node, Relate)]


def gamma(program: Program) -> Dict[str, BoolExpr]:
    """Build the label map ``Γ : L -> B*`` of Theorem 6.

    ``Γ`` maps each ``relate`` label in the program to its relational boolean
    expression.  Well-formed programs have uniquely labelled ``relate``
    statements; duplicates raise :class:`WellFormednessError`.
    """
    mapping: Dict[str, BoolExpr] = {}
    for stmt in relate_statements(program.body):
        if stmt.label in mapping:
            raise WellFormednessError(
                f"duplicate relate label {stmt.label!r}; relate statements in "
                "well-formed programs must be uniquely labelled"
            )
        mapping[stmt.label] = stmt.condition
    return mapping


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellFormednessReport:
    """The result of checking a program's static well-formedness."""

    ok: bool
    errors: Tuple[str, ...]

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise WellFormednessError("; ".join(self.errors))


def check_program(program: Program, *, strict_declarations: bool = False) -> WellFormednessReport:
    """Check static well-formedness conditions for a program.

    Conditions checked:

    * ``relate`` labels are unique across the program,
    * ``havoc`` / ``relax`` target lists are non-empty and duplicate-free,
    * if ``strict_declarations`` is set, every variable used is declared in
      ``program.variables`` or ``program.arrays``.
    """
    errors: List[str] = []

    seen_labels: Set[str] = set()
    for stmt in relate_statements(program.body):
        if stmt.label in seen_labels:
            errors.append(f"duplicate relate label {stmt.label!r}")
        seen_labels.add(stmt.label)

    for node in program.body.walk():
        if isinstance(node, (Havoc, Relax)):
            kind = "havoc" if isinstance(node, Havoc) else "relax"
            if not node.targets:
                errors.append(f"{kind} statement has an empty target list")
            if len(set(node.targets)) != len(node.targets):
                errors.append(
                    f"{kind} statement has duplicate targets {node.targets!r}"
                )

    if strict_declarations:
        declared = set(program.variables) | set(program.arrays)
        for name in sorted(used_vars(program.body)):
            if name not in declared:
                errors.append(f"variable {name!r} is used but not declared")

    return WellFormednessReport(ok=not errors, errors=tuple(errors))


def statement_size(stmt: Stmt) -> int:
    """Return the number of AST nodes in a statement (a simple size metric)."""
    return sum(1 for _ in stmt.walk())


def program_size(program: Program) -> int:
    """Return the number of AST nodes in a program."""
    return statement_size(program.body)


def count_statement_kinds(program: Program) -> Dict[str, int]:
    """Count statements in the program, keyed by their class name.

    Used by the artifact-statistics benchmark (experiment E1) to report a
    structural profile of each case study.
    """
    counts: Dict[str, int] = {}
    for stmt in program.statements():
        key = type(stmt).__name__
        counts[key] = counts.get(key, 0) + 1
    return counts
