"""Greedy statement-deletion shrinking of diverging programs.

When the differential funnel finds a parity violation it does not commit a
200-line generated program as the reproducer: :func:`shrink_source`
repeatedly deletes statements — top-level, inside loop bodies, inside
branch arms — keeping a deletion whenever the caller's ``still_fails``
predicate confirms the smaller program *still diverges*, until no single
deletion survives.  The result is a local minimum: every remaining
statement is load-bearing for the divergence.

:func:`write_reproducer` then persists the fixture — the shrunk ``.rlx``
source plus the structured divergence record — under a directory future
sessions can commit and replay.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path
from typing import Callable, List, Optional

from ..lang.ast import If, Program, Seq, Skip, Stmt, While
from ..lang.parser import parse_program
from ..lang.pretty import pretty_program


def _flatten(stmt: Stmt) -> List[Stmt]:
    if isinstance(stmt, Seq):
        return _flatten(stmt.first) + _flatten(stmt.second)
    if isinstance(stmt, Skip):
        return []
    return [stmt]


def _sequence(stmts: List[Stmt]) -> Stmt:
    if not stmts:
        return Skip()
    result = stmts[0]
    for stmt in stmts[1:]:
        result = Seq(result, stmt)
    return result


def _delete_candidates(stmt: Stmt, prefix: tuple = ()) -> List[tuple]:
    """Paths of every deletable statement, outermost first.

    A path is a tuple of indices into successive flattened blocks: ``(2,)``
    is the third top-level statement, ``(2, 0)`` the first statement of its
    body (for loops) or then-branch (for conditionals).
    """
    paths: List[tuple] = []
    for index, child in enumerate(_flatten(stmt)):
        path = prefix + (index,)
        paths.append(path)
        if isinstance(child, While):
            paths.extend(_delete_candidates(child.body, path))
        elif isinstance(child, If):
            paths.extend(_delete_candidates(child.then_branch, path))
    return paths


def _delete_at(stmt: Stmt, path: tuple) -> Optional[Stmt]:
    """``stmt`` with the statement at ``path`` removed, or ``None`` when
    the deletion is structurally impossible."""
    stmts = _flatten(stmt)
    index = path[0]
    if index >= len(stmts):
        return None
    if len(path) == 1:
        return _sequence(stmts[:index] + stmts[index + 1 :])
    target = stmts[index]
    if isinstance(target, While):
        new_body = _delete_at(target.body, path[1:])
        if new_body is None:
            return None
        replacement: Stmt = dataclasses.replace(target, body=new_body)
    elif isinstance(target, If):
        new_then = _delete_at(target.then_branch, path[1:])
        if new_then is None:
            return None
        replacement = dataclasses.replace(target, then_branch=new_then)
    else:
        return None
    return _sequence(stmts[:index] + [replacement] + stmts[index + 1 :])


def shrink_program(
    program: Program, still_fails: Callable[[str], bool]
) -> Program:
    """Greedily delete statements while ``still_fails(pretty(p))`` holds.

    The predicate receives candidate *source text* (the currency the whole
    corpus works in); any exception it raises counts as "does not fail"
    — a candidate that crashes the funnel differently is not a smaller
    instance of the original divergence.
    """
    current = program
    progress = True
    while progress:
        progress = False
        for path in _delete_candidates(current.body):
            candidate_body = _delete_at(current.body, path)
            if candidate_body is None:
                continue
            # The pre-shrink source text no longer describes the body.
            candidate = dataclasses.replace(current, body=candidate_body, source=None)
            try:
                source = pretty_program(candidate)
                # The shrunk program must stay inside the language the
                # funnel accepts: re-parseable from its own pretty form.
                parse_program(source, name=candidate.name)
                if still_fails(source):
                    current = candidate
                    progress = True
                    break
            except Exception:
                continue
    return current


def shrink_source(source: str, still_fails: Callable[[str], bool]) -> str:
    """Source-level front end of :func:`shrink_program`."""
    program = parse_program(source)
    return pretty_program(shrink_program(program, still_fails))


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "divergence"


def write_reproducer(divergence_dir: str, divergence) -> str:
    """Persist one divergence fixture; returns the fixture directory.

    Layout (one directory per diverging program)::

        <divergence_dir>/<program>/
            program.rlx       # the shrunk reproducer source
            divergence.json   # stage, legs, mismatching values
    """
    fixture = Path(divergence_dir) / _slug(divergence.program)
    fixture.mkdir(parents=True, exist_ok=True)
    source = divergence.shrunk_source or ""
    (fixture / "program.rlx").write_text(source, encoding="utf-8")
    (fixture / "divergence.json").write_text(
        json.dumps(divergence.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return str(fixture)
