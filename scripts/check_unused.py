#!/usr/bin/env python
"""Check that every function, class and method under src/repro is used.

A hermetic dead-code check for the docs CI job: a definition in
``src/repro`` fails the check when its name occurs nowhere in the source
tree, the tests, the docs, the examples, the scripts or the benchmark
harness except at its own definition.  A name counts as used wherever it
appears as a word, in code, strings or prose, so a name that is only
looked up by string (an ``__all__`` entry, a tracer target) or only
documented still counts.  Decorated definitions (dispatcher handlers,
properties) and dunder methods are skipped: they are reached without
their name being written.

Usage::

    python scripts/check_unused.py   # exit 1 and list each unused definition
"""

from __future__ import annotations

import ast
import collections
import glob
import os
import re
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where definitions are checked.
_PACKAGE = os.path.join("src", "repro")

#: Where a use may appear: directories (searched for .py and .md files) and files.
_SEARCHED = ("src", "tests", "docs", "examples", "scripts", "perfbench", "README.md")

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _searched_files() -> list:
    files = []
    for entry in _SEARCHED:
        path = os.path.join(_ROOT, entry)
        if os.path.isfile(path):
            files.append(path)
            continue
        for suffix in ("py", "md"):
            files.extend(glob.glob(os.path.join(path, "**", f"*.{suffix}"), recursive=True))
    return sorted(files)


def _definitions(path: str) -> list:
    """``(name, line)`` of each checked definition in one module."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _DEFINITIONS) or node.decorator_list:
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        found.append((node.name, node.lineno))
    return found


def find_unused() -> list:
    """Problem strings, one per definition whose name is used nowhere."""
    words = collections.Counter()
    for path in _searched_files():
        with open(path, "r", encoding="utf-8") as handle:
            words.update(_WORD_RE.findall(handle.read()))
    definitions = []
    for path in sorted(glob.glob(os.path.join(_ROOT, _PACKAGE, "**", "*.py"), recursive=True)):
        definitions.extend((path, name, line) for name, line in _definitions(path))
    # Each definition writes its own name once; a name used elsewhere is
    # written more often than it is defined.
    defined = collections.Counter(name for _path, name, _line in definitions)
    return [
        f"{os.path.relpath(path, _ROOT)}:{line}: {name!r} is defined but never used"
        for path, name, line in definitions
        if words[name] <= defined[name]
    ]


def main() -> int:
    problems = find_unused()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} unused definition(s) under {_PACKAGE}")
        return 1
    print(f"every definition under {_PACKAGE} is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
