#!/usr/bin/env python
"""Check that every definition and every import under src/repro is used.

A hermetic dead-code check for the docs CI job, with two parts.

Definitions.  A function, class or method in ``src/repro`` fails the check
when its name occurs nowhere in the source tree, the tests, the docs, the
examples, the scripts or the benchmark harness outside its own lines (its
definition and its body, so a function named only by its own recursion is
unused).  A name counts as used wherever it appears as a word, in code,
strings or prose, so a name that is only looked up by string (an
``__all__`` entry, a tracer target) or only documented still counts.
Decorated definitions (dispatcher handlers, properties) and dunder methods
are skipped: they are reached without their name being written.

Imports.  A name a module under ``src/repro`` imports fails the check when
the module never uses it: not in code, and not inside a string that parses
as an expression (a quoted annotation, an ``__all__`` entry).  Package
``__init__`` modules are skipped (their imports are the package's
re-exports), and so is a name another searched file reaches through the
module: imported from it, written as ``module.name``
(``batch.fingerprint``), or quoted in a file that quotes the module's
dotted path (a tracer target such as
``Target("repro.solver.interface", "to_dnf")``).

Usage::

    python scripts/check_unused.py   # exit 1 and list each unused name
"""

from __future__ import annotations

import ast
import collections
import glob
import os
import re
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Where definitions and imports are checked.
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


def _package_modules() -> list:
    return sorted(glob.glob(os.path.join(_ROOT, _PACKAGE, "**", "*.py"), recursive=True))


def _definitions(tree: ast.AST) -> list:
    """``(name, first line, last line)`` of each checked definition."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, _DEFINITIONS) or node.decorator_list:
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        found.append((node.name, node.lineno, node.end_lineno))
    return found


def find_unused_definitions(texts: dict, trees: dict) -> list:
    """One problem string per definition whose name is used nowhere else."""
    words = collections.Counter()
    for text in texts.values():
        words.update(_WORD_RE.findall(text))
    definitions = [
        (path, definition) for path in _package_modules() for definition in _definitions(trees[path])
    ]
    # Each other definition of the same name writes it once more.
    defined = collections.Counter(name for _path, (name, _first, _last) in definitions)
    problems = []
    for path, (name, first, last) in definitions:
        own_lines = "\n".join(texts[path].splitlines()[first - 1:last])
        own = sum(1 for word in _WORD_RE.findall(own_lines) if word == name)
        if words[name] - own - (defined[name] - 1) <= 0:
            problems.append(
                f"{os.path.relpath(path, _ROOT)}:{first}: {name!r} is defined but never used"
            )
    return problems


def _used_names(tree: ast.AST) -> set:
    """Names a module reads in code or in expression-shaped strings."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(parsed) if isinstance(sub, ast.Name))
    return names


def _dotted(path: str) -> str:
    """The module path of a file under ``src`` (``repro.solver.interface``)."""
    relative = os.path.relpath(path, os.path.join(_ROOT, "src"))
    dotted = os.path.splitext(relative)[0].replace(os.sep, ".")
    return dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted


def _from_imports(texts: dict) -> set:
    """``(module, name)`` for every ``from module import name`` searched."""
    found = set()
    for path, text in texts.items():
        if not path.endswith(".py"):
            continue
        package = _dotted(path).split(".")
        if os.path.basename(path) != "__init__.py":
            package = package[:-1]
        for node in ast.walk(ast.parse(text, filename=path)):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            found.update((module, alias.name) for alias in node.names)
    return found


def _reached_through(path: str, name: str, texts: dict, from_imports: set) -> bool:
    """Whether another searched file reaches ``name`` through this module."""
    dotted = _dotted(path)
    if (dotted, name) in from_imports:
        return True
    attribute = re.compile(rf"\b{re.escape(dotted.rsplit('.', 1)[-1])}\.{re.escape(name)}\b")
    module = re.compile(rf"[\"']{re.escape(dotted)}[\"']")
    quoted = re.compile(rf"[\"']{re.escape(name)}[\"'.]")
    for other, text in texts.items():
        if other == path:
            continue
        if attribute.search(text) or (module.search(text) and quoted.search(text)):
            return True
    return False


def find_unused_imports(texts: dict, trees: dict) -> list:
    """One problem string per imported name its module never uses."""
    from_imports = _from_imports(texts)
    problems = []
    for path in _package_modules():
        if os.path.basename(path) == "__init__.py":
            continue
        tree = trees[path]
        used = _used_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound in used or _reached_through(path, bound, texts, from_imports):
                    continue
                problems.append(
                    f"{os.path.relpath(path, _ROOT)}:{node.lineno}: "
                    f"{bound!r} is imported but never used"
                )
    return problems


def find_unused() -> list:
    """Problem strings for unused definitions, then unused imports."""
    texts = {}
    for path in _searched_files():
        with open(path, "r", encoding="utf-8") as handle:
            texts[path] = handle.read()
    trees = {path: ast.parse(texts[path], filename=path) for path in _package_modules()}
    return find_unused_definitions(texts, trees) + find_unused_imports(texts, trees)


def main() -> int:
    problems = find_unused()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} unused name(s) under {_PACKAGE}")
        return 1
    print(f"every definition and import under {_PACKAGE} is used")
    return 0


if __name__ == "__main__":
    sys.exit(main())
