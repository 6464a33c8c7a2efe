"""The process-local evaluator switch for the bounded model search.

The bounded model search and model enumeration check candidate
assignments with one of two interchangeable evaluators:

``compiled``
    The closure compiler (:mod:`repro.logic.compile`) with unit-atom
    pruning and cheap-conjunct-first checking — the default.

``tree``
    The recursive tree walker (:func:`repro.logic.evaluate.evaluate`),
    checking one assignment at a time.  The slowest path, kept as the
    semantic reference: ``tests/test_solver_models.py`` compares the
    compiled closures against it.

The selection is per-process state; :func:`use_backend` switches it for
the duration of a ``with`` block.  It changes *how* assignments are
checked, not *what* the solver decides, under the divergence contract
documented in :mod:`repro.solver.models`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

#: Every evaluator the switch accepts.
BACKENDS = ("tree", "compiled")

_active: str = "compiled"


def active_backend() -> str:
    """The evaluator this process's model searches run on."""
    return _active


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Temporarily select an evaluator (tests); ``None`` is a no-op."""
    global _active
    if name is None:
        yield
        return
    if name not in BACKENDS:
        raise ValueError(f"unknown backend {name!r} (choose from {', '.join(BACKENDS)})")
    previous = _active
    _active = name
    try:
        yield
    finally:
        _active = previous
