"""Pytest root configuration.

Adds ``src/`` to ``sys.path`` so the test suite runs directly from a source
checkout even when the package has not been installed (an environment
without network access may be unable to bootstrap ``pip install -e .``'s
build dependencies; see README).  The benchmark, ``python3
perfbench/run.py``, sets up its own path (see perfbench/README.md).
"""

import os
import sys

_SRC = os.path.join(os.path.dirname(__file__), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
