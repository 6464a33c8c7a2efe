"""The persistent obligation result cache.

Verdicts are keyed by the canonical fingerprint of the obligation (see
:mod:`repro.engine.fingerprint`).  The cache is an in-memory LRU with an
optional on-disk JSON store: re-verifying an edited program only re-solves
the obligations whose formulas actually changed; everything else is answered
from the cache without a single solver call.

Caching policy
--------------

* only **conclusive** verdicts are stored — ``UNKNOWN`` is *never* cached,
  so a budget exhaustion today cannot masquerade as a proof (or a refuted
  proof) tomorrow;
* counterexample models are stored alongside ``INVALID`` / ``SAT`` verdicts
  (fingerprinting preserves free-symbol names, so cached models remain
  meaningful for every formula mapping to the same key);
* the on-disk store is written atomically (temp file + rename) and a
  corrupt store, or one written under another store version or another
  :data:`~repro.solver.interface.SOLVER_SEMANTICS`, is discarded rather
  than trusted.

The cache counts only the verdicts it stored (``stores``).  The hits and
misses of obligation lookups are counted once, in the engine's
:class:`~repro.engine.core.EngineStatistics`, and
:meth:`~repro.engine.core.ObligationEngine.cache_stats` builds a report's
``cache`` section from both.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional

from ..logic.formula import Symbol, Tag
from ..solver import interface as solver_interface
from ..solver.lia import Status

_STORE_VERSION = 1
_STORE_FILENAME = "obligation_cache.json"
_TAGGED_NAME = re.compile(r"^(?P<name>.*)<(?P<tag>[or])>$")


def _symbol_to_str(symbol: Symbol) -> str:
    return str(symbol)


def _symbol_from_str(text: str) -> Symbol:
    match = _TAGGED_NAME.match(text)
    if match:
        return Symbol(match.group("name"), Tag(match.group("tag")))
    return Symbol(text, None)


@dataclass
class CachedVerdict:
    """A conclusive solver verdict replayed from the cache."""

    status: Status
    model: Optional[Dict[Symbol, int]] = None
    reason: str = ""
    #: Which tier produced the entry: ``"memory"`` for verdicts stored by
    #: this process, ``"disk"`` for entries replayed from the persistent
    #: store — telemetry reports cache hits per tier.
    origin: str = "memory"


class ObligationCache:
    """In-memory LRU of obligation verdicts with an optional JSON store."""

    def __init__(
        self,
        capacity: int = 8192,
        cache_dir: Optional[str] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.cache_dir = cache_dir
        #: Verdicts stored by :meth:`put`; the engine's statistics count
        #: the hits and misses of its lookups.
        self.stores = 0
        self._entries: "OrderedDict[str, CachedVerdict]" = OrderedDict()
        self._dirty = False
        if cache_dir is not None:
            self.load()

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup / insert ---------------------------------------------------------

    def get(self, key: str) -> Optional[CachedVerdict]:
        """The cached verdict for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(
        self,
        key: str,
        status: Status,
        model: Optional[Dict[Symbol, int]] = None,
        reason: str = "",
    ) -> bool:
        """Store a verdict; returns False (and stores nothing) for UNKNOWN."""
        if status is Status.UNKNOWN:
            return False
        self._entries[key] = CachedVerdict(
            status=status,
            model=dict(model) if model is not None else None,
            reason=reason,
        )
        self._entries.move_to_end(key)
        self.stores += 1
        self._dirty = True
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return True

    def clear(self) -> None:
        if self._entries:
            self._dirty = True
        self._entries.clear()

    # -- persistence -------------------------------------------------------------

    def _store_path(self) -> Optional[str]:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, _STORE_FILENAME)

    def load(self) -> int:
        """Load entries from the on-disk store; returns how many were loaded."""
        path = self._store_path()
        if path is None or not os.path.exists(path):
            return 0
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if (
                payload.get("version") != _STORE_VERSION
                or payload.get("solver_semantics") != solver_interface.SOLVER_SEMANTICS
            ):
                return 0
            loaded = 0
            for key, entry in payload.get("entries", {}).items():
                status = Status(entry["status"])
                if status is Status.UNKNOWN:
                    continue
                model = entry.get("model")
                self._entries[key] = CachedVerdict(
                    status=status,
                    model=(
                        {_symbol_from_str(name): int(value) for name, value in model.items()}
                        if model is not None
                        else None
                    ),
                    reason=entry.get("reason", ""),
                    origin="disk",
                )
                loaded += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return loaded
        except (OSError, ValueError, KeyError, TypeError):
            # A corrupt store is treated as empty, never trusted.
            self._entries.clear()
            return 0

    def save(self) -> Optional[str]:
        """Atomically write the store to ``cache_dir``.

        A no-op when no directory is configured or nothing changed since the
        last save — callers (the engine flushes after every discharge wave)
        need not track dirtiness themselves.
        """
        path = self._store_path()
        if path is None or not self._dirty:
            return None
        os.makedirs(self.cache_dir, exist_ok=True)
        payload = {
            "version": _STORE_VERSION,
            "solver_semantics": solver_interface.SOLVER_SEMANTICS,
            "entries": {
                key: {
                    "status": entry.status.value,
                    "model": (
                        {_symbol_to_str(symbol): value for symbol, value in entry.model.items()}
                        if entry.model is not None
                        else None
                    ),
                    "reason": entry.reason,
                }
                for key, entry in self._entries.items()
            },
        }
        fd, temp_path = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(temp_path, path)
        except OSError:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        self._dirty = False
        return path
