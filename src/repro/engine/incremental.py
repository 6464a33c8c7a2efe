"""Search-session verdict store: incremental re-verification across waves.

A deep exploration discharges near-identical candidates generation after
generation — a child program differs from its parent by one site edit, so
most of its proof obligations are byte-identical (same canonical
fingerprint) to obligations the search already settled.  The persistent
:class:`~repro.engine.cache.ObligationCache` answers *conclusive* verdicts
across processes, but it deliberately refuses ``UNKNOWN`` (a later run
with a bigger budget should retry).

:class:`VerdictStore` is the session-scoped layer above it: a plain
fingerprint → verdict memo that lives exactly as long as one search.
:meth:`~repro.engine.core.ObligationEngine.discharge_all` takes it as
``store``: right after fingerprinting each obligation (once) it asks the
store, before in-wave dedup and the cache, discharges only the delta
(obligations the session has never seen), and records the delta's
verdicts back.  Two deliberate semantic differences from the persistent
cache:

* **UNKNOWN verdicts replay.**  Within one wave the engine's in-wave dedup
  already answers duplicate obligations with the representative's verdict,
  whatever it is — including ``UNKNOWN``.  The store extends exactly that
  contract across waves, so a generational search settles every obligation
  the same way the old single-wave exhaustive gate did (byte-identical
  fingerprints and verdicts), just without re-paying the solver.
* **Session lifetime only.**  Nothing is persisted; a fresh search starts
  empty and the persistent cache still answers the first occurrence of
  each conclusive obligation.

The reuse counters (``reused`` / ``delta``) are the evidence the
incremental gate works: :meth:`stats` feeds the ``incremental`` section of
the ``repro explore --json`` envelope, and the engine mirrors them into
telemetry (``engine.incremental.reused`` / ``engine.incremental.delta``)
and its statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..hoare.obligations import ObligationResult
from ..solver.lia import Status


@dataclass(frozen=True)
class StoredVerdict:
    """One settled obligation verdict, keyed by canonical fingerprint."""

    status: Status
    model: Optional[Dict[object, int]]
    reason: str = ""


class VerdictStore:
    """Session-scoped fingerprint → verdict memo over one search.

    ``get`` counts a reuse on every hit; ``record`` counts a delta
    discharge on every store.  ``reused + delta`` therefore equals the
    total number of obligations the search pooled (duplicate occurrences
    within one wave each count once — they are distinct pooled
    obligations, even though the engine's in-wave dedup proves them once).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, StoredVerdict] = {}
        self.reused = 0
        self.delta = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is stored (a peek: counts nothing)."""
        return key in self._entries

    def get(self, key: str) -> Optional[StoredVerdict]:
        """The stored verdict for ``key`` (counted as a reuse), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self.reused += 1
        return entry

    def record(self, key: str, result: ObligationResult) -> None:
        """Store a freshly discharged verdict (counted as a delta)."""
        self.delta += 1
        self._entries[key] = StoredVerdict(
            status=result.status,
            model=(
                dict(result.counterexample)
                if result.counterexample is not None
                else None
            ),
            reason=result.reason,
        )

    @property
    def total(self) -> int:
        """Obligations seen by the store: reused + discharged as delta."""
        return self.reused + self.delta

    @property
    def reuse_rate(self) -> float:
        return self.reused / self.total if self.total else 0.0

    def stats(self) -> Dict[str, float]:
        """The ``incremental`` section of the explore report/envelope."""
        return {
            "reused": float(self.reused),
            "delta_obligations": float(self.delta),
            "total_obligations": float(self.total),
            "reuse_rate": self.reuse_rate,
            "store_entries": float(len(self._entries)),
        }
