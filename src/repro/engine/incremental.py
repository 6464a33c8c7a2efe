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

The store counts nothing.  The engine counts each pooled obligation
once, as reused or as delta, in its statistics
(``incremental_reused`` / ``delta_obligations``) and in telemetry
(``engine.incremental.reused`` / ``engine.incremental.delta``).  An
obligation that cannot be fingerprinted never reaches the store, and
still counts as delta.  The explorer builds the ``incremental`` section
of the ``repro explore --json`` envelope from those statistics and the
store's size.
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
    """Session-scoped fingerprint → verdict memo over one search."""

    def __init__(self) -> None:
        self._entries: Dict[str, StoredVerdict] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[StoredVerdict]:
        """The stored verdict for ``key``, or None."""
        return self._entries.get(key)

    def record(self, key: str, result: ObligationResult) -> None:
        """Store a freshly discharged verdict."""
        self._entries[key] = StoredVerdict(
            status=result.status,
            model=(
                dict(result.counterexample)
                if result.counterexample is not None
                else None
            ),
            reason=result.reason,
        )
