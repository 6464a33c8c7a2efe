"""The obligation engine: cached, parallel discharge, one solver query per obligation.

This subsystem sits between the Hoare layer (which generates proof
obligations) and the solver stack (which decides individual queries):

* :mod:`~repro.engine.fingerprint` — canonical obligation fingerprinting
  (alpha-renaming to de Bruijn indices, conjunct sorting, symmetric-atom
  orientation) hashed into stable cache keys;
* :mod:`~repro.engine.cache` — an in-memory LRU of conclusive verdicts with
  an optional persistent JSON store (``UNKNOWN`` is never cached);
* :mod:`~repro.engine.scheduler` — parallel discharge over one
  ``ProcessPoolExecutor`` per engine, opened on the first parallel
  submission and shut down by ``ObligationEngine.close()``, one budgeted
  solver query per obligation; ``submit`` returns a join handle, so the
  parent keeps working while the workers run (the explorer scores its
  survivors on the same pool);
* :mod:`~repro.engine.core` — :class:`ObligationEngine`, the facade tying
  the pieces together behind ``prefetch`` / ``discharge_all`` (a
  collector's ``report`` turns a wave's results into a report);
* :mod:`~repro.engine.batch` — multi-program batch verification
  (``repro verify-batch``) pooling every program's obligations into one
  discharge wave and emitting a structured report, as a collect phase
  that prefetches each program's obligations and a finish phase that
  books them;
* :mod:`~repro.engine.incremental` — the search-session verdict store
  behind incremental re-verification: generational searches answer
  already-settled obligations (by canonical fingerprint) from the session
  and discharge only the delta.
"""

from .cache import CachedVerdict, ObligationCache
from .core import EngineStatistics, ObligationEngine
from .fingerprint import canonical_form, fingerprint
from .incremental import StoredVerdict, VerdictStore
from .scheduler import DischargeOutcome, DischargeScheduler, DischargeTask, JoinHandle
from .batch import (
    BatchItem,
    BatchProgramResult,
    BatchReport,
    CollectedBatch,
    case_study_items,
    collect_batch,
    directory_items,
    finish_batch,
    program_items,
    verify_batch,
)

__all__ = [
    "BatchItem",
    "BatchProgramResult",
    "BatchReport",
    "CachedVerdict",
    "CollectedBatch",
    "DischargeOutcome",
    "DischargeScheduler",
    "DischargeTask",
    "EngineStatistics",
    "JoinHandle",
    "ObligationCache",
    "ObligationEngine",
    "StoredVerdict",
    "VerdictStore",
    "canonical_form",
    "case_study_items",
    "collect_batch",
    "directory_items",
    "finish_batch",
    "fingerprint",
    "program_items",
    "verify_batch",
]
