"""Tests for the obligation result cache (LRU + persistent JSON store)."""

import json
import os

import pytest

from repro.engine.cache import ObligationCache, _symbol_from_str, _symbol_to_str
from repro.logic.formula import Symbol, Tag
from repro.solver.lia import Status


class TestLRU:
    def test_put_get_roundtrip(self):
        cache = ObligationCache(capacity=4)
        assert cache.put("k1", Status.VALID, reason="proved")
        entry = cache.get("k1")
        assert entry is not None
        assert entry.status is Status.VALID
        assert entry.reason == "proved"

    def test_stores_are_counted(self):
        cache = ObligationCache(capacity=4)
        assert cache.get("absent") is None
        cache.put("k", Status.SAT)
        assert cache.get("k") is not None
        assert cache.stores == 1

    def test_unknown_is_never_cached(self):
        cache = ObligationCache(capacity=4)
        assert not cache.put("k", Status.UNKNOWN, reason="budget exhausted")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = ObligationCache(capacity=2)
        cache.put("a", Status.VALID)
        cache.put("b", Status.VALID)
        cache.get("a")  # refresh a; b is now least recently used
        cache.put("c", Status.VALID)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_model_is_copied(self):
        cache = ObligationCache(capacity=4)
        model = {Symbol("x"): 3}
        cache.put("k", Status.INVALID, model=model)
        model[Symbol("x")] = 99
        assert cache.get("k").model[Symbol("x")] == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ObligationCache(capacity=0)


class TestPersistence:
    def test_disk_roundtrip(self, tmp_path):
        cache = ObligationCache(capacity=8, cache_dir=str(tmp_path))
        cache.put(
            "k1",
            Status.INVALID,
            model={Symbol("x"): -2, Symbol("y", Tag.ORIGINAL): 7},
            reason="counterexample found",
        )
        cache.put("k2", Status.VALID)
        path = cache.save()
        assert path is not None and os.path.exists(path)

        reloaded = ObligationCache(capacity=8, cache_dir=str(tmp_path))
        entry = reloaded.get("k1")
        assert entry.status is Status.INVALID
        assert entry.model == {Symbol("x"): -2, Symbol("y", Tag.ORIGINAL): 7}
        assert entry.reason == "counterexample found"
        assert reloaded.get("k2").status is Status.VALID

    def test_corrupt_store_is_discarded(self, tmp_path):
        store = tmp_path / "obligation_cache.json"
        store.write_text("{not json")
        cache = ObligationCache(cache_dir=str(tmp_path))
        assert len(cache) == 0

    def test_version_mismatch_is_discarded(self, tmp_path):
        store = tmp_path / "obligation_cache.json"
        store.write_text(json.dumps({"version": 999, "entries": {"k": {"status": "valid"}}}))
        cache = ObligationCache(cache_dir=str(tmp_path))
        assert len(cache) == 0

    def test_save_without_dir_is_noop(self):
        cache = ObligationCache()
        cache.put("k", Status.VALID)
        assert cache.save() is None


class TestSymbolSerialisation:
    @pytest.mark.parametrize(
        "symbol",
        [Symbol("x"), Symbol("x", Tag.ORIGINAL), Symbol("idx_f3", Tag.RELAXED)],
    )
    def test_roundtrip(self, symbol):
        assert _symbol_from_str(_symbol_to_str(symbol)) == symbol
