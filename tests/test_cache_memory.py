"""The in-memory LRU tier fronting :class:`AnalysisCache`: bounds and
eviction order, ``memory_hits`` accounting, read-through-only population
(corrupt-on-disk stays a miss), ``get_bytes``, and picklability."""

import pickle

from repro.constinfer.cache import (
    DEFAULT_MEMORY_ENTRIES,
    AnalysisCache,
    CacheStats,
    _MemoryTier,
    _MISS,
)


def make_cache(tmp_path, **kwargs):
    return AnalysisCache(tmp_path / "cache", **kwargs)


def key_for(cache, text):
    return cache.key("test", source=text)


# -- the tier itself ------------------------------------------------------


def test_tier_bounds_and_lru_eviction():
    tier = _MemoryTier(maxsize=3)
    for i in range(3):
        tier.put("obj", f"k{i}", i)
    assert len(tier) == 3
    # Touch k0 so k1 becomes least-recently-used, then overflow.
    assert tier.get("obj", "k0") == 0
    tier.put("obj", "k3", 3)
    assert len(tier) == 3
    assert tier.get("obj", "k1") is _MISS
    assert tier.get("obj", "k0") == 0
    assert tier.get("obj", "k3") == 3


def test_tier_keys_are_per_accessor():
    tier = _MemoryTier(maxsize=4)
    tier.put("obj", "k", "decoded")
    tier.put("bytes", "k", b"raw")
    assert tier.get("obj", "k") == "decoded"
    assert tier.get("bytes", "k") == b"raw"


def test_tier_disabled_at_zero():
    tier = _MemoryTier(maxsize=0)
    tier.put("obj", "k", 1)
    assert len(tier) == 0
    assert tier.get("obj", "k") is _MISS


def test_tier_caches_none_values():
    tier = _MemoryTier(maxsize=2)
    tier.put("obj", "k", None)
    assert tier.get("obj", "k") is None  # a cached None is not a miss
    assert tier.get("obj", "other") is _MISS


# -- read-through behaviour on the cache handle ---------------------------


def test_second_get_is_a_memory_hit(tmp_path):
    cache = make_cache(tmp_path)
    key = key_for(cache, "src")
    cache.put(key, {"answer": 42})
    assert cache.get(key) == {"answer": 42}  # disk read populates the tier
    assert cache.stats.memory_hits == 0
    # Remove the on-disk entry: the tier alone must answer now.
    cache._path(key).unlink()
    assert cache.get(key) == {"answer": 42}
    assert cache.stats.memory_hits == 1
    assert cache.stats.hits == 2
    assert cache.stats.misses == 0


def test_put_does_not_populate_the_tier(tmp_path):
    """Writes are not read back through memory: a corrupt on-disk entry
    must stay a miss even right after the put that created it."""
    cache = make_cache(tmp_path)
    key = key_for(cache, "src")
    cache.put(key, [1, 2, 3])
    assert len(cache.memory) == 0
    cache._path(key).write_bytes(b"not a pickle")
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    assert cache.stats.memory_hits == 0


def test_get_bytes_memory_tier(tmp_path):
    cache = make_cache(tmp_path)
    key = key_for(cache, "src")
    cache.put_bytes(key, b"\x01\x02\x03")
    assert cache.get_bytes(key) == b"\x01\x02\x03"
    cache._path(key).unlink()
    assert cache.get_bytes(key) == b"\x01\x02\x03"
    assert cache.stats.memory_hits == 1


def test_obj_and_bytes_tiers_are_independent(tmp_path):
    cache = make_cache(tmp_path)
    key = key_for(cache, "src")
    cache.put(key, "value")
    assert cache.get(key) == "value"
    # get_bytes for the same key still reads disk the first time.
    blob = cache.get_bytes(key)
    assert blob is not None
    assert cache.stats.memory_hits == 0


def test_eviction_bound_respected_on_cache(tmp_path):
    cache = make_cache(tmp_path, memory_entries=2)
    keys = [key_for(cache, f"src{i}") for i in range(4)]
    for i, key in enumerate(keys):
        cache.put(key, i)
        cache.get(key)
    assert len(cache.memory) == 2


def test_memory_disabled_cache_still_works(tmp_path):
    cache = make_cache(tmp_path, memory_entries=0)
    key = key_for(cache, "src")
    cache.put(key, "v")
    assert cache.get(key) == "v"
    assert cache.get(key) == "v"
    assert cache.stats.memory_hits == 0
    assert cache.stats.hits == 2


def test_pickling_drops_tier_and_counters(tmp_path):
    cache = make_cache(tmp_path, memory_entries=7)
    key = key_for(cache, "src")
    cache.put(key, "v")
    cache.get(key)
    cache.get(key)
    assert cache.stats.memory_hits == 1
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.root == cache.root
    assert clone.memory.maxsize == 7  # bound survives; contents do not
    assert len(clone.memory) == 0
    assert clone.stats.hits == 0 and clone.stats.memory_hits == 0
    # The clone still reads the shared on-disk store.
    assert clone.get(key) == "v"


def test_default_memory_entries(tmp_path):
    assert make_cache(tmp_path).memory.maxsize == DEFAULT_MEMORY_ENTRIES


# -- stats plumbing -------------------------------------------------------


def test_stats_merge_and_summary_include_memory_hits():
    a = CacheStats(hits=2, misses=1, stores=1, memory_hits=1)
    b = CacheStats(hits=3, memory_hits=2)
    a.merge(b)
    assert a.memory_hits == 3
    assert "3 memory hit(s)" in a.summary()
