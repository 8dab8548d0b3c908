"""Negative paths for the analysis cache: corrupt, truncated, stale, or
concurrently-written entries must behave as misses — recompute and
rewrite — and must never raise out of the cache layer."""

import pickle

import pytest

import repro.constinfer.cache as cache_mod
from repro.constinfer.cache import AnalysisCache, code_fingerprint


SOURCE = """
int reader(const int *p) { return p[0]; }
void writer(int *q) { q[0] = 1; }
int use(void) {
    int buf[1];
    writer(buf);
    return reader(buf);
}
"""


@pytest.fixture
def cache(tmp_path):
    return AnalysisCache(tmp_path / "cache")


def entry_paths(cache):
    return sorted(cache.root.rglob("*.pkl"))


def classifications(run):
    return sorted(
        (p.function, p.where, run.classify(p).name) for p in run.positions
    )


class TestCorruptEntries:
    def test_truncated_entry_is_a_miss(self, cache):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        [constraint_entry] = entry_paths(cache)
        blob = constraint_entry.read_bytes()
        constraint_entry.write_bytes(blob[: len(blob) // 2])
        before = cache.stats.misses
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert classifications(rerun) == classifications(cold)
        assert cache.stats.misses > before
        assert not (rerun.timings and rerun.timings.from_cache)

    def test_garbage_bytes_are_a_miss(self, cache):
        cache.cached_run(SOURCE, "t.c", "mono")
        [constraint_entry] = entry_paths(cache)
        constraint_entry.write_bytes(b"\x80\x05not a pickle at all")
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert rerun.positions  # recomputed, not raised

    def test_empty_entry_is_a_miss(self, cache):
        key = cache.key("constraints", source=SOURCE)
        path = cache._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_wrong_type_entry_is_recomputed(self, cache):
        """An entry that unpickles to the wrong type (e.g. written by a
        different tool against the same key) must not be served."""
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        for path in entry_paths(cache):
            path.write_bytes(pickle.dumps({"not": "a program"}))
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert classifications(rerun) == classifications(cold)
        assert not (rerun.timings and rerun.timings.from_cache)

    def test_directory_in_entry_place_is_a_miss(self, cache):
        key = cache.key("constraints", source=SOURCE)
        cache._path(key).mkdir(parents=True)
        assert cache.get(key) is None


class TestCorruptBinaryEntries:
    """The v2 binary (QCE2) encoding has more ways to be malformed than
    a pickle — short headers, lying section lengths — and every one of
    them must be a miss.  ``tests/test_cache_binary.py`` covers the
    format exhaustively; these are the negative paths."""

    def constraint_entry(self, cache):
        key = cache.key(
            "constraints", source=SOURCE, lattice=None, mode="mono", options={}
        )
        return cache._path(key)

    def test_truncated_binary_header_is_a_miss(self, cache):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        path = self.constraint_entry(cache)
        assert path.read_bytes()[:4] == cache_mod.ENTRY_MAGIC
        path.write_bytes(path.read_bytes()[:12])  # magic survives, header doesn't
        before = cache.stats.misses
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert cache.stats.misses > before
        assert classifications(rerun) == classifications(cold)
        assert not (rerun.timings and rerun.timings.from_cache)

    def test_binary_header_on_pickle_body_is_a_miss(self, cache):
        """Magic bytes grafted onto a pickle body dispatch to the binary
        decoder, which must reject them rather than raise."""
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        path = self.constraint_entry(cache)
        path.write_bytes(cache_mod.ENTRY_MAGIC + pickle.dumps(([], [])))
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert classifications(rerun) == classifications(cold)

    def test_mixed_v1_and_v2_stores(self, cache, monkeypatch):
        """A store carrying v1 pickle entries (the wide-lattice writer)
        next to v2 binary ones serves both encodings from one keyspace."""
        monkeypatch.setattr(cache_mod, "_encode_entry", lambda *a: None)
        v1_cold = cache.cached_run(SOURCE, "t.c", "mono")
        monkeypatch.undo()
        v2_cold = cache.cached_run(SOURCE, "t.c", "poly")

        v1_warm = cache.cached_run(SOURCE, "t.c", "mono")
        v2_warm = cache.cached_run(SOURCE, "t.c", "poly")
        assert v1_warm.timings and v1_warm.timings.from_cache
        assert v2_warm.timings and v2_warm.timings.from_cache
        assert classifications(v1_warm) == classifications(v1_cold)
        assert classifications(v2_warm) == classifications(v2_cold)
        # Only the poly entry was binary; the mono one took the pickle path.
        assert cache.stats.binary_hits == 1


class TestStaleEntries:
    def test_format_version_bump_invalidates(self, cache, monkeypatch):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache

        monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 999_999)
        monkeypatch.setattr(cache_mod, "_code_fingerprint_memo", None)
        try:
            bumped = cache.cached_run(SOURCE, "t.c", "mono")
            # New format version -> new keys -> the old entries are never
            # served, the run is recomputed from scratch.
            assert not (bumped.timings and bumped.timings.from_cache)
            assert classifications(bumped) == classifications(cold)
        finally:
            # monkeypatch restores the module globals; the memo must not
            # leak the bumped fingerprint into later tests.
            cache_mod._code_fingerprint_memo = None

    def test_fingerprint_memo_is_version_sensitive(self, monkeypatch):
        baseline = code_fingerprint()
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 999_999)
        monkeypatch.setattr(cache_mod, "_code_fingerprint_memo", None)
        try:
            assert code_fingerprint() != baseline
        finally:
            cache_mod._code_fingerprint_memo = None


class TestConcurrentWriters:
    def test_leftover_tmp_files_are_harmless(self, cache):
        """A writer that died mid-``put`` leaves a ``*.tmp`` beside the
        entries; readers and later writers must not trip over it."""
        cache.cached_run(SOURCE, "t.c", "mono")
        [entry, *_] = entry_paths(cache)
        (entry.parent / "deadbeef.tmp").write_bytes(b"partial write")
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache

    def test_two_handles_share_entries(self, cache, tmp_path):
        first = AnalysisCache(cache.root)
        second = AnalysisCache(cache.root)
        cold = first.cached_run(SOURCE, "t.c", "poly")
        warm = second.cached_run(SOURCE, "t.c", "poly")
        assert warm.timings and warm.timings.from_cache
        assert classifications(warm) == classifications(cold)

    def test_racing_put_last_writer_wins(self, cache):
        key = cache.key("constraints", source="x")
        cache.put(key, {"writer": 1})
        cache.put(key, {"writer": 2})
        assert cache.get(key) == {"writer": 2}
        assert cache.stats.stores == 2
