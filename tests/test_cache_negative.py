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


#: Small pickles with one to four bytes corrupted.  Unpickling them
#: raises ``OverflowError``, ``TypeError`` and ``IndexError``, not
#: ``UnpicklingError``.
CORRUPT_BLOBS = [
    "80059516000000000000c95d94284b014b028c167894658c026f6b944b030fbd2e",
    "80059516000000000000005d94284b014b028c017894658c026f6b94520387942e",
    "80059516000000000000005d94284b014b0275017894658c026f6bd44b038794c8",
]


@pytest.mark.parametrize(
    "blob", CORRUPT_BLOBS, ids=["overflow", "type-error", "index-error"]
)
class TestCorruptPickles:
    def test_get_counts_a_miss(self, cache, blob):
        key = cache.key("qlint-diagnostics", source=SOURCE)
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(bytes.fromhex(blob))
        assert cache.get(key) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    @pytest.mark.parametrize("whole", [False, True], ids=["per-file", "whole"])
    def test_checker_recomputes_and_rewrites(self, cache, tmp_path, blob, whole):
        from repro.checker.runner import check_paths, check_whole_program

        check = check_whole_program if whole else check_paths
        unit = tmp_path / "t.c"
        unit.write_text(SOURCE)
        cold = check([unit], cache=AnalysisCache(cache.root))
        [entry] = entry_paths(cache)
        entry.write_bytes(bytes.fromhex(blob))

        rerun = check([unit], cache=cache)
        assert cache.stats.misses == 1
        assert rerun.diagnostics == cold.diagnostics
        assert pickle.loads(entry.read_bytes())  # rewritten, readable again
        warm = check([unit], cache=AnalysisCache(cache.root))
        assert warm.cache_hits == 1 and warm.diagnostics == cold.diagnostics


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
