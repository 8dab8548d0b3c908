"""The v2 binary cache encoding: cold runs store flat-array (QCE2)
entries, warm runs mmap them zero-copy and serve the recorded solution,
v1 pickle entries (lattices too wide for the flat core) load through
the pickle path, and corrupt binary entries of every flavour are
misses — never exceptions."""

import pickle
import struct

import pytest

import repro.constinfer.cache as cache_mod
from repro.constinfer.cache import (
    ENTRY_MAGIC,
    ENTRY_VERSION,
    _ENTRY_HEADER,
    AnalysisCache,
    CacheStats,
)


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


def constraint_entry(cache, mode="mono"):
    key = cache.key("constraints", source=SOURCE, lattice=None, mode=mode, options={})
    return cache._path(key)


def classifications(run):
    return sorted((p.function, p.where, run.classify(p).name) for p in run.positions)


def fingerprint(run):
    return sorted(
        (p.function, p.where, str(run.solution.least_of(p.var)))
        for p in run.positions
    )


class TestBinaryFormat:
    def test_cold_run_stores_qce2_entry(self, cache):
        cache.cached_run(SOURCE, "t.c", "mono")
        blob = constraint_entry(cache).read_bytes()
        magic, version, _, flat_len, meta_len = _ENTRY_HEADER.unpack_from(blob, 0)
        assert magic == ENTRY_MAGIC
        assert version == ENTRY_VERSION
        assert _ENTRY_HEADER.size + flat_len + meta_len == len(blob)

    def test_warm_run_is_a_binary_hit(self, cache):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        assert cache.stats.binary_hits == 0
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache
        assert cache.stats.binary_hits == 1
        assert classifications(warm) == classifications(cold)
        assert fingerprint(warm) == fingerprint(cold)
        assert warm.constraint_count == cold.constraint_count

    def test_warm_run_serves_stored_solution_without_resolving(self, cache, monkeypatch):
        """The recorded fixpoints are served directly; a warm start must
        not re-run the solver at all."""
        cold = cache.cached_run(SOURCE, "t.c", "mono")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm start re-solved the system")

        monkeypatch.setattr(cache_mod.flatcore.FlatSystem, "solve", explode)
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache
        assert fingerprint(warm) == fingerprint(cold)

    def test_poly_mode_also_binary(self, cache):
        cache.cached_run(SOURCE, "t.c", "poly")
        assert constraint_entry(cache, "poly").read_bytes()[:4] == ENTRY_MAGIC
        warm = cache.cached_run(SOURCE, "t.c", "poly")
        assert warm.timings and warm.timings.from_cache
        assert cache.stats.binary_hits == 1

    def test_stats_summary_reports_binary_hits(self, cache):
        cache.cached_run(SOURCE, "t.c", "mono")
        cache.cached_run(SOURCE, "t.c", "mono")
        assert "1 binary mmap hit(s)" in cache.stats.summary()

    def test_stats_merge_carries_binary_hits(self):
        a = CacheStats(hits=2, misses=1, stores=1, binary_hits=2)
        b = CacheStats(hits=1, binary_hits=1)
        a.merge(b)
        assert a.hits == 3
        assert a.binary_hits == 3


class TestPickleFallback:
    def test_v1_pickle_entry_still_loads(self, cache, monkeypatch):
        """v1 entries (a plain pickle of ``(constraints, positions)``)
        are re-solved and served."""
        monkeypatch.setattr(cache_mod, "_encode_entry", lambda *a: None)
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        assert constraint_entry(cache).read_bytes()[:4] != ENTRY_MAGIC
        monkeypatch.undo()

        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache
        assert cache.stats.binary_hits == 0  # served via the pickle path
        assert classifications(warm) == classifications(cold)
        assert fingerprint(warm) == fingerprint(cold)

    def test_mixed_stores_coexist(self, cache, monkeypatch):
        """A store holding v1 entries for some keys and v2 for others
        serves both, each through its own decoder."""
        monkeypatch.setattr(cache_mod, "_encode_entry", lambda *a: None)
        cache.cached_run(SOURCE, "t.c", "mono")
        monkeypatch.undo()
        cache.cached_run(SOURCE, "t.c", "poly")
        assert constraint_entry(cache, "mono").read_bytes()[:4] != ENTRY_MAGIC
        assert constraint_entry(cache, "poly").read_bytes()[:4] == ENTRY_MAGIC

        warm_mono = cache.cached_run(SOURCE, "t.c", "mono")
        warm_poly = cache.cached_run(SOURCE, "t.c", "poly")
        assert warm_mono.timings and warm_mono.timings.from_cache
        assert warm_poly.timings and warm_poly.timings.from_cache
        assert cache.stats.binary_hits == 1

    def test_oversized_lattice_falls_back_to_pickle(self, cache):
        """_encode_entry declines lattices whose masks exceed the flat
        core's 62-bit budget; cached_run then writes a v1 pickle, and the
        warm run re-solves it to the cold run's classifications."""
        from repro.qual.lattice import QualifierLattice, positive
        from repro.qual.qualifiers import CONST

        wide = QualifierLattice([CONST] + [positive(f"q{i}") for i in range(69)])
        cold = cache.cached_run(SOURCE, "t.c", "mono", lattice=wide)
        key = cache.key("constraints", source=SOURCE, lattice=wide, mode="mono")
        assert cache._path(key).read_bytes()[:4] != ENTRY_MAGIC

        warm = cache.cached_run(SOURCE, "t.c", "mono", lattice=wide)
        assert warm.timings and warm.timings.from_cache
        assert cache.stats.binary_hits == 0
        assert classifications(warm) == classifications(cold)
        assert fingerprint(warm) == fingerprint(cold)


class TestCorruptBinaryEntries:
    def warm_after(self, cache, mutate):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        path = constraint_entry(cache)
        mutate(path)
        before = cache.stats.misses
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert cache.stats.misses > before
        assert classifications(rerun) == classifications(cold)
        assert not (rerun.timings and rerun.timings.from_cache)
        # The recompute rewrote a healthy entry; the next run hits again.
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache

    def test_truncated_header_is_a_miss(self, cache):
        self.warm_after(cache, lambda p: p.write_bytes(p.read_bytes()[:10]))

    def test_truncated_flat_section_is_a_miss(self, cache):
        self.warm_after(
            cache, lambda p: p.write_bytes(p.read_bytes()[: _ENTRY_HEADER.size + 40])
        )

    def test_truncated_tail_pickle_is_a_miss(self, cache):
        self.warm_after(cache, lambda p: p.write_bytes(p.read_bytes()[:-5]))

    def test_magic_with_garbage_body_is_a_miss(self, cache):
        self.warm_after(
            cache, lambda p: p.write_bytes(ENTRY_MAGIC + b"\xff" * 64)
        )

    def test_unsupported_version_is_a_miss(self, cache):
        def bump_version(path):
            blob = bytearray(path.read_bytes())
            struct.pack_into("<H", blob, 4, 999)
            path.write_bytes(bytes(blob))

        self.warm_after(cache, bump_version)

    def test_section_lengths_overrunning_file_are_a_miss(self, cache):
        def inflate(path):
            blob = bytearray(path.read_bytes())
            struct.pack_into("<Q", blob, 8, 2**40)
            path.write_bytes(bytes(blob))

        self.warm_after(cache, inflate)

    def test_corrupt_position_rows_are_a_miss(self, cache):
        """A valid flat section with garbage position rows must not be
        half-served."""

        def garble_rows(path):
            blob = path.read_bytes()
            _, _, _, flat_len, _ = _ENTRY_HEADER.unpack_from(blob, 0)
            keep = _ENTRY_HEADER.size + flat_len
            rows = pickle.dumps("not a list of rows")
            header = _ENTRY_HEADER.pack(
                ENTRY_MAGIC, ENTRY_VERSION, 0, flat_len, len(rows)
            )
            path.write_bytes(header + blob[_ENTRY_HEADER.size : keep] + rows)

        self.warm_after(cache, garble_rows)

    def test_empty_file_is_a_miss(self, cache):
        self.warm_after(cache, lambda p: p.write_bytes(b""))


def reindexed_entry(run):
    """The QCE2 entry the way it used to be built, kept as the oracle:
    index the run's constraints again, register the positions, and solve
    the snapshot (``attach_solution``)."""
    from repro.qual.flatcore import FlatSystem
    from repro.qual.solver import IndexedSystem

    constraints = run.inference.constraints
    system = IndexedSystem(run.inference.lattice)
    system.add_many(constraints)
    for p in run.positions:
        system.add_var(p.var)
    flat = FlatSystem.from_indexed(system)
    flat.attach_solution()
    rows = [
        (p.function, p.where, p.depth, system._var_index[p.var], p.declared, p.line)
        for p in run.positions
    ]
    flat_blob = flat.to_bytes()
    meta_blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    header = _ENTRY_HEADER.pack(
        ENTRY_MAGIC, ENTRY_VERSION, 0, len(flat_blob), len(meta_blob)
    )
    return b"".join((header, flat_blob, meta_blob))


def _corpus_sources():
    from repro.benchsuite.suite import generate_source, scaling_spec
    from repro.testkit.cgen import generate_c_corpus

    # sweep-2 is past the flat core's fast-kernel threshold, so with
    # numpy installed it checks a solution the numpy kernel recorded.
    return [
        ("sweep-1", generate_source(scaling_spec(1))),
        ("sweep-2", generate_source(scaling_spec(2))),
        ("cgen-3", generate_c_corpus(3).concat_source()),
    ]


class TestEngineSystemEntry:
    """A cold run stores the engine's own solved system; the entry is
    byte-identical to one built by indexing and solving again."""

    @pytest.mark.parametrize("mode", ["mono", "poly", "polyrec"])
    @pytest.mark.parametrize(
        "name,source", _corpus_sources(), ids=["sweep-1", "sweep-2", "cgen-3"]
    )
    def test_entry_matches_reindexed_oracle(self, tmp_path, mode, name, source):
        cache = AnalysisCache(tmp_path)
        cold = cache.cached_run(source, name, mode)
        key = cache.key("constraints", source=source, mode=mode)
        assert cache._path(key).read_bytes() == reindexed_entry(cold)

    def test_cold_run_indexes_and_solves_once(self, tmp_path, monkeypatch):
        from repro.cfront.sema import Program
        from repro.constinfer.engine import run_poly
        from repro.qual.flatcore import FlatSystem
        from repro.qual.solver import IndexedSystem

        calls = []
        add_many = IndexedSystem.add_many
        monkeypatch.setattr(
            IndexedSystem,
            "add_many",
            lambda self, cs: calls.append("add_many") or add_many(self, cs),
        )
        monkeypatch.setattr(
            FlatSystem, "solve", lambda self: calls.append("flat-solve")
        )
        run_poly(Program.from_source(SOURCE, "t.c"))
        bare = list(calls)
        calls.clear()
        AnalysisCache(tmp_path).cached_run(SOURCE, "t.c", "poly")
        assert calls == bare
        assert "flat-solve" not in calls
