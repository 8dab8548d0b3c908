"""The constraints cache entry: a cold run stores the run's answer (one
row per position with its least and greatest masks, the solve's
``SolverStats`` and the constraint count), a warm run rebuilds the
positions and a plain ``Solution`` from it without indexing or solving,
every lattice width uses the same entry, and corrupt or wrong-shape
entries of every flavour are misses — never exceptions."""

import pickle
import struct

import pytest

import repro.qual.flatcore as flatcore
from repro.constinfer.cache import AnalysisCache, CacheStats
from repro.qual.solver import IndexedSystem, Solution


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


def constraint_entry(cache, mode="mono", lattice=None):
    key = cache.key("constraints", source=SOURCE, lattice=lattice, mode=mode, options={})
    return cache._path(key)


def classifications(run):
    return sorted((p.function, p.where, run.classify(p).name) for p in run.positions)


def answer(run):
    """Everything a Table 2 row reads from a run, in position order."""
    solution = run.solution
    return (
        [
            (
                p.function,
                p.where,
                p.depth,
                p.declared,
                p.line,
                p.var.name,
                p.var.uid,
                solution.classify(p.var, "const").name,
                solution.least_of(p.var).mask,
                solution.greatest_of(p.var).mask,
            )
            for p in run.positions
        ],
        solution.stats,
        run.constraint_count,
    )


class TestBinaryFormat:
    """The entry on disk and the counters that report it."""

    def test_warm_run_serves_stored_solution_without_resolving(self, cache, monkeypatch):
        """The stored masks are served directly; a warm start must not
        index or solve anything."""
        cold = cache.cached_run(SOURCE, "t.c", "mono")

        def explode(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("warm start re-solved the system")

        monkeypatch.setattr(IndexedSystem, "add_many", explode)
        monkeypatch.setattr(IndexedSystem, "solve", explode)
        warm = cache.cached_run(SOURCE, "t.c", "mono")
        assert warm.timings and warm.timings.from_cache
        assert type(warm.solution) is Solution
        assert answer(warm) == answer(cold)

    def test_stats_summary_reports_counters(self, cache):
        cache.cached_run(SOURCE, "t.c", "mono")
        cache.cached_run(SOURCE, "t.c", "mono")
        assert cache.stats.summary() == (
            "1 hit(s), 1 miss(es), 1 store(s), 0 memory hit(s)"
        )

    def test_stats_merge_carries_counters(self):
        a = CacheStats(hits=2, misses=1, stores=1, memory_hits=1)
        a.merge(CacheStats(hits=1, misses=2, stores=3, memory_hits=4))
        assert (a.hits, a.misses, a.stores, a.memory_hits) == (3, 3, 4, 5)


def _sweep_sources():
    from repro.benchsuite.suite import generate_source, scaling_spec

    # sweep-2 is past the flat core's fast-kernel threshold, so with
    # numpy installed the stored masks come from the numpy kernel.
    return [
        ("sweep-1", generate_source(scaling_spec(1))),
        ("sweep-2", generate_source(scaling_spec(2))),
    ]


class TestResultEntry:
    @pytest.mark.parametrize("mode", ["mono", "poly", "polyrec"])
    @pytest.mark.parametrize("name,source", _sweep_sources(), ids=["sweep-1", "sweep-2"])
    def test_cold_and_warm_identical(self, tmp_path, mode, name, source):
        """Classifications, masks, ``SolverStats`` and the constraint
        count of a warm run equal the cold run's."""
        cache = AnalysisCache(tmp_path)
        cold = cache.cached_run(source, name, mode)
        warm = cache.cached_run(source, name, mode)
        assert not cold.timings.from_cache
        assert warm.timings.from_cache and warm.inference is None
        assert warm.solution.stats is not None
        assert answer(warm) == answer(cold)
        assert classifications(warm) == classifications(cold)

    def test_wide_lattice_uses_the_same_entry(self, cache):
        """A 70-qualifier lattice is too wide for the numpy kernel's
        int64 arrays; its masks are plain ints, so cached_run stores and
        serves it through the one entry format, end to end."""
        from repro.qual.lattice import QualifierLattice, positive
        from repro.qual.qualifiers import CONST

        wide = QualifierLattice([CONST] + [positive(f"q{i}") for i in range(69)])
        assert not flatcore.fits_flat(wide)
        cold = cache.cached_run(SOURCE, "t.c", "mono", lattice=wide)
        rows, stats, count = pickle.loads(
            constraint_entry(cache, lattice=wide).read_bytes()
        )
        assert len(rows) == len(cold.positions)
        assert stats == cold.solution.stats and count == cold.constraint_count
        assert max(row[-1] for row in rows).bit_length() > 62

        warm = cache.cached_run(SOURCE, "t.c", "mono", lattice=wide)
        assert warm.timings and warm.timings.from_cache
        assert warm.solution.lattice == wide
        assert answer(warm) == answer(cold)

    @pytest.mark.parametrize(
        "make_entry",
        [
            lambda cold: "wrong shape",
            lambda cold: ([], []),  # as an old (constraints, positions) entry
            lambda cold: ([], {"not": "stats"}, 0),
            lambda cold: ([("f", "return", 1)], cold.solution.stats, 0),  # short row
            lambda cold: None,
        ],
        ids=["str", "pair", "bad-stats", "short-row", "none"],
    )
    def test_wrong_shape_pickle_is_a_miss(self, cache, make_entry):
        cold = cache.cached_run(SOURCE, "t.c", "mono")
        constraint_entry(cache).write_bytes(pickle.dumps(make_entry(cold)))
        rerun = cache.cached_run(SOURCE, "t.c", "mono")
        assert (cache.stats.hits, cache.stats.misses) == (0, 2)
        assert not rerun.timings.from_cache
        assert classifications(rerun) == classifications(cold)


class TestEngineSystemEntry:
    """A cold run stores the answer of the engine's own solve; the entry
    equals one built by indexing the constraints again and solving."""

    @staticmethod
    def reindexed_entry(run):
        system = IndexedSystem(run.inference.lattice)
        solution = system.solve([p.var for p in run.positions], run.inference.constraints)
        rows = [
            (
                p.function,
                p.where,
                p.depth,
                p.declared,
                p.line,
                p.var.name,
                p.var.uid,
                solution.least_of(p.var).mask,
                solution.greatest_of(p.var).mask,
            )
            for p in run.positions
        ]
        return (rows, solution.stats, len(run.inference.constraints))

    @pytest.mark.parametrize("mode", ["mono", "poly", "polyrec"])
    @pytest.mark.parametrize(
        "name,source",
        _sweep_sources() + [("cgen-3", None)],
        ids=["sweep-1", "sweep-2", "cgen-3"],
    )
    def test_entry_matches_reindexed_oracle(self, tmp_path, mode, name, source):
        if source is None:
            from repro.testkit.cgen import generate_c_corpus

            source = generate_c_corpus(3).concat_source()
        cache = AnalysisCache(tmp_path)
        cold = cache.cached_run(source, name, mode)
        key = cache.key("constraints", source=source, mode=mode)
        stored = pickle.loads(cache._path(key).read_bytes())
        assert stored == self.reindexed_entry(cold)

    def test_cold_run_indexes_and_solves_once(self, tmp_path, monkeypatch):
        from repro.cfront.sema import Program
        from repro.constinfer.engine import run_poly

        calls = []
        add_many = IndexedSystem.add_many
        solve = IndexedSystem.solve
        monkeypatch.setattr(
            IndexedSystem,
            "add_many",
            lambda self, cs: calls.append("add_many") or add_many(self, cs),
        )
        monkeypatch.setattr(
            IndexedSystem,
            "solve",
            lambda *a, **k: calls.append("solve") or solve(*a, **k),
        )
        run_poly(Program.from_source(SOURCE, "t.c"))
        bare = list(calls)
        calls.clear()
        AnalysisCache(tmp_path).cached_run(SOURCE, "t.c", "poly")
        assert calls == bare
        assert calls.count("solve") == 1


class TestCorruptBinaryEntries:
    """Every way the pickled entry can be malformed — cut inside the
    pickle's protocol/frame header, an unknown protocol, a frame length
    overrunning the file, a truncated body, rows of the wrong shape — is
    a miss, and the recompute rewrites a healthy entry."""

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

    def test_truncated_tail_pickle_is_a_miss(self, cache):
        self.warm_after(cache, lambda p: p.write_bytes(p.read_bytes()[:-5]))

    def test_magic_with_garbage_body_is_a_miss(self, cache):
        """The protocol opcode survives; everything after it is garbage."""
        self.warm_after(cache, lambda p: p.write_bytes(p.read_bytes()[:2] + b"\xff" * 64))

    def test_unsupported_version_is_a_miss(self, cache):
        def bump_protocol(path):
            blob = bytearray(path.read_bytes())
            assert blob[0] == 0x80  # PROTO opcode
            blob[1] = 99
            path.write_bytes(bytes(blob))

        self.warm_after(cache, bump_protocol)

    def test_section_lengths_overrunning_file_are_a_miss(self, cache):
        def inflate_frame(path):
            blob = bytearray(path.read_bytes())
            assert blob[2] == 0x95  # FRAME opcode, then an 8-byte length
            struct.pack_into("<Q", blob, 3, 2**40)
            path.write_bytes(bytes(blob))

        self.warm_after(cache, inflate_frame)

    def test_corrupt_position_rows_are_a_miss(self, cache):
        """Valid stats and count with garbage position rows must not be
        half-served."""

        def garble_rows(path):
            _rows, stats, count = pickle.loads(path.read_bytes())
            path.write_bytes(pickle.dumps(("not a list of rows", stats, count)))

        self.warm_after(cache, garble_rows)

    def test_mask_outside_the_lattice_is_a_miss(self, cache):
        def widen_mask(path):
            rows, stats, count = pickle.loads(path.read_bytes())
            rows[0] = rows[0][:-1] + (1 << 40,)
            path.write_bytes(pickle.dumps((rows, stats, count)))

        self.warm_after(cache, widen_mask)

    def test_empty_file_is_a_miss(self, cache):
        self.warm_after(cache, lambda p: p.write_bytes(b""))

