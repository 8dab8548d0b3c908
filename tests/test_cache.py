"""The content-addressed analysis cache: warm runs reproduce cold
classifications exactly, keys separate every input that matters, and
corrupt entries degrade to misses."""

import pickle

import pytest

from repro.benchsuite.suite import benchmark_rows, generate_source, scaling_spec, scaling_specs
from repro.cfront.sema import Program
from repro.constinfer.cache import AnalysisCache, CacheStats, code_fingerprint, lattice_key
from repro.qual.qualifiers import const_lattice

SOURCE = """
int *shared;
int deref(int *p) { return *p; }
const char *greet(const char *name) { return name; }
int use(int *q) { shared = q; return deref(q); }
"""


@pytest.fixture
def cache(tmp_path):
    return AnalysisCache(tmp_path / "cache")


def classifications(run):
    return sorted(
        (p.function, p.where, p.depth, c.name) for p, c in run.classified_positions()
    )


class TestRawStore:
    def test_get_miss_then_put_then_hit(self, cache):
        key = cache.key("constraints", source="x")
        assert cache.get(key) is None
        cache.put(key, {"v": 1})
        assert cache.get(key) == {"v": 1}
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (1, 1, 1)

    def test_corrupt_entry_is_a_miss(self, cache):
        key = cache.key("constraints", source="y")
        cache.put(key, [1, 2, 3])
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_truncated_entry_is_a_miss(self, cache):
        key = cache.key("constraints", source="z")
        cache.put(key, list(range(100)))
        blob = cache._path(key).read_bytes()
        cache._path(key).write_bytes(blob[: len(blob) // 2])
        assert cache.get(key) is None


class TestKeys:
    def test_same_inputs_same_key(self, cache):
        a = cache.key("constraints", source=SOURCE, mode="mono")
        b = cache.key("constraints", source=SOURCE, mode="mono")
        assert a == b

    def test_key_separates_source(self, cache):
        assert cache.key("constraints", source="a") != cache.key(
            "constraints", source="b"
        )

    def test_key_separates_mode(self, cache):
        mono = cache.key("constraints", source=SOURCE, mode="mono")
        poly = cache.key("constraints", source=SOURCE, mode="poly")
        assert mono != poly

    def test_key_separates_kind(self, cache):
        assert cache.key("qlint-diagnostics", source=SOURCE) != cache.key(
            "constraints", source=SOURCE
        )

    def test_key_separates_options(self, cache):
        plain = cache.key("constraints", source=SOURCE, mode="mono")
        ablated = cache.key(
            "constraints", source=SOURCE, mode="mono",
            options={"share_struct_fields": False},
        )
        assert plain != ablated

    def test_key_separates_lattice(self, cache):
        default = cache.key("constraints", source=SOURCE, mode="mono")
        explicit = cache.key(
            "constraints", source=SOURCE, mode="mono", lattice=const_lattice()
        )
        assert default != explicit

    def test_code_fingerprint_stable_within_process(self):
        assert code_fingerprint() == code_fingerprint()

    def test_lattice_key_canonical(self):
        assert lattice_key(None) == "default"
        assert lattice_key(const_lattice()) == lattice_key(const_lattice())


class TestCachedRun:
    @pytest.mark.parametrize("mode", ["mono", "poly", "polyrec"])
    def test_warm_matches_cold(self, cache, mode):
        cold = cache.cached_run(SOURCE, "t", mode)
        warm = cache.cached_run(SOURCE, "t", mode)
        assert not cold.timings.from_cache
        assert warm.timings.from_cache
        assert classifications(cold) == classifications(warm)
        assert cold.constraint_count == warm.constraint_count

    @pytest.mark.parametrize("mode", ["mono", "poly", "polyrec"])
    def test_cold_run_reports_stage_times(self, cache, mode):
        timings = cache.cached_run(SOURCE, "t", mode).timings
        assert timings.congen_seconds > 0
        assert timings.solve_seconds > 0
        if mode != "mono":
            assert timings.generalize_seconds > 0

    def test_warm_skips_parse_and_congen(self, cache):
        cache.cached_run(SOURCE, "t", "mono")
        warm = cache.cached_run(SOURCE, "t", "mono")
        assert warm.timings.parse_seconds == 0.0
        assert warm.timings.generalize_seconds == 0.0

    def test_explicit_lattice_roundtrips(self, cache):
        lattice = const_lattice()
        cold = cache.cached_run(SOURCE, "t", "mono", lattice=lattice)
        warm = cache.cached_run(SOURCE, "t", "mono", lattice=lattice)
        assert warm.timings.from_cache
        assert classifications(cold) == classifications(warm)

    def test_corrupt_constraint_blob_recomputes(self, cache):
        cold = cache.cached_run(SOURCE, "t", "mono")
        key = cache.key("constraints", source=SOURCE, mode="mono")
        cache._path(key).write_bytes(pickle.dumps("wrong shape"))
        recomputed = cache.cached_run(SOURCE, "t", "mono")
        assert not recomputed.timings.from_cache
        assert classifications(cold) == classifications(recomputed)


class TestSuiteIntegration:
    def test_benchmark_counts_identical_cold_and_warm(self, tmp_path):
        spec = scaling_spec(1)
        stats = CacheStats()
        cold = benchmark_rows((spec,), cache_dir=str(tmp_path), cache_stats=stats)
        warm = benchmark_rows((spec,), cache_dir=str(tmp_path), cache_stats=stats)
        key = lambda r: (r.name, r.declared, r.mono, r.poly, r.total_possible)
        assert key(cold[0]) == key(warm[0])
        assert warm[0].mono_timings.from_cache
        assert warm[0].poly_timings.from_cache
        assert stats.hits > 0

    def test_process_pool_workers_share_cache(self, tmp_path):
        specs = scaling_specs((1, 2))
        stats = CacheStats()
        benchmark_rows(specs, jobs=2, cache_dir=str(tmp_path), cache_stats=stats)
        warm_stats = CacheStats()
        rows = benchmark_rows(specs, jobs=2, cache_dir=str(tmp_path), cache_stats=warm_stats)
        assert warm_stats.misses == 0
        assert warm_stats.hits == 2 * len(specs)
        assert all(r.mono_timings.from_cache and r.poly_timings.from_cache for r in rows)

    def test_stage_timings_rendered(self, tmp_path):
        from repro.constinfer.results import format_stage_timings

        rows = benchmark_rows((scaling_spec(1),), cache_dir=str(tmp_path))
        rows = benchmark_rows((scaling_spec(1),), cache_dir=str(tmp_path))
        report = format_stage_timings(rows)
        assert "cached" in report
        assert "Congen(ms)" in report


class TestParseOnce:
    """A cached Table 2 row parses its source at most once: the first
    engine run that misses parses it, hands the ``Program`` on, and the
    parse is charged to that run and to the row."""

    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        original = Program.from_source.__func__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Program, "from_source", classmethod(counting))
        return calls

    def test_cold_row_parses_once(self, tmp_path, parses):
        stats = CacheStats()
        [row] = benchmark_rows((scaling_spec(1),), cache_dir=str(tmp_path), cache_stats=stats)
        assert len(parses) == 1
        assert (stats.hits, stats.misses, stats.stores) == (0, 2, 2)
        assert row.mono_timings.parse_seconds > 0
        assert row.poly_timings.parse_seconds == 0.0
        assert row.compile_seconds == row.mono_timings.parse_seconds

    def test_warm_row_parses_nothing(self, tmp_path, parses):
        benchmark_rows((scaling_spec(1),), cache_dir=str(tmp_path))
        parses.clear()
        [row] = benchmark_rows((scaling_spec(1),), cache_dir=str(tmp_path))
        assert parses == []
        assert row.compile_seconds == 0.0

    def test_partial_row_charges_the_parse_to_the_missing_run(self, tmp_path, parses):
        spec = scaling_spec(1)
        [cold] = benchmark_rows((spec,), cache_dir=str(tmp_path))
        cache = AnalysisCache(tmp_path)
        poly_key = cache.key("constraints", source=generate_source(spec), mode="poly")
        cache._path(poly_key).unlink()
        parses.clear()

        [row] = benchmark_rows((spec,), cache_dir=str(tmp_path))
        assert len(parses) == 1
        assert row.mono_timings.from_cache
        assert not row.poly_timings.from_cache
        assert row.mono_timings.parse_seconds == 0.0
        assert row.poly_timings.parse_seconds > 0
        assert row.compile_seconds == row.poly_timings.parse_seconds
        key = lambda r: (r.declared, r.mono, r.poly, r.total_possible)
        assert key(row) == key(cold)

    def test_given_program_is_not_parsed_again(self, cache, parses):
        program = Program.from_source(SOURCE, "t")
        parses.clear()
        run = cache.cached_run(SOURCE, "t", "poly", program=program)
        assert parses == []
        assert run.timings.parse_seconds == 0.0
        assert run.inference.program is program
