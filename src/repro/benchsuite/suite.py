"""The six-benchmark suite of Tables 1 and 2.

Each :class:`BenchmarkSpec` records the paper's published metadata (name,
line count, description — Table 1) and const counts (Declared / Mono /
Poly / Total — Table 2).  :func:`generate_source` produces the synthetic
stand-in program for a spec (see DESIGN.md's substitution note and
:mod:`repro.benchsuite.generator`), and :func:`benchmark_rows` runs the
full experiment: parse, monomorphic inference, polymorphic inference,
and count, returning one Table-2 row per benchmark with *measured*
timings and counts.

Because the generator hits the position mix exactly, the count columns
of the regenerated Table 2 match the paper's numbers; the timing columns
are ours (Python on modern hardware vs. the paper's ML/BANE prototype on
1999 hardware) and are compared only in *shape*: roughly linear scaling
in program size, and polymorphic inference within ~3x of monomorphic.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from ..cfront.sema import Program
from ..constinfer.cache import AnalysisCache, CacheStats
from ..constinfer.engine import run_mono, run_poly
from ..constinfer.results import BenchmarkRow, make_row
from .generator import PositionMix, generate_benchmark


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: Table 1 metadata plus Table 2 count targets."""

    name: str
    lines: int
    description: str
    declared: int
    mono: int
    poly: int
    total: int
    seed: int

    @property
    def mix(self) -> PositionMix:
        return PositionMix.from_table2(self.declared, self.mono, self.poly, self.total)


#: The paper's six benchmarks (Table 1 names/lines/descriptions; Table 2
#: Declared/Mono/Poly/Total-possible counts).
PAPER_BENCHMARKS: tuple[BenchmarkSpec, ...] = (
    BenchmarkSpec("woman-3.0a", 1496, "Replacement for man package", 50, 67, 72, 95, 1101),
    BenchmarkSpec("patch-2.5", 5303, "Apply a diff file to an original", 84, 99, 107, 148, 1102),
    BenchmarkSpec("m4-1.4", 7741, "Unix macro preprocessor", 88, 249, 262, 370, 1103),
    BenchmarkSpec("diffutils-2.7", 8741, "Collection of utilities for diffing files", 153, 209, 243, 372, 1104),
    BenchmarkSpec("ssh-1.2.26", 18620, "Secure shell", 147, 316, 347, 547, 1105),
    BenchmarkSpec("uucp-1.04", 36913, "Unix to unix copy package", 433, 1116, 1299, 1773, 1106),
)

#: The paper's measured timings (seconds, Table 2) — kept for the
#: EXPERIMENTS.md paper-vs-measured comparison, never asserted against.
PAPER_TIMINGS: dict[str, tuple[float, float, float]] = {
    "woman-3.0a": (4.84, 3.91, 8.91),
    "patch-2.5": (16.98, 18.70, 33.43),
    "m4-1.4": (19.48, 36.81, 64.43),
    "diffutils-2.7": (24.46, 35.70, 57.34),
    "ssh-1.2.26": (84.55, 101.90, 174.28),
    "uucp-1.04": (113.75, 177.71, 457.16),
}


# Bounded: the six paper specs plus a scaling sweep fit easily in 32
# entries, but each generated source is tens to hundreds of kilobytes —
# an unbounded cache over arbitrary ad-hoc specs (property tests,
# sweeps at growing scales) would hold every source ever generated for
# the life of the process.
@lru_cache(maxsize=32)
def generate_source(spec: BenchmarkSpec) -> str:
    """The benchmark's deterministic C source."""
    return generate_benchmark(
        spec.name, spec.seed, spec.mix, spec.lines, spec.description
    )


def scaling_spec(scale: int) -> BenchmarkSpec:
    """A synthetic scaling-sweep benchmark.

    Same position mix and seeds as ``benchmarks/test_scaling.py`` (mix
    ``(10, 10, 9, 10) * scale``, natural length), so sweep results are
    comparable across the test suite, the CLI, and bench_snapshot.
    """
    return BenchmarkSpec(
        name=f"sweep-{scale}",
        lines=0,
        description=f"synthetic scaling sweep x{scale}",
        declared=10 * scale,
        mono=20 * scale,
        poly=29 * scale,
        total=39 * scale,
        seed=42 + scale,
    )


def scaling_specs(scales: tuple[int, ...] = (1, 2, 4, 8)) -> tuple[BenchmarkSpec, ...]:
    """Specs for a program-size scaling sweep (Figure-style experiment)."""
    return tuple(scaling_spec(scale) for scale in scales)


def load_program(spec: BenchmarkSpec) -> tuple[Program, float, int]:
    """Parse a benchmark; returns (program, compile seconds, actual lines)."""
    source = generate_source(spec)
    start = time.perf_counter()
    program = Program.from_source(source, spec.name)
    elapsed = time.perf_counter() - start
    return program, elapsed, source.count("\n") + 1


def run_benchmark(
    spec: BenchmarkSpec,
    *,
    cache: AnalysisCache | None = None,
) -> BenchmarkRow:
    """Full Table-2 experiment for one benchmark.

    ``cache`` routes both engine runs through a content-addressed
    :class:`~repro.constinfer.cache.AnalysisCache`.  It changes no
    count: warm cache solves reproduce cold classifications exactly.
    The source is parsed at most once, by the first run that misses;
    its ``Program`` is handed on to the other run, and the parse is
    charged to the row and to the run that performed it.
    """
    if cache is not None:
        source = generate_source(spec)
        lines = source.count("\n") + 1
        mono = cache.cached_run(source, spec.name, "mono")
        program = mono.inference.program if mono.inference is not None else None
        poly = cache.cached_run(source, spec.name, "poly", program=program)
        compile_seconds = sum(
            run.timings.parse_seconds for run in (mono, poly) if run.timings
        )
        return make_row(spec.name, lines, spec.description, compile_seconds, mono, poly)

    program, compile_seconds, lines = load_program(spec)
    mono = run_mono(program)
    poly = run_poly(program)
    # The engines never see source text, so charge the parse to the
    # mono row's stage breakdown (the suite parses once for both runs).
    if mono.timings is not None:
        mono.timings = dataclasses.replace(
            mono.timings, parse_seconds=compile_seconds
        )
    return make_row(spec.name, lines, spec.description, compile_seconds, mono, poly)


def _run_benchmark_task(
    spec: BenchmarkSpec, cache_dir: str | None
) -> tuple[BenchmarkRow, tuple[int, int, int, int, int]]:
    """Process-pool worker: one benchmark end to end.

    Top-level so it pickles; returns the worker's cache counters
    alongside the row so the parent can aggregate hit/miss totals.
    """
    cache = AnalysisCache(cache_dir) if cache_dir else None
    row = run_benchmark(spec, cache=cache)
    counters = (
        (cache.stats.hits, cache.stats.misses, cache.stats.stores,
         cache.stats.binary_hits, cache.stats.memory_hits)
        if cache
        else (0, 0, 0, 0, 0)
    )
    return row, counters


def benchmark_rows(
    specs: tuple[BenchmarkSpec, ...] = PAPER_BENCHMARKS,
    *,
    jobs: int | None = None,
    cache_dir: str | None = None,
    cache_stats: CacheStats | None = None,
) -> list[BenchmarkRow]:
    """Run the whole suite (the full Table 2 / Figure 6 experiment).

    ``jobs > 1`` fans the benchmarks over a ``ProcessPoolExecutor`` —
    rows come back in spec order regardless of which worker finishes
    first, so the report is deterministic.  ``cache_dir`` enables the
    content-addressed analysis cache (workers share the directory; the
    atomic writes make concurrent stores safe).  ``cache_stats``, if
    given, accumulates hit/miss/store counters across all workers.
    """
    if jobs is not None and jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(
                pool.map(
                    _run_benchmark_task,
                    specs,
                    [cache_dir] * len(specs),
                )
            )
        if cache_stats is not None:
            for _row, (hits, misses, stores, binary_hits, memory_hits) in outcomes:
                cache_stats.merge(
                    CacheStats(hits, misses, stores, binary_hits, memory_hits)
                )
        return [row for row, _counters in outcomes]

    cache = AnalysisCache(cache_dir) if cache_dir else None
    rows = [run_benchmark(spec, cache=cache) for spec in specs]
    if cache is not None and cache_stats is not None:
        cache_stats.merge(cache.stats)
    return rows


def solver_stats_report(
    specs: tuple[BenchmarkSpec, ...] = PAPER_BENCHMARKS,
) -> str:
    """Render the solver pipeline shape for the whole suite.

    Complements Table 2: the same runs, but reporting what the
    condensation kernel did (variables, collapsed cycles, deduplicated
    edges, propagation steps) instead of const counts.  Handy one-liner::

        PYTHONPATH=src python -c "from repro.benchsuite.suite import \\
            solver_stats_report; print(solver_stats_report())"
    """
    from ..constinfer.results import format_solver_stats

    return format_solver_stats(benchmark_rows(specs))


def spec_by_name(name: str) -> BenchmarkSpec:
    for spec in PAPER_BENCHMARKS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown benchmark {name!r}")
