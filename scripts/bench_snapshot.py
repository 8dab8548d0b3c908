#!/usr/bin/env python
"""Record a solver-performance snapshot into BENCH_solver.json.

Run from the repository root::

    PYTHONPATH=src python scripts/bench_snapshot.py

Measures the end-to-end engine sweeps of ``benchmarks/test_scaling.py``
(min-of-N wall time) plus the solver microbenchmark shapes, and appends
a dated entry to ``BENCH_solver.json`` so future PRs have a perf
trajectory to compare against.  The committed file also carries the
frozen ``seed`` entry measured before the bitmask/condensation kernel
landed; the acceptance bar is run_mono scale 8 at >= 2x that baseline.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from repro.cfront.sema import Program  # noqa: E402
from repro.benchsuite.generator import PositionMix, generate_benchmark  # noqa: E402
from repro.benchsuite.suite import benchmark_rows, scaling_specs  # noqa: E402
from repro.constinfer.engine import run_mono, run_poly  # noqa: E402
from repro.qual.qualifiers import const_lattice  # noqa: E402
from repro.qual.solver import solve, solve_reference  # noqa: E402

SNAPSHOT_PATH = REPO / "BENCH_solver.json"
REPEATS = 5


def sweep_program(scale: int) -> Program:
    mix = PositionMix(10 * scale, 10 * scale, 9 * scale, 10 * scale)
    source = generate_benchmark(f"sweep{scale}", 42 + scale, mix, 0)
    return Program.from_source(source)


def best_of(fn, *args, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def chain_system(lattice, n):
    from test_solver_bench import chain_system as make

    return make(lattice, n)


def measure() -> dict:
    entry: dict = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "run_mono_ms": {},
        "run_poly_ms": {},
        "solver_kernel_ms": {},
        "solver_stats": {},
    }

    for scale in (1, 4, 8):
        program = sweep_program(scale)
        entry["run_mono_ms"][str(scale)] = round(
            best_of(run_mono, program) * 1000, 2
        )
    program4 = sweep_program(4)
    entry["run_poly_ms"]["4"] = round(best_of(run_poly, program4) * 1000, 2)

    run = run_mono(sweep_program(8))
    stats = run.solution.stats
    if stats is not None:
        entry["solver_stats"]["mono_scale8"] = {
            "variables": stats.variables,
            "constraints": stats.constraints,
            "sccs": stats.sccs,
            "collapsed_sccs": stats.collapsed_sccs,
            "largest_scc": stats.largest_scc,
            "edges_before": stats.edges_before,
            "edges_after": stats.edges_after,
            "dag_edges": stats.dag_edges,
            "propagation_steps": stats.propagation_steps,
        }

    lattice = const_lattice()
    _, chain = chain_system(lattice, 10_000)
    entry["solver_kernel_ms"]["chain10k_condensation"] = round(
        best_of(solve, chain, lattice) * 1000, 2
    )
    entry["solver_kernel_ms"]["chain10k_reference"] = round(
        best_of(solve_reference, chain, lattice) * 1000, 2
    )
    entry["solver_kernel_ms"].update(measure_flatcore(lattice))

    entry["suite_ms"] = measure_suite()
    entry["checker"] = measure_checker()
    entry["whole_program"] = measure_whole()
    entry["serve"] = measure_serve()
    entry["testkit_fuzz"] = measure_fuzz()
    entry["ingest"] = measure_ingest()
    entry["flowsens"] = measure_flowsens()
    return entry


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a small sample set, in milliseconds."""
    ranked = sorted(samples)
    index = min(len(ranked) - 1, round(q / 100 * (len(ranked) - 1)))
    return round(ranked[index] * 1000, 2)


def measure_serve() -> dict:
    """Resident daemon (``python -m repro.serve``) vs cold one-shot CLI
    over a generated 40-TU corpus: p50/p99 of (a) a fresh ``python -m
    repro.checker`` process per run, (b) a warm resident ``analyze``,
    and (c) the single-TU edit turnaround (``didChange`` + ``analyze``).
    The daemon's report is asserted byte-identical to the one-shot
    stdout before any number is recorded."""
    import subprocess

    from repro.testkit.cgen import generate_c_corpus

    sources = generate_c_corpus(4242, n_units=40, n_families=60).sources()
    out: dict = {"corpus_units": len(sources)}
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))

    with tempfile.TemporaryDirectory() as root:
        root_path = Path(root)
        for name, text in sources.items():
            (root_path / name).write_text(text)
        argv = [sys.executable, "-m", "repro.checker", str(root_path), "--format", "json"]

        cold_samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            proc = subprocess.run(argv, env=env, capture_output=True, text=True)
            cold_samples.append(time.perf_counter() - start)
        one_shot = proc.stdout

        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            bufsize=1,
        )
        next_id = iter(range(1, 10_000))

        def rpc(method: str, params: dict | None = None) -> tuple[dict, float]:
            request = {"jsonrpc": "2.0", "id": next(next_id), "method": method}
            if params is not None:
                request["params"] = params
            start = time.perf_counter()
            daemon.stdin.write(json.dumps(request) + "\n")
            daemon.stdin.flush()
            response = json.loads(daemon.stdout.readline())
            return response, time.perf_counter() - start

        try:
            params = {"paths": [str(root_path)], "format": "json"}
            first, first_seconds = rpc("analyze", params)
            assert first["result"]["report"] == one_shot, (
                "daemon report drifted from one-shot CLI output"
            )

            warm_samples = []
            for _ in range(20):
                response, seconds = rpc("analyze", params)
                warm_samples.append(seconds)
            assert response["result"]["report"] == one_shot

            # Single-TU edit turnaround: push new text for one unit,
            # re-analyze the whole corpus (39 units stay memory-warm).
            target = str(root_path / "u0.c")
            edit_samples = []
            for i in range(20):
                start = time.perf_counter()
                rpc("didChange", {"file": target, "text": sources["u0.c"] + "\n" * (i + 1)})
                response, _ = rpc("analyze", params)
                edit_samples.append(time.perf_counter() - start)
            assert response["result"]["cache_misses"] == 1, (
                "an edit should re-analyse exactly the edited TU"
            )
            rpc("shutdown")
        finally:
            daemon.stdin.close()
            daemon.wait(timeout=30)

    out["cold_oneshot_ms"] = {
        "p50": _percentile(cold_samples, 50),
        "p99": _percentile(cold_samples, 99),
    }
    out["resident_first_ms"] = round(first_seconds * 1000, 2)
    out["resident_analyze_ms"] = {
        "p50": _percentile(warm_samples, 50),
        "p99": _percentile(warm_samples, 99),
    }
    out["resident_edit_turnaround_ms"] = {
        "p50": _percentile(edit_samples, 50),
        "p99": _percentile(edit_samples, 99),
    }
    out["edit_speedup_vs_cold_p50"] = round(
        out["cold_oneshot_ms"]["p50"] / out["resident_edit_turnaround_ms"]["p50"], 1
    )
    return out


def measure_flatcore(lattice) -> dict:
    """Flat-array CSR kernel times (condensation + both propagation
    passes over prebuilt buffers) on the three shapes that stress it:
    a 10k chain (longest DAG), a 10k-leaf fan-out (widest DAG), and a
    dense strongly-connected component (largest collapse).  These
    isolate the kernel the way ``chain10k_condensation`` isolates the
    whole ``solve`` call — the difference between the two numbers is
    the Python cost of iterating constraint *objects* into the arrays,
    which a warm (mmap) start never pays."""
    from test_solver_bench import cyclic_system, fanout_system

    from repro.qual.flatcore import FlatSystem, fast_available
    from repro.qual.solver import IndexedSystem

    def flat_of(constraints):
        system = IndexedSystem(lattice)
        system.add_many(constraints)
        return FlatSystem.from_indexed(system)

    _, chain = chain_system(lattice, 10_000)
    _, fan = fanout_system(lattice, 10_000)
    _, dense = cyclic_system(lattice, 5_000)

    out = {"flat_kernel_fast_path": fast_available()}
    for name, constraints in (
        ("flat_chain10k", chain),
        ("flat_fanout10k", fan),
        ("flat_dense_scc5k", dense),
    ):
        flat = flat_of(constraints)
        out[name] = round(best_of(flat.solve_masks) * 1000, 3)

    # The zero-copy warm start: serialise once (with the solution
    # section), then time mmap -> wrap -> read the recorded fixpoints.
    flat = flat_of(chain)
    flat.attach_solution()
    blob = flat.to_bytes()
    with tempfile.NamedTemporaryFile(suffix=".qfc") as handle:
        handle.write(blob)
        handle.flush()
        import mmap as mmap_mod

        def warm_load():
            with open(handle.name, "rb") as f:
                mapped = mmap_mod.mmap(f.fileno(), 0, access=mmap_mod.ACCESS_READ)
                system = FlatSystem.from_buffer(mapped)
                solution = system.stored_solution()
                assert solution is not None
        out["flat_chain10k_mmap_warm"] = round(best_of(warm_load) * 1000, 3)
    return out


def measure_fuzz() -> dict:
    """Testkit oracle-matrix throughput: generated programs per second
    through the full differential/metamorphic matrix at a fixed seed.
    A disagreement aborts the snapshot — perf numbers measured against a
    broken engine would be meaningless."""
    from repro.testkit.driver import FuzzSession

    report = FuzzSession(seed=42, budget_seconds=120.0, max_programs=150).run()
    assert report.ok, report.summary()
    return {
        "programs": report.programs,
        "lambda_programs": report.lambda_programs,
        "c_corpora": report.c_corpora,
        "elapsed_ms": round(report.elapsed_seconds * 1000, 2),
        "programs_per_sec": round(report.programs / report.elapsed_seconds, 1),
    }


def measure_ingest() -> dict:
    """Resilient ingestion over a 100-TU corpus with a fifth of its
    units error-seeded: best-effort TUs/sec (cold and warm cache) and
    the recovered-function ratio against the clean builds of the same
    seeds.  A crash or a sub-90% ratio aborts the snapshot — the bar
    the ingestion CI job holds."""
    from repro.cfront.cast import FuncDef
    from repro.cfront.cparser import parse_c
    from repro.checker.runner import analyze
    from repro.testkit.cgen import corrupt, generate_c_corpus

    n_corpora, per_corpus, corrupt_every = 25, 4, 5
    clean_functions = 0
    with tempfile.TemporaryDirectory() as root:
        root_path = Path(root)
        total = 0
        corrupted = 0
        for seed in range(n_corpora):
            corpus = generate_c_corpus(seed, n_units=per_corpus, n_families=4)
            subdir = root_path / f"c{seed}"
            subdir.mkdir()
            for name, text in sorted(corpus.sources().items()):
                clean_functions += sum(
                    1 for item in parse_c(text, name).items
                    if isinstance(item, FuncDef)
                )
                if total % corrupt_every == corrupt_every - 1:
                    text = corrupt(text, seed=total, n_errors=1 + total % 3)
                    corrupted += 1
                (subdir / name).write_text(text)
                total += 1

        with tempfile.TemporaryDirectory() as cache_dir:
            start = time.perf_counter()
            cold = analyze(
                [str(root_path)], best_effort=True, cache_dir=cache_dir
            )
            cold_seconds = time.perf_counter() - start
            assert cold.errors == {}, "best-effort run reported hard errors"

            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                warm = analyze(
                    [str(root_path)], best_effort=True, cache_dir=cache_dir
                )
                best = min(best, time.perf_counter() - start)
            assert warm.cache_misses == 0, "warm rerun did not hit the cache"
            assert warm.unit_status == cold.unit_status

    recovered = sum(cold.functions.values())
    ratio = recovered / clean_functions if clean_functions else 0.0
    assert ratio >= 0.9, f"recovered-function ratio {ratio:.2%} below 90%"
    return {
        "corpus_units": total,
        "corrupted_units": corrupted,
        "degraded_units": sum(
            1 for s in cold.unit_status.values() if s != "ok"
        ),
        "clean_functions": clean_functions,
        "recovered_functions": recovered,
        "recovered_function_ratio": round(ratio, 4),
        "cold_ms": round(cold_seconds * 1000, 2),
        "warm_ms": round(best * 1000, 2),
        "cold_tus_per_sec": round(total / cold_seconds, 1),
        "warm_tus_per_sec": round(total / best, 1),
    }


def measure_flowsens() -> dict:
    """Flow-sensitive linearity pack: lowering and resource-analysis
    throughput (functions/sec) over seeded resource programs, plus the
    full pack through the checker over the committed corpus, cold vs
    warm diagnostic cache."""
    from repro.checker.checks import ALL_CHECKS
    from repro.checker.runner import analyze
    from repro.flowsens.linear import analyze_function_resources
    from repro.flowsens.lower import lower_function
    from repro.qual.qualifiers import resource_lattice
    from repro.testkit.cgen import generate_resource_program

    lattice = resource_lattice()
    fdefs = []
    for seed in range(16):
        program = Program.from_source(
            generate_resource_program(seed).source, filename=f"r{seed}.c"
        )
        fdefs.extend(program.functions.values())

    lower_seconds = best_of(
        lambda: [lower_function(f, lattice) for f in fdefs], repeats=3
    )
    lowered = [lower_function(f, lattice) for f in fdefs]
    analyze_seconds = best_of(
        lambda: [analyze_function_resources(fn, lattice) for fn in lowered],
        repeats=3,
    )

    out: dict = {
        "functions": len(fdefs),
        "lower_ms": round(lower_seconds * 1000, 2),
        "analyze_ms": round(analyze_seconds * 1000, 2),
        "lower_functions_per_sec": round(len(fdefs) / lower_seconds, 1),
        "analyze_functions_per_sec": round(len(fdefs) / analyze_seconds, 1),
    }

    corpus = REPO / "examples" / "resource_bugs"
    check_names = tuple(c.name for c in ALL_CHECKS)
    out["corpus_files"] = len(sorted(corpus.glob("*.c")))
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = analyze([str(corpus)], checks=check_names, cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - start
        assert cold.cache_hits == 0, "cold run unexpectedly hit the cache"

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm = analyze(
                [str(corpus)], checks=check_names, cache_dir=cache_dir
            )
            best = min(best, time.perf_counter() - start)
        assert warm.cache_misses == 0, "warm rerun did not hit the cache"
        assert [d.to_dict() for d in warm.diagnostics] == [
            d.to_dict() for d in cold.diagnostics
        ], "warm pack diagnostics differ from cold"

    out["pack_cold_ms"] = round(cold_seconds * 1000, 2)
    out["pack_warm_ms"] = round(best * 1000, 2)

    # Whole-program pack over the cross-TU ownership corpus: linking,
    # the bottom-up summary fixpoint, and the summary-aware lowering,
    # cold vs warm through the per-unit ownership cache tier.
    xtu = REPO / "examples" / "resource_bugs_xtu"
    out["xtu_files"] = len(sorted(xtu.glob("*.c")))
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = analyze(
            [str(xtu)], checks=check_names, whole_program=True, cache_dir=cache_dir
        )
        xtu_cold_seconds = time.perf_counter() - start
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm = analyze(
                [str(xtu)],
                checks=check_names,
                whole_program=True,
                cache_dir=cache_dir,
            )
            best = min(best, time.perf_counter() - start)
        assert [d.to_dict() for d in warm.diagnostics] == [
            d.to_dict() for d in cold.diagnostics
        ], "warm whole-program pack diagnostics differ from cold"
    out["xtu_whole_cold_ms"] = round(xtu_cold_seconds * 1000, 2)
    out["xtu_whole_warm_ms"] = round(best * 1000, 2)
    return out


def measure_checker() -> dict:
    """qlint batch throughput over the seeded-bug corpus, cold vs warm
    diagnostic cache (files/sec; warm runs deserialise finished
    diagnostics and skip parse, congen, and solve)."""
    from repro.checker import check_paths

    corpus = REPO / "examples" / "checker_corpus"
    files = sorted(corpus.glob("*.c"))
    out: dict = {"corpus_files": len(files)}

    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        cold = check_paths([corpus], cache_dir=cache_dir)
        cold_seconds = time.perf_counter() - start
        assert cold.cache_hits == 0, "cold run unexpectedly hit the cache"

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm = check_paths([corpus], cache_dir=cache_dir)
            best = min(best, time.perf_counter() - start)
        assert warm.cache_misses == 0, "warm rerun did not hit the cache"
        assert [d.to_dict() for d in warm.diagnostics] == [
            d.to_dict() for d in cold.diagnostics
        ], "warm diagnostics differ from cold"

    out["cold_ms"] = round(cold_seconds * 1000, 2)
    out["warm_ms"] = round(best * 1000, 2)
    out["cold_files_per_sec"] = round(len(files) / cold_seconds, 1)
    out["warm_files_per_sec"] = round(len(files) / best, 1)
    return out


def measure_whole() -> dict:
    """Whole-program link-and-infer over the multi-TU corpus, cold vs
    warm per-TU summary cache (warm re-links cached ``forall k. rho\\C``
    schemes and goes straight to the solve)."""
    from repro.whole import link_paths, run_whole_poly

    corpus = REPO / "examples" / "multi_tu"
    units = sorted(corpus.glob("*.c"))
    out: dict = {"corpus_units": len(units)}

    from repro.constinfer.cache import AnalysisCache

    with tempfile.TemporaryDirectory() as cache_dir:
        cache = AnalysisCache(cache_dir)
        start = time.perf_counter()
        cold = run_whole_poly(link_paths([corpus]), cache=cache)
        cold_seconds = time.perf_counter() - start
        assert cold.summary_hits == 0, "cold link unexpectedly hit the cache"

        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            warm = run_whole_poly(link_paths([corpus]), cache=cache)
            best = min(best, time.perf_counter() - start)
        assert warm.summary_misses == 0, "warm re-link did not hit the cache"
        assert [str(c) for c in warm.run.inference.constraints] == [
            str(c) for c in cold.run.inference.constraints
        ], "warm constraints differ from cold"

    out["cold_link_ms"] = round(cold_seconds * 1000, 2)
    out["warm_link_ms"] = round(best * 1000, 2)
    return out


def measure_suite() -> dict:
    """Serial-vs-parallel suite wall time, and cold-vs-warm cache time,
    over the scaling sweep.

    The parallel number is only meaningful relative to ``cpu_count`` —
    on a single-core box the process pool adds fork/pickle overhead and
    cannot win; the warm-cache speedup is core-independent (it skips
    parse and constraint generation outright).
    """
    specs = scaling_specs((1, 2, 4, 8))
    out: dict = {"cpu_count": os.cpu_count(), "scales": [1, 2, 4, 8]}

    out["serial"] = round(best_of(benchmark_rows, specs, repeats=3) * 1000, 2)
    out["parallel_jobs4"] = round(
        best_of(lambda: benchmark_rows(specs, jobs=4), repeats=3) * 1000,
        2,
    )

    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        benchmark_rows(specs, cache_dir=cache_dir)
        out["cache_cold"] = round((time.perf_counter() - start) * 1000, 2)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rows = benchmark_rows(specs, cache_dir=cache_dir)
            best = min(best, time.perf_counter() - start)
        out["cache_warm"] = round(best * 1000, 2)
        assert all(
            r.mono_timings.from_cache and r.poly_timings.from_cache for r in rows
        ), "warm rerun did not hit the cache"
    return out


def main() -> None:
    if SNAPSHOT_PATH.exists():
        data = json.loads(SNAPSHOT_PATH.read_text())
    else:
        data = {"entries": []}
    entry = measure()
    if len(sys.argv) > 1:
        entry["label"] = sys.argv[1]
    data["entries"].append(entry)
    SNAPSHOT_PATH.write_text(json.dumps(data, indent=2) + "\n")

    seed = next((e for e in data["entries"] if e.get("label") == "seed"), None)
    print(json.dumps(entry, indent=2))
    if seed is not None:
        base = seed["run_mono_ms"]["8"]
        now = entry["run_mono_ms"]["8"]
        print(f"run_mono scale 8: {base} ms (seed) -> {now} ms "
              f"({base / now:.2f}x speedup)")


if __name__ == "__main__":
    main()
