"""Command-line driver for C const inference.

Usage::

    quals-const report FILE...        # classify every interesting position
    quals-const table FILE...         # a Table-2 style row for the input
    quals-const annotate FILE         # rewrite with inferred consts
    quals-const suite                 # run the built-in benchmark suite
    quals-const whole FILE|DIR...     # link units, infer whole-program

The ``suite`` command accepts ``--jobs N`` to fan benchmarks over a
process pool of N workers, ``--cache-dir DIR`` to choose where the
content-addressed analysis cache lives, and ``--no-cache`` to disable
it; warm reruns skip parsing and constraint generation entirely.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..cfront.sema import Program
from .annotate import annotate_source, format_report, suggestions
from .engine import ConstInferenceError, run_mono, run_poly, run_polyrec
from .results import (
    analyze_program,
    format_figure6,
    format_stage_timings,
    format_table1,
    format_table2,
    format_whole_report,
)


def _load(paths: list[str]) -> tuple[Program, float, int]:
    sources = {}
    total_lines = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        sources[path] = text
        total_lines += text.count("\n") + 1
    start = time.perf_counter()
    program = Program.from_sources(sources)
    return program, time.perf_counter() - start, total_lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="quals-const", description=__doc__)
    parser.add_argument(
        "command", choices=["report", "table", "annotate", "suite", "whole"]
    )
    parser.add_argument("files", nargs="*", help="C source files")
    parser.add_argument("--poly", action="store_true", help="use polymorphic inference for report/annotate")
    parser.add_argument(
        "--engine",
        choices=["mono", "poly", "polyrec"],
        default=None,
        help="inference engine for report/annotate (overrides --poly)",
    )
    parser.add_argument("--limit", type=int, default=None, help="limit report rows")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="suite: worker processes for the benchmarks "
        "(default: serial; results are identical either way)",
    )
    parser.add_argument(
        "--cache-dir",
        default=".quals-cache",
        help="suite/whole: directory of the content-addressed analysis cache "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="suite/whole: disable the analysis cache (always parse and "
        "regenerate constraints)",
    )
    args = parser.parse_args(argv)

    if args.command == "suite":
        from ..benchsuite.suite import PAPER_BENCHMARKS, benchmark_rows
        from .cache import CacheStats

        specs = PAPER_BENCHMARKS[: args.limit] if args.limit else PAPER_BENCHMARKS
        cache_stats = CacheStats()
        rows = benchmark_rows(
            specs,
            jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            cache_stats=cache_stats,
        )
        print(format_table1(rows))
        print()
        print(format_table2(rows))
        print()
        print(format_figure6(rows))
        print()
        print(format_stage_timings(rows))
        if not args.no_cache:
            print()
            print(f"analysis cache ({args.cache_dir}): {cache_stats.summary()}")
        return 0

    if not args.files:
        print("error: no input files", file=sys.stderr)
        return 2

    if args.command == "whole":
        from ..whole import link_paths, run_whole_poly
        from .cache import AnalysisCache

        cache = None if args.no_cache else AnalysisCache(args.cache_dir)
        linked = link_paths(args.files)
        try:
            result = run_whole_poly(linked, cache=cache)
        except ConstInferenceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(format_whole_report(result))
        if args.limit is not None:
            print()
            print(format_report(result.run, args.limit))
        return 1 if linked.diagnostics else 0

    program, compile_seconds, lines = _load(args.files)

    if args.command == "table":
        row = analyze_program(
            program,
            name=args.files[0],
            lines=lines,
            compile_seconds=compile_seconds,
        )
        print(format_table2([row]))
        return 0

    engine = args.engine or ("poly" if args.poly else "mono")
    try:
        run = {"mono": run_mono, "poly": run_poly, "polyrec": run_polyrec}[engine](program)
    except ConstInferenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "report":
        print(format_report(run, args.limit))
        return 0

    # annotate
    if len(args.files) != 1:
        print("error: annotate takes exactly one file", file=sys.stderr)
        return 2
    with open(args.files[0], "r", encoding="utf-8") as handle:
        source = handle.read()
    print(annotate_source(source, run))
    print(f"/* {len(suggestions(run))} positions may be const */", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
