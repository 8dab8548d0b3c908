"""Command-line driver: ``python -m repro.checker [paths...]``.

Walks the given files/directories for C translation units, runs the
enabled checks, and emits the report in human, JSON, or SARIF form.
Baselines support ratchet-style CI: ``--baseline`` compares against a
checked-in fingerprint set (exit 1 on new *or* lost findings),
``--write-baseline`` refreshes it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .checks import ALL_CHECKS, DEFAULT_CHECKS
from .diagnostics import Baseline
from .render import render_report
from .runner import analyze


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checker",
        description="qlint: qualifier checks with constraint-path diagnostics",
    )
    parser.add_argument("paths", nargs="+", help=".c files or directories")
    parser.add_argument(
        "--checks",
        default=",".join(c.name for c in DEFAULT_CHECKS),
        help="comma-separated check names (default: all); known: "
        + ", ".join(c.name for c in ALL_CHECKS),
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write the report here instead of stdout"
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="process-pool width for batch runs"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed diagnostic cache directory (warm runs skip analysis)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="compare findings against this baseline file; exit 1 on drift",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        help="write the current findings' fingerprints to this baseline file",
    )
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="include suppressed findings in human output",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help="link every unit into one program before checking, so "
        "qualifier flows (and flow paths) cross translation units",
    )
    parser.add_argument(
        "--src-root",
        default=None,
        help="emit SARIF artifact URIs relative to this directory "
        "(declared as the SRCROOT uriBase)",
    )
    parser.add_argument(
        "--best-effort",
        action="store_true",
        help="resilient ingestion: preprocess #include/#define/#ifdef, "
        "recover from parse errors panic-mode style, and analyse "
        "whatever each unit kept (parse problems become parse-error/"
        "preprocessor findings; units get ok/partial/skipped status)",
    )
    parser.add_argument(
        "--include-dir",
        "-I",
        action="append",
        default=[],
        metavar="DIR",
        help="add DIR to the #include search path (best-effort mode; "
        "repeatable)",
    )
    return parser


def build_suggest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.checker suggest",
        description=(
            "rank inferred qualifier annotations (tainted, dynamic, "
            "alloc) per declaration, with feature-heuristic confidence"
        ),
    )
    parser.add_argument("paths", nargs="+", help=".c files or directories")
    parser.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=3,
        help="maximum suggestions per declaration (default: 3)",
    )
    parser.add_argument(
        "--whole-program",
        action="store_true",
        help=(
            "link all units and infer cross-TU ownership summaries "
            "before suggesting (resolved callees stop counting as "
            "escapes, raising alloc confidence)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed cache for whole-program summaries",
    )
    parser.add_argument(
        "--output", "-o", default=None, help="write here instead of stdout"
    )
    parser.add_argument(
        "--include-dir",
        "-I",
        action="append",
        default=[],
        metavar="DIR",
        help="add DIR to the #include search path (repeatable)",
    )
    return parser


def suggest_main(argv: list[str]) -> int:
    from .suggest import (
        render_suggestions_human,
        render_suggestions_json,
        suggest_paths,
        suggest_paths_whole,
    )

    args = build_suggest_parser().parse_args(argv)
    if args.whole_program:
        from ..constinfer.cache import AnalysisCache

        cache = AnalysisCache(args.cache_dir) if args.cache_dir else None
        _, suggestions, errors = suggest_paths_whole(
            args.paths,
            include_paths=tuple(args.include_dir),
            top=args.top,
            cache=cache,
        )
    else:
        _, suggestions, errors = suggest_paths(
            args.paths, include_paths=tuple(args.include_dir), top=args.top
        )
    if args.format == "json":
        rendered = render_suggestions_json(suggestions)
    else:
        rendered = render_suggestions_human(suggestions)
    if args.output is not None:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    for file, error in sorted(errors.items()):
        print(f"qlint: error: {file}: {error}", file=sys.stderr)
    return 1 if errors else 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        # ``qlint serve`` — hand the rest of the line to the resident
        # analysis daemon (``python -m repro.serve``).
        from ..serve.cli import main as serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "suggest":
        # ``qlint suggest`` — annotation-suggestion mode.
        return suggest_main(argv[1:])
    args = build_parser().parse_args(argv)
    check_names = [name.strip() for name in args.checks.split(",") if name.strip()]

    baseline = None
    if args.baseline is not None:
        baseline = Baseline.load(args.baseline)

    report = analyze(
        args.paths,
        checks=check_names,
        whole_program=args.whole_program,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        baseline=baseline,
        best_effort=args.best_effort,
        include_paths=tuple(args.include_dir),
    )

    if args.write_baseline is not None:
        Baseline.from_diagnostics(report.diagnostics).save(args.write_baseline)

    rendered = render_report(
        report,
        format=args.format,
        show_suppressed=args.show_suppressed,
        src_root=args.src_root,
    )
    if args.output is not None:
        Path(args.output).write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)

    for file, error in sorted(report.errors.items()):
        print(f"qlint: error: {file}: {error}", file=sys.stderr)
    for file, status in sorted(report.unit_status.items()):
        if status != "ok":
            print(f"qlint: {status}: {file}", file=sys.stderr)
    if baseline is not None:
        for diag in report.new_findings:
            print(f"qlint: new finding not in baseline: {diag.span}: {diag.message}", file=sys.stderr)
        for fingerprint in sorted(report.lost_fingerprints):
            print(f"qlint: baselined finding no longer reported: {fingerprint}", file=sys.stderr)
        print(
            f"qlint: baseline: {len(report.new_findings)} new, "
            f"{len(report.lost_fingerprints)} lost",
            file=sys.stderr,
        )
        print(f"qlint: {report.summary()}", file=sys.stderr)
        return 1 if (report.new_findings or report.lost_fingerprints or report.errors) else 0

    print(f"qlint: {report.summary()}", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
