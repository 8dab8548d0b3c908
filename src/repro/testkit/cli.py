"""Command-line driver: ``python -m repro.testkit fuzz``.

Runs a seeded, budgeted fuzz session over the full differential /
metamorphic oracle matrix.  On any disagreement the failing program is
delta-debugged to a minimal reproducer and written into ``--out`` as a
ready-to-commit pytest file; the exit status is 1 so CI jobs fail loud.

    python -m repro.testkit fuzz --seed 0 --budget 60s
    python -m repro.testkit fuzz --seed 7 --budget 5m --engines solver,cache
    python -m repro.testkit fuzz --programs 200 --out artifacts/ --json report.json
"""

from __future__ import annotations

import argparse

from .driver import FuzzSession
from .oracles import ALL_ORACLES, EngineConfig


def parse_budget(text: str) -> float:
    """'90', '90s', '5m' or '1h' — seconds as a float."""
    text = text.strip().lower()
    scale = 1.0
    if text.endswith(("s", "m", "h")):
        scale = {"s": 1.0, "m": 60.0, "h": 3600.0}[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unreadable budget: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("budget must be positive")
    return value * scale


def parse_engines(text: str) -> frozenset[str]:
    names = frozenset(n.strip() for n in text.split(",") if n.strip())
    unknown = names - set(ALL_ORACLES)
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown oracle(s): {', '.join(sorted(unknown))}; "
            f"known: {', '.join(ALL_ORACLES)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="differential & metamorphic fuzzing of the qualifier engines",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fuzz = commands.add_parser("fuzz", help="run a seeded, budgeted fuzz session")
    fuzz.add_argument("--seed", type=int, default=0, help="session seed (default 0)")
    fuzz.add_argument(
        "--budget",
        type=parse_budget,
        default=60.0,
        help="wall-clock budget, e.g. 60s or 5m (default 60s)",
    )
    fuzz.add_argument(
        "--programs",
        type=int,
        default=None,
        help="stop after this many programs even if budget remains",
    )
    fuzz.add_argument(
        "--engines",
        type=parse_engines,
        default=None,
        help="comma-separated oracle families to run (default: all); known: "
        + ", ".join(ALL_ORACLES),
    )
    fuzz.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="process-pool width for the resource-whole jobs=1 vs jobs=N pairing",
    )
    fuzz.add_argument(
        "--max-depth", type=int, default=5, help="lambda generator depth budget"
    )
    fuzz.add_argument(
        "--out",
        default=None,
        help="directory for reduced-reproducer regression tests",
    )
    fuzz.add_argument(
        "--json", default=None, help="also write the machine-readable report here"
    )
    fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-50-programs progress"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = EngineConfig(jobs=args.jobs, oracles=args.engines)
    session = FuzzSession(
        seed=args.seed,
        budget_seconds=args.budget,
        max_programs=args.programs,
        config=config,
        out_dir=args.out,
        max_depth=args.max_depth,
        progress=not args.quiet,
    )
    report = session.run()
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json() + "\n")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
