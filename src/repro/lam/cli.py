"""Command-line driver for the example language.

Usage::

    quals-lam check  [--qualifiers const,nonzero] [--poly] FILE
    quals-lam derive [--qualifiers const,nonzero] [--poly] FILE
    quals-lam run    [--qualifiers const,nonzero] FILE
    quals-lam trace  [--qualifiers const,nonzero] FILE

``check`` prints the least qualified type (with constraint count);
``run`` evaluates the program under the Figure 5 semantics and prints the
final value; ``trace`` prints every intermediate configuration.
"""

from __future__ import annotations

import argparse
import sys

from ..qual.qualifiers import make_lattice
from .eval import Evaluator, StuckError
from .infer import QualTypeError, QualifiedLanguage, infer
from .lexer import LexError
from .parser import ParseError, parse


def _language(names: list[str]) -> QualifiedLanguage:
    lattice = make_lattice(*names)
    if "const" in lattice:
        return QualifiedLanguage(lattice, assign_restrictions=("const",))
    return QualifiedLanguage(lattice)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.buffer.read().decode("utf-8", "replace")
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="quals-lam", description=__doc__)
    parser.add_argument("command", choices=["check", "run", "trace", "derive"])
    parser.add_argument("file", help="program file, or - for stdin")
    parser.add_argument(
        "--qualifiers",
        default="const",
        help="comma-separated qualifier names (default: const)",
    )
    parser.add_argument(
        "--poly", action="store_true", help="enable qualifier polymorphism"
    )
    args = parser.parse_args(argv)

    names = [n.strip() for n in args.qualifiers.split(",") if n.strip()]
    try:
        language = _language(names)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        expr = parse(_read(args.file))
    except OSError as exc:
        print(f"error: {args.file}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except (LexError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "derive":
        from .derivation import derive, verify

        try:
            tree = derive(expr, language, polymorphic=args.poly)
            verify(tree, language.lattice)
        except QualTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(tree)
        return 0

    if args.command == "check":
        try:
            result = infer(expr, language, polymorphic=args.poly)
        except QualTypeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"type: {result.least_qtype()}")
        print(f"constraints: {len(result.constraints)}")
        if result.let_schemes:
            from ..qual.poly import minimize_scheme

            print("polymorphic bindings (simplified for presentation):")
            for scheme in result.let_schemes.values():
                print(f"  {minimize_scheme(scheme, language.lattice)}")
        return 0

    evaluator = Evaluator(language.lattice)
    if args.command == "trace":
        try:
            for step_index, (config, store) in enumerate(evaluator.trace(expr)):
                print(f"[{step_index:4}] store={len(store)} cells  {config}")
        except StuckError as exc:
            print(f"stuck: {exc}", file=sys.stderr)
            return 1
        return 0

    try:
        value, store = evaluator.run(expr)
    except StuckError as exc:
        print(f"stuck: {exc}", file=sys.stderr)
        return 1
    print(f"value: {value}")
    print(f"store: {len(store)} cells")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
