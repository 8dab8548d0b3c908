"""Annotation suggestion mode: ``qlint suggest``.

The paper's closing argument is that inference exists to *relieve the
programmer of writing annotations*.  This mode closes the loop: run the
same inference the checks use, then turn the least solution back into
ranked, per-declaration qualifier suggestions a maintainer could paste
into the source (or feed to the whole-program annotator).

Two inference passes feed it:

* the shared flow-insensitive pass (:class:`CheckerInference`) supplies
  value qualifiers — ``tainted`` and ``dynamic`` — read off the least
  solution of each declaration's qualifier variables;
* the flow-sensitive linearity pack (:mod:`repro.flowsens.linear`)
  supplies ``alloc`` for declarations observed holding an allocation
  they are responsible for.

Each suggestion carries a **confidence** in ``(0, 1]`` computed from
cheap, monotone feature heuristics:

* *flow-path length* — the shortest constraint path from a seed to the
  declaration; short paths (direct assignment from ``getenv``) are
  trustworthy, long chains through merges are diluted;
* *fan-in* — how many constraints flow into the declaration's
  variables; high fan-in means many unrelated writers, so the inferred
  qualifier may be an artifact of one rare path;
* *cast proximity* — casts in the declaring function launder qualifiers
  past the type system, so every cast discounts the evidence.

Rankings are deterministic: ties break on qualifier name, and the
output order is (file, line, col, declaration).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional

from ..cfront.cast import Cast, DeclStmt, ForStmt, FuncDef, VarDecl
from ..cfront.sema import Program, expressions_of, statements
from ..constinfer.analysis import TranslatedType
from ..constinfer.engine import generate_mono
from ..qual.lattice import QualifierLattice
from ..qual.qtypes import QualVar, quals_of
from ..qual.solver import (
    Solution,
    UnsatisfiableError,
    shortest_flow_path,
    solve,
)


@dataclass(frozen=True)
class Suggestion:
    """One ranked qualifier suggestion for one declaration."""

    file: str
    line: int
    col: int
    function: str
    #: declaration name; for ``kind == "return"`` the function's name
    name: str
    kind: str  # "param" | "local" | "return"
    qualifier: str
    confidence: float
    path_length: int
    fan_in: int
    casts: int

    def to_dict(self) -> dict[str, object]:
        return {
            "file": self.file,
            "line": self.line,
            "col": self.col,
            "function": self.function,
            "name": self.name,
            "kind": self.kind,
            "qualifier": self.qualifier,
            "confidence": self.confidence,
            "features": {
                "pathLength": self.path_length,
                "fanIn": self.fan_in,
                "casts": self.casts,
            },
        }


#: value qualifiers the suggestion mode reads off the least solution
_VALUE_QUALIFIERS = ("tainted", "dynamic")


def confidence(
    path_length: int, fan_in: int, casts: int, escapes: int = 0
) -> float:
    """Feature-heuristic confidence in ``(0, 1]``; monotone decreasing
    in every feature, 1.0 for a direct single-writer, cast-free flow.

    ``escapes`` counts the declaring function's residual unknown-callee
    havocs: each one is a door the resource could have left through
    that the analysis could not see, so it discounts the evidence.
    Ownership summaries (whole-program mode) resolve call sites and
    lower this count — the same declaration gains confidence when its
    callees are summarised."""
    path_factor = 1.0 / (1.0 + 0.25 * max(0, path_length - 1))
    fan_factor = 1.0 / (1.0 + 0.15 * max(0, fan_in - 1))
    cast_factor = 0.9 ** min(casts, 5)
    escape_factor = 0.93 ** min(escapes, 5)
    return round(path_factor * fan_factor * cast_factor * escape_factor, 4)


def _function_casts(fdef: FuncDef) -> int:
    n = 0
    for e in expressions_of(fdef.body):
        if isinstance(e, Cast):
            n += 1
    return n


def _local_decls(fdef: FuncDef) -> Iterator[VarDecl]:
    for s in statements(fdef.body):
        if isinstance(s, DeclStmt):
            yield from s.decls
        elif isinstance(s, ForStmt) and isinstance(s.init, DeclStmt):
            yield from s.init.decls


@dataclass(frozen=True)
class _Declaration:
    """One suggestion target: a cell plus where to print it."""

    function: str
    name: str
    kind: str
    file: str
    line: int
    col: int
    cell: Optional[TranslatedType]
    casts: int


def _declarations(program: Program, inference) -> list[_Declaration]:
    out: list[_Declaration] = []
    for fdef in program.functions.values():
        sig = inference.signatures.get(fdef.name)
        if sig is None:
            continue
        casts = _function_casts(fdef)
        for param, cell in zip(fdef.params, sig.params):
            if param.name is None:
                continue
            out.append(
                _Declaration(
                    function=fdef.name,
                    name=param.name,
                    kind="param",
                    file=fdef.file,
                    line=param.line,
                    col=param.col,
                    cell=cell,
                    casts=casts,
                )
            )
        for decl in _local_decls(fdef):
            cell = inference.recorded_cells.get(
                (decl.file, decl.line, decl.col)
            )
            out.append(
                _Declaration(
                    function=fdef.name,
                    name=decl.name,
                    kind="local",
                    file=fdef.file,
                    line=decl.line,
                    col=decl.col,
                    cell=cell,
                    casts=casts,
                )
            )
        out.append(
            _Declaration(
                function=fdef.name,
                name=fdef.name,
                kind="return",
                file=fdef.file,
                line=fdef.line,
                col=fdef.col,
                cell=sig.ret_cell,
                casts=casts,
            )
        )
    return out


def _value_suggestions(program: Program) -> list[Suggestion]:
    """Suggestions from the shared flow-insensitive inference."""
    from .checks import DEFAULT_CHECKS, lattice_for
    from .engine import CheckerInference, _seed_checks

    value_checks = tuple(
        c for c in DEFAULT_CHECKS if not c.syntactic_casts
    )
    lattice = lattice_for(value_checks)

    class _Recording(CheckerInference):
        def __init__(self, *args: object, **kwargs: object) -> None:
            super().__init__(*args, **kwargs)
            self.recorded_cells: dict[
                tuple[str | None, int, int], TranslatedType
            ] = {}

        def cell_for_type(self, ct, line=0, col=0, file=None):  # type: ignore[no-untyped-def]
            cell = super().cell_for_type(ct, line, col, file)
            key = (file or self._current_file, line, col)
            self.recorded_cells.setdefault(key, cell)
            return cell

    inference = _Recording(program, lattice)
    generate_mono(inference)
    _seed_checks(inference, value_checks)

    decls = _declarations(program, inference)
    extra: list[QualVar] = []
    for d in decls:
        if d.cell is not None:
            extra.extend(
                q for q in quals_of(d.cell.rvalue) if isinstance(q, QualVar)
            )
    try:
        solution = solve(inference.constraints, lattice, extra_vars=extra)
    except UnsatisfiableError:
        return []

    fan_in: dict[object, int] = {}
    for c in inference.constraints:
        fan_in[c.rhs] = fan_in.get(c.rhs, 0) + 1

    out: list[Suggestion] = []
    for d in decls:
        if d.cell is None:
            continue
        qvars = [
            q for q in quals_of(d.cell.rvalue) if isinstance(q, QualVar)
        ]
        if not qvars:
            continue
        for qualifier in _VALUE_QUALIFIERS:
            try:
                bound = lattice.top.without_qualifier(qualifier)
            except Exception:
                continue
            carriers = [
                q for q in qvars if solution.least_of(q).has(qualifier)
            ]
            if not carriers:
                continue
            best_path = _best_path(
                inference.constraints, lattice, carriers, bound
            )
            total_fan_in = sum(fan_in.get(q, 0) for q in carriers)
            out.append(
                Suggestion(
                    file=d.file,
                    line=d.line,
                    col=d.col,
                    function=d.function,
                    name=d.name,
                    kind=d.kind,
                    qualifier=qualifier,
                    confidence=confidence(best_path, total_fan_in, d.casts),
                    path_length=best_path,
                    fan_in=total_fan_in,
                    casts=d.casts,
                )
            )
    return out


def _best_path(
    constraints, lattice: QualifierLattice, carriers, bound
) -> int:
    best: int | None = None
    for q in carriers:
        path = shortest_flow_path(constraints, lattice, q, bound)
        if path is not None and (best is None or len(path) < best):
            best = len(path)
    return best if best is not None else 1


def _resource_suggestions(
    program: Program, ownership=None
) -> list[Suggestion]:
    """``alloc`` suggestions from the flow-sensitive linearity pack.

    ``ownership`` carries inferred callee summaries (whole-program
    mode): summarised call sites stop counting as escapes, so the same
    declaration's confidence rises when its callees are resolved."""
    from ..flowsens.linear import analyze_lowered
    from ..flowsens.lower import DEFAULT_POLICY, lower_function
    from ..qual.qualifiers import resource_lattice

    policy = DEFAULT_POLICY
    if ownership:
        from ..flowsens.ownership import with_summaries

        policy = with_summaries(DEFAULT_POLICY, ownership)
    out: list[Suggestion] = []
    lattice = resource_lattice()
    for fdef in program.functions.values():
        try:
            lowered = lower_function(fdef, lattice, policy)
            if lowered.unstructured:
                continue
            report = analyze_lowered(lowered, lattice)
        except Exception:
            continue
        casts = _function_casts(fdef)
        spans: dict[str, tuple[str, int, int]] = {}
        for param in fdef.params:
            if param.name:
                spans[param.name] = ("param", param.line, param.col)
        for decl in _local_decls(fdef):
            spans.setdefault(decl.name, ("local", decl.line, decl.col))
        for var, ev in sorted(report.evidence.items()):
            kind, line, col = spans.get(var, ("local", ev.line, ev.col))
            out.append(
                Suggestion(
                    file=fdef.file,
                    line=line,
                    col=col,
                    function=fdef.name,
                    name=var,
                    kind=kind,
                    qualifier=ev.qualifier,
                    confidence=confidence(
                        ev.path_length,
                        ev.fan_in,
                        casts,
                        lowered.escape_calls,
                    ),
                    path_length=ev.path_length,
                    fan_in=ev.fan_in,
                    casts=casts,
                )
            )
    return out


def suggest_program(
    program: Program, top: int = 3, *, ownership=None
) -> list[Suggestion]:
    """Ranked qualifier suggestions for every declaration in
    ``program``; at most ``top`` per declaration."""
    all_suggestions = _value_suggestions(program) + _resource_suggestions(
        program, ownership
    )
    grouped: dict[tuple[str, int, int, str], list[Suggestion]] = {}
    for s in all_suggestions:
        grouped.setdefault((s.file, s.line, s.col, s.name), []).append(s)
    out: list[Suggestion] = []
    for key in sorted(grouped):
        ranked = sorted(
            grouped[key], key=lambda s: (-s.confidence, s.qualifier)
        )
        # one suggestion per qualifier: keep the most confident
        seen: set[str] = set()
        unique = []
        for s in ranked:
            if s.qualifier in seen:
                continue
            seen.add(s.qualifier)
            unique.append(s)
        out.extend(unique[:top])
    return out


def suggest_source(
    source: str,
    filename: str = "<input>",
    include_paths: tuple[str, ...] = (),
    top: int = 3,
    parse_unit=None,
) -> list[Suggestion]:
    """Best-effort suggestions for one translation unit.
    ``parse_unit(filename, source)``, when given, replaces the stock
    resilient parser (the daemon passes its resident parse memo)."""
    from ..cfront.cparser import parse_c_resilient

    if parse_unit is None:
        result = parse_c_resilient(source, filename, include_paths=include_paths)
    else:
        result = parse_unit(filename, source)
    try:
        program = Program.from_units([result.unit])
    except Exception:
        return []
    try:
        return suggest_program(program, top=top)
    except Exception:
        return []


def suggest_paths(
    paths: list[str],
    include_paths: tuple[str, ...] = (),
    top: int = 3,
    sources=None,
    parse_unit=None,
) -> tuple[list[str], list[Suggestion], dict[str, str]]:
    """Suggestions for several files, concatenated in path order.

    Returns ``(files, suggestions, errors)``: ``files`` is what
    :func:`~repro.checker.runner.load_sources` discovered, and
    unreadable files land in ``errors`` instead of raising, mirroring
    the checker runner.  ``sources`` overlays in-memory text over the
    filesystem and ``parse_unit`` replaces the stock resilient parser,
    as in :func:`suggest_paths_whole`."""
    from .runner import load_sources

    files, texts, errors = load_sources(paths, sources)
    out: list[Suggestion] = []
    for name, text in texts.items():
        out.extend(
            suggest_source(
                text, name, include_paths=include_paths, top=top, parse_unit=parse_unit
            )
        )
    return files, out, errors


def suggest_paths_whole(
    paths: list[str],
    include_paths: tuple[str, ...] = (),
    top: int = 3,
    sources=None,
    cache=None,
    parse_unit=None,
) -> tuple[list[str], list[Suggestion], dict[str, str]]:
    """Whole-program suggestions: link every unit, infer ownership
    summaries bottom-up over the cross-TU call graph, and suggest over
    the merged program — so ``alloc`` confidence reflects resolved
    callees instead of discounting every cross-unit call as an escape.

    The daemon hooks mirror :func:`repro.checker.runner.check_whole_program`:
    ``sources`` overlays in-memory unit text, ``cache`` lends a
    long-lived :class:`~repro.constinfer.cache.AnalysisCache` for the
    per-unit ownership tier, and ``parse_unit`` replaces the stock
    resilient parser.  CLI and daemon both funnel through here, which
    is what makes their outputs byte-identical.  Returns ``(files,
    suggestions, errors)`` like :func:`suggest_paths`."""
    from ..whole.linker import link_units
    from .runner import load_sources, parse_units

    files, texts, errors = load_sources(paths, sources)
    out: list[Suggestion] = []
    units = []
    for name, parsed, error in parse_units(
        texts, best_effort=True, include_paths=include_paths, parse_unit=parse_unit
    ):
        if error is not None:
            errors[name] = error
            continue
        unit = getattr(parsed, "unit", parsed)
        if unit is not None:
            units.append(unit)

    try:
        linked = link_units(units, sources=texts)
    except Exception as exc:
        errors["<whole-program>"] = f"{type(exc).__name__}: {exc}"
        return files, out, errors
    try:
        from ..whole.ownership import ownership_for_linked

        ownership = ownership_for_linked(linked, cache=cache)
    except Exception:
        ownership = None
    try:
        out = suggest_program(linked.program, top=top, ownership=ownership)
    except Exception:
        out = []
    return files, out, errors


# ---------------------------------------------------------------------------
# Rendering (shared verbatim by CLI and daemon)
# ---------------------------------------------------------------------------


def render_suggestions_human(suggestions: list[Suggestion]) -> str:
    if not suggestions:
        return "no suggestions\n"
    lines: list[str] = []
    current: tuple[str, int, int, str] | None = None
    for s in suggestions:
        key = (s.file, s.line, s.col, s.name)
        if key != current:
            current = key
            where = f"{s.file}:{s.line}:{s.col}"
            lines.append(
                f"{where}: {s.kind} '{s.name}' in {s.function}()"
            )
        lines.append(
            f"    {s.qualifier:<10} confidence {s.confidence:.4f}  "
            f"(path {s.path_length}, fan-in {s.fan_in}, "
            f"casts {s.casts})"
        )
    lines.append("")
    lines.append(f"{len(suggestions)} suggestion(s)")
    return "\n".join(lines) + "\n"


def render_suggestions_json(suggestions: list[Suggestion]) -> str:
    payload = {
        "version": 1,
        "suggestions": [s.to_dict() for s in suggestions],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
