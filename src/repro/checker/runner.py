"""The qlint batch runner: walk a tree of ``.c`` files, check each
translation unit, and assemble one report.

Per-file results are memoised in the same content-addressed store the
inference pipeline uses (:mod:`repro.constinfer.cache`): the key covers
the file's text, the enabled check set, and a fingerprint of the
analyser's own code (the ``checker`` package included), so a warm run
deserialises finished diagnostics and skips parse, constraint
generation, and solve entirely.

Fingerprints and suppressions are applied in the worker — it holds the
source text — while baseline comparison happens once in the
coordinator.  With ``jobs > 1`` files are distributed over a process
pool; results are ordered by sorted path either way, so the report is
deterministic at any job count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from ..constinfer.cache import AnalysisCache
from .checks import DEFAULT_CHECKS, QualifierCheck, check_by_name, config_digest
from .diagnostics import (
    Baseline,
    Diagnostic,
    apply_suppressions,
    assign_fingerprints,
)

#: Cache entry kind for finished per-file diagnostic lists.
CACHE_KIND = "qlint-diagnostics"

#: Cache entry kind for finished whole-program diagnostic lists.
WHOLE_CACHE_KIND = "qlint-whole"


@dataclass
class CheckerReport:
    """Everything one batch run produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    #: file -> error string for units that failed to parse/analyse.
    errors: dict[str, str] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    #: Findings not in the baseline / baselined fingerprints no longer
    #: reported (both empty when no baseline was given).
    new_findings: list[Diagnostic] = field(default_factory=list)
    lost_fingerprints: set[str] = field(default_factory=set)
    #: Best-effort runs only: file -> "ok" | "partial" | "skipped".
    #: ``partial`` units were analysed on their recovered declaration
    #: subset; ``skipped`` units contributed nothing but their parse
    #: diagnostics.  Strict runs leave this empty.
    unit_status: dict[str, str] = field(default_factory=dict)
    #: Best-effort runs only: file -> number of function definitions
    #: that were actually analysed (the recovered-function numerator).
    functions: dict[str, int] = field(default_factory=dict)
    #: file -> the text the analysis read (overlay or disk); human-format
    #: excerpts are rendered from it, so they show what was analysed.
    sources: dict[str, str] = field(default_factory=dict)

    @property
    def active(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if not d.suppressed]

    @property
    def exit_code(self) -> int:
        """1 when unsuppressed errors (or baseline drift) remain."""
        if self.errors or self.new_findings or self.lost_fingerprints:
            return 1
        return 1 if any(d.severity == "error" for d in self.active) else 0

    def summary(self) -> str:
        active = self.active
        suppressed = len(self.diagnostics) - len(active)
        parts = [
            f"{len(self.files)} file(s)",
            f"{len(active)} finding(s)",
            f"{suppressed} suppressed",
        ]
        if self.errors:
            parts.append(f"{len(self.errors)} error(s)")
        partial = sum(1 for s in self.unit_status.values() if s == "partial")
        skipped = sum(1 for s in self.unit_status.values() if s == "skipped")
        if partial or skipped:
            parts.append(f"{partial} partial / {skipped} skipped unit(s)")
        if self.cache_hits or self.cache_misses:
            parts.append(f"cache {self.cache_hits} hit(s) / {self.cache_misses} miss(es)")
        return ", ".join(parts)


def discover_files(
    paths: Iterable[str | Path], extra: Iterable[str] = ()
) -> list[Path]:
    """Explicit files plus every ``*.c`` under directories, sorted.

    ``extra`` names files that exist only as in-memory overlay text (an
    editor buffer not yet saved): any of them lying under a listed
    directory joins the set even though the filesystem has no entry.
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.update(path.rglob("*.c"))
            for name in extra:
                candidate = Path(name)
                if candidate.suffix == ".c" and candidate.is_relative_to(path):
                    out.add(candidate)
        else:
            out.add(path)
    return sorted(out)


def load_sources(
    paths: Iterable[str | Path], overlay: Mapping[str, str] | None = None
) -> tuple[list[str], dict[str, str], dict[str, str]]:
    """The one reader of C source text: ``(files, sources, errors)``.

    ``files`` is :func:`discover_files` over ``paths`` (overlay-only
    files under a listed directory included).  ``sources`` maps each
    readable file to its text — the overlay's when it has the file,
    else the disk's, decoded as UTF-8 with undecodable bytes replaced,
    so a stray Latin-1 byte never fails a unit.  ``errors`` maps each
    unreadable file to its ``OSError`` text.  Both dicts follow
    ``files`` order.
    """
    files = discover_files(paths, extra=overlay or ())
    sources: dict[str, str] = {}
    errors: dict[str, str] = {}
    for path in files:
        name = str(path)
        text = overlay.get(name) if overlay is not None else None
        if text is None:
            try:
                text = path.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                errors[name] = str(exc)
                continue
        sources[name] = text
    return [str(path) for path in files], sources, errors


def _cache_options(
    check_names: tuple[str, ...],
    best_effort: bool = False,
    include_paths: tuple[str, ...] = (),
) -> dict:
    """The cache-key options for one run's check configuration: the
    enabled names *and* a digest of their full rule sets, so editing a
    check's sources/sinks invalidates cached diagnostics.  Best-effort
    runs key separately (their statuses and function counts differ, and
    the include path list changes what an ``#include`` resolves to).
    """
    options = {
        "checks": ",".join(check_names),
        "config": config_digest(check_names),
    }
    if best_effort:
        options["ingest"] = "best-effort"
        options["include_paths"] = "\x00".join(include_paths)
    return options


def _cached_payload(cached: object, status_type: type, count_type: type):
    """A checker cache entry's ``(diagnostics, status, functions)``
    tuple, or ``None`` when the entry has any other shape — which the
    caller treats as a miss and overwrites.  Per-file entries hold a
    status string and a function count, whole-program entries per-unit
    dicts of both; strict runs store ``ok``/0 (per-file) or empty dicts.
    """
    if (
        isinstance(cached, tuple)
        and len(cached) == 3
        and isinstance(cached[0], list)
        and isinstance(cached[1], status_type)
        and isinstance(cached[2], count_type)
    ):
        return cached
    return None


def check_one_source(
    source: str,
    path_text: str,
    check_names: tuple[str, ...],
    cache: AnalysisCache | None,
    cache_options: dict | None,
    best_effort: bool = False,
    include_paths: tuple[str, ...] = (),
    parse_unit: Callable[[str, str], object] | None = None,
) -> tuple[list[Diagnostic], str | None, bool, str, int]:
    """Check one unit's text: the shared per-file core of the batch
    runner and the ``repro.serve`` daemon.  Returns (diagnostics —
    fingerprinted and suppression-marked, error, from_cache, status,
    analysed-function count).  ``parse_unit`` replaces the strict
    parser (best-effort mode keeps its own), as in
    :func:`check_whole_program`.  ``cache_options`` keys ``cache``: the
    run's :func:`_cache_options`, which the caller builds once per run,
    not once per unit.

    Strict mode (the default) raises nothing but reports a parse/sema
    failure as ``error`` with no diagnostics — the seed behaviour.
    Best-effort mode never reports ``error`` for bad *content*: the
    front end recovers what it can, problems come back as parse-error/
    preprocessor diagnostics, and ``status`` says how much of the unit
    survived (``ok`` / ``partial`` / ``skipped``).
    """
    from .engine import check_source, check_source_resilient  # deferred: keep worker import light

    key = None
    if cache is not None:
        key = cache.key(CACHE_KIND, source=source, options=cache_options)
        cached = _cached_payload(cache.get(key), str, int)
        if cached is not None:
            diagnostics, status, functions = cached
            return diagnostics, None, True, status, functions

    checks = tuple(check_by_name(name) for name in check_names)
    status = "ok"
    functions = 0
    if best_effort:
        diagnostics, status, functions = check_source_resilient(
            source, filename=path_text, checks=checks, include_paths=include_paths
        )
    else:
        try:
            diagnostics = check_source(
                source, filename=path_text, checks=checks, parse_unit=parse_unit
            )
        except Exception as exc:  # a bad input file must not kill the batch
            return [], f"{type(exc).__name__}: {exc}", False, "skipped", 0

    sources = {path_text: source}
    diagnostics = assign_fingerprints(diagnostics, sources)
    diagnostics = apply_suppressions(diagnostics, sources)
    if cache is not None and key is not None:
        cache.put(key, (diagnostics, status, functions))
    return diagnostics, None, False, status, functions


def _check_one(
    source: str,
    path_text: str,
    check_names: tuple[str, ...],
    cache_dir: str | None,
    best_effort: bool,
    include_paths: tuple[str, ...],
    cache_options: dict | None,
) -> tuple[list[Diagnostic], str | None, bool, str, int]:
    """Worker: :func:`check_one_source` with a cache opened from its
    directory.  Top-level so it pickles into a process pool."""
    cache = AnalysisCache(cache_dir) if cache_dir else None
    return check_one_source(
        source, path_text, check_names, cache, cache_options, best_effort, include_paths
    )


def check_paths(
    paths: Sequence[str | Path],
    checks: Sequence[QualifierCheck | str] = DEFAULT_CHECKS,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    baseline: Baseline | None = None,
    sources: Mapping[str, str] | None = None,
    cache: AnalysisCache | None = None,
    best_effort: bool = False,
    include_paths: Sequence[str] = (),
    parse_unit: Callable[[str, str], object] | None = None,
) -> CheckerReport:
    """Check every ``.c`` file reachable from ``paths``.

    ``sources`` overlays in-memory text over the filesystem (the daemon's
    unsaved editor buffers): a file whose path appears there is checked
    from that text without touching disk.  ``cache`` lends an existing
    :class:`AnalysisCache` handle — its in-memory tier then persists
    across calls — and takes precedence over ``cache_dir``; a shared
    handle implies the serial path (its memory tier cannot span
    processes).  ``parse_unit`` — a ``(name, text) -> TranslationUnit``
    callable, strict mode only — replaces the stock parser so a resident
    parse memo can serve the unit a cache miss re-analyses; it implies
    the serial path too.  Files are read once, by :func:`load_sources`
    here in the coordinator; pool workers receive the text.

    ``best_effort`` turns on resilient ingestion: the preprocessor runs
    (``include_paths`` searched for ``#include``), parse errors recover
    instead of failing the file, and the report carries per-unit
    ``unit_status`` / analysed-function counts.
    """
    check_names = tuple(
        c if isinstance(c, str) else c.name for c in checks
    )
    for name in check_names:
        check_by_name(name)  # fail fast on typos
    files, texts, unreadable = load_sources(paths, sources)
    cache_text = str(cache_dir) if cache_dir is not None else None
    include_tuple = tuple(str(p) for p in include_paths)
    # One config digest per run, not per unit; never memoised across
    # runs, so a rule edited between runs still changes the key.
    cache_options = (
        _cache_options(check_names, best_effort, include_tuple)
        if cache is not None or cache_text is not None
        else None
    )

    report = CheckerReport(files=files, sources=texts)
    names = list(texts)
    if jobs > 1 and len(names) > 1 and cache is None and parse_unit is None:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(
                    _check_one,
                    texts.values(),
                    names,
                    repeat(check_names),
                    repeat(cache_text),
                    repeat(best_effort),
                    repeat(include_tuple),
                    repeat(cache_options),
                )
            )
    else:
        if cache is None and cache_text is not None:
            cache = AnalysisCache(cache_text)
        results = [
            check_one_source(
                texts[name],
                name,
                check_names,
                cache,
                cache_options,
                best_effort,
                include_tuple,
                parse_unit,
            )
            for name in names
        ]
    by_file = dict(zip(names, results))
    by_file.update(
        (name, ([], error, False, "skipped", 0)) for name, error in unreadable.items()
    )

    for path_text in files:
        diagnostics, error, from_cache, status, functions = by_file[path_text]
        if error is not None:
            report.errors[path_text] = error
        report.diagnostics.extend(diagnostics)
        if best_effort:
            report.unit_status[path_text] = status
            report.functions[path_text] = functions
        if from_cache:
            report.cache_hits += 1
        else:
            report.cache_misses += 1

    if baseline is not None:
        report.new_findings, report.lost_fingerprints = baseline.compare(
            report.diagnostics
        )
    return report


def analyze(
    paths: Sequence[str | Path],
    *,
    checks: Sequence[QualifierCheck | str] = DEFAULT_CHECKS,
    whole_program: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    baseline: Baseline | None = None,
    sources: Mapping[str, str] | None = None,
    cache: AnalysisCache | None = None,
    parse_unit: Callable[[str, str], object] | None = None,
    best_effort: bool = False,
    include_paths: Sequence[str] = (),
) -> CheckerReport:
    """The one-shot analysis entry point: per-file batch or linked
    whole-program, selected by ``whole_program``.

    Both the CLI (``python -m repro.checker``) and the resident daemon
    (``python -m repro.serve``) call exactly this function, so for the
    same inputs they produce the same :class:`CheckerReport` — and, via
    :func:`repro.checker.render.render_report`, byte-identical output.

    ``best_effort`` selects resilient ingestion (preprocessing, parser
    recovery, partial analysis) in either mode.
    """
    if whole_program:
        return check_whole_program(
            paths,
            checks=checks,
            jobs=jobs,
            cache_dir=cache_dir,
            baseline=baseline,
            sources=sources,
            cache=cache,
            parse_unit=parse_unit,
            best_effort=best_effort,
            include_paths=include_paths,
        )
    return check_paths(
        paths,
        checks=checks,
        jobs=jobs,
        cache_dir=cache_dir,
        baseline=baseline,
        sources=sources,
        cache=cache,
        best_effort=best_effort,
        include_paths=include_paths,
        parse_unit=parse_unit,
    )


def _parse_one_unit(
    name: str, text: str, best_effort: bool, include_paths: tuple[str, ...]
):
    """Worker: parse one named source — ``parse_c`` when strict,
    ``parse_c_resilient`` (a ``ParseResult``) under ``best_effort``.
    Returns (name, unit-or-ParseResult-or-None, error).  Top-level so it
    pickles into a pool."""
    from ..cfront.cparser import parse_c, parse_c_resilient

    try:
        if best_effort:
            return name, parse_c_resilient(text, name, include_paths=include_paths), None
        return name, parse_c(text, name), None
    except Exception as exc:  # one bad unit must never kill the batch
        return name, None, f"{type(exc).__name__}: {exc}"


def parse_units(
    sources: Mapping[str, str],
    best_effort: bool = False,
    include_paths: tuple[str, ...] = (),
    jobs: int = 1,
    parse_unit: Callable[[str, str], object] | None = None,
) -> list[tuple[str, object, str | None]]:
    """Parse every unit of ``sources`` in name order: the one parse step
    of whole-program checking, whole-program suggestions and the
    daemon's whole-program plan.  Returns ``(name, unit, error)``
    triples as :func:`_parse_one_unit` does, over a process pool when
    ``jobs > 1``.  ``parse_unit`` — a ``(name, text)`` callable such as
    a resident parse memo — replaces the worker and implies the serial
    path."""
    names = sorted(sources)
    if parse_unit is not None:
        parsed = []
        for name in names:
            try:
                parsed.append((name, parse_unit(name, sources[name]), None))
            except Exception as exc:
                parsed.append((name, None, f"{type(exc).__name__}: {exc}"))
        return parsed
    args = (
        names,
        [sources[name] for name in names],
        repeat(best_effort),
        repeat(include_paths),
    )
    if jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_parse_one_unit, *args))
    return list(map(_parse_one_unit, *args))


def check_whole_program(
    paths: Sequence[str | Path],
    checks: Sequence[QualifierCheck | str] = DEFAULT_CHECKS,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    baseline: Baseline | None = None,
    sources: Mapping[str, str] | None = None,
    cache: AnalysisCache | None = None,
    parse_unit: Callable[[str, str], object] | None = None,
    best_effort: bool = False,
    include_paths: Sequence[str] = (),
) -> CheckerReport:
    """Link every ``.c`` file reachable from ``paths`` into one program
    and check it whole, so qualifier flows through ``extern`` symbols
    and cross-TU calls are visible and flow paths may span files.

    ``jobs`` parallelises the per-TU parse (:func:`parse_units`);
    linking and checking run once over the merged program, and
    diagnostics are deterministic at any job count.  A file that fails
    to parse is reported under ``errors`` and linked around
    (best-effort, like a real linker).  Results are memoised whole: the
    cache key covers every unit's name and text, the enabled check set,
    and the analyser code fingerprint.

    The daemon hooks: ``sources`` overlays in-memory unit text over the
    filesystem, ``cache`` lends a long-lived handle (memory tier and
    all), and ``parse_unit`` — a ``(name, text) -> TranslationUnit``
    callable (or ``-> ParseResult`` under ``best_effort``) — replaces
    the stock parser so a resident parse memo can serve unchanged
    units; it implies the serial path.

    With ``best_effort`` every unit parses resiliently: partial units
    link with whatever declarations they kept, wholly unusable units
    are linked around with status ``skipped``, and front-end findings
    join the linked program's diagnostics.
    """
    from .engine import (
        _sort_key,
        _unit_status,
        check_linked_program,
        parse_findings,
    )
    from ..cfront.cast import FuncDef, TranslationUnit
    from ..cfront.cparser import ParseResult
    from ..whole.linker import link_units

    check_names = tuple(c if isinstance(c, str) else c.name for c in checks)
    for name in check_names:
        check_by_name(name)  # fail fast on typos
    include_tuple = tuple(str(p) for p in include_paths)
    files, texts, unreadable = load_sources(paths, sources)

    report = CheckerReport(files=files, sources=texts, errors=dict(unreadable))
    if best_effort:
        for name in unreadable:
            report.unit_status[name] = "skipped"
            report.functions[name] = 0

    if cache is None and cache_dir is not None:
        cache = AnalysisCache(cache_dir)
    key = None
    if cache is not None:
        combined = "\x00".join(
            f"{name}\x01{texts[name]}" for name in sorted(texts)
        )
        key = cache.key(
            WHOLE_CACHE_KIND,
            source=combined,
            mode="whole",
            options=_cache_options(check_names, best_effort, include_tuple),
        )
        cached = _cached_payload(cache.get(key), dict, dict)
        if cached is not None:
            diagnostics, unit_status, functions = cached
            report.diagnostics = list(diagnostics)
            report.unit_status.update(unit_status)
            report.functions.update(functions)
            report.cache_hits = 1
            if baseline is not None:
                report.new_findings, report.lost_fingerprints = baseline.compare(
                    report.diagnostics
                )
            return report

    units = []
    front_findings: list[Diagnostic] = []
    for name, unit, error in parse_units(
        texts, best_effort, include_tuple, jobs, parse_unit
    ):
        if error is not None:
            report.errors[name] = error
            if best_effort:
                report.unit_status[name] = "skipped"
                report.functions[name] = 0
            continue
        if isinstance(unit, ParseResult):
            # Resilient parse (best-effort worker or the daemon memo):
            # keep the salvaged unit, surface its front-end findings.
            front_findings.extend(parse_findings(unit.diagnostics))
            if best_effort:
                report.unit_status[name] = _unit_status(unit)
                report.functions[name] = sum(
                    1 for item in unit.unit.items if isinstance(item, FuncDef)
                )
            unit = unit.unit
        elif best_effort and isinstance(unit, TranslationUnit):
            report.unit_status[name] = "ok"
            report.functions[name] = sum(
                1 for item in unit.items if isinstance(item, FuncDef)
            )
        if unit is not None:
            units.append(unit)

    try:
        linked = link_units(units, sources=texts)
        diagnostics = check_linked_program(
            linked,
            tuple(check_by_name(name) for name in check_names),
            cache=cache,
        )
    except Exception as exc:
        report.errors["<whole-program>"] = f"{type(exc).__name__}: {exc}"
        report.cache_misses = 1
        return report

    if front_findings:
        diagnostics = sorted(diagnostics + front_findings, key=_sort_key)
    diagnostics = assign_fingerprints(diagnostics, texts)
    diagnostics = apply_suppressions(diagnostics, texts)
    report.diagnostics = diagnostics
    report.cache_misses = 1
    if cache is not None and key is not None:
        cache.put(
            key, (diagnostics, dict(report.unit_status), dict(report.functions))
        )

    if baseline is not None:
        report.new_findings, report.lost_fingerprints = baseline.compare(
            report.diagnostics
        )
    return report
