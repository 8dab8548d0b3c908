"""Resident analysis state: one :class:`Session` per daemon process.

A session owns everything a request needs that a cold ``python -m
repro.checker`` run would have to rebuild from scratch:

* the **overlay** — in-memory file text pushed by ``didChange`` (unsaved
  editor buffers), consulted before disk everywhere;
* a **parse memo** — translation units keyed by (path, text digest), so
  an unchanged file is never re-parsed, whatever request shape asks;
* a long-lived :class:`~repro.constinfer.cache.AnalysisCache` handle
  whose in-memory LRU tier answers repeated lookups without disk — the
  diagnostics of an unchanged file come back without parse, constraint
  generation, solve, *or* I/O;
* the **whole-program plan** — after a ``--whole-program`` analysis, the
  TU dependence graph (:func:`repro.whole.engine.tu_dependence_graph`),
  so an edit can name exactly which units a re-link will re-analyse
  while every other unit's summary is served warm.

Analysis itself is *the same code path as the one-shot CLI*
(:func:`repro.checker.runner.analyze` + ``render_report``), so a
daemon response's ``report`` string is byte-identical to the stdout of
``python -m repro.checker`` over the same tree — the differential tests
and the CI replay hold the two against each other.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from typing import Any, Callable

from ..cfront.cparser import parse_c, parse_c_resilient
from ..cfront.cpp import is_directive_free
from ..checker.checks import DEFAULT_CHECKS, check_by_name
from ..checker.render import render_report
from ..checker.runner import analyze as run_analysis, parse_units
from ..constinfer.cache import AnalysisCache
from ..constinfer.fdg import FunctionDependenceGraph
from ..whole.engine import affected_units, tu_dependence_graph
from ..whole.linker import link_units
from .protocol import InvalidParams

#: The daemon's memory tier is its whole point — default far above the
#: one-shot handles' bound so a 40-TU corpus with per-file diagnostics,
#: parsed programs, and summaries stays fully resident.
SERVE_MEMORY_ENTRIES = 4096

_FORMATS = ("human", "json", "sarif")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _string_list(
    params: dict[str, Any], name: str, needed_by: str | None = None
) -> list[str]:
    """Request parameter ``name`` as a list of strings (a lone string is
    a one-element list).  With ``needed_by`` (the method's name) the
    parameter is required and must be non-empty; otherwise it defaults
    to ``[]``."""
    value = params.get(name, None if needed_by else [])
    if isinstance(value, str):
        value = [value]
    if (
        not isinstance(value, list)
        or (needed_by and not value)
        or not all(isinstance(v, str) for v in value)
    ):
        if needed_by:
            raise InvalidParams(
                f"{needed_by} needs {name!r}: a non-empty list of strings"
            )
        raise InvalidParams(f"{name!r} must be a list of strings")
    return value


class Session:
    """All resident state of one serving process."""

    def __init__(
        self,
        checks: tuple[str, ...] | None = None,
        cache_dir: str | None = None,
        memory_entries: int = SERVE_MEMORY_ENTRIES,
    ) -> None:
        self.check_names = (
            tuple(checks) if checks else tuple(c.name for c in DEFAULT_CHECKS)
        )
        for name in self.check_names:
            check_by_name(name)  # fail fast on typos
        # Without a configured directory the store is still wanted (the
        # memory tier fronts it; warm restarts just start cold): a
        # private temp dir that lives exactly as long as the session.
        self._tempdir: tempfile.TemporaryDirectory | None = None
        if cache_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="qlint-serve-")
            cache_dir = self._tempdir.name
        self.cache = AnalysisCache(cache_dir, memory_entries=memory_entries)

        self.overlay: dict[str, str] = {}
        self.versions: dict[str, int] = {}
        #: path -> (text sha256, parsed unit); consulted by reference,
        #: so an unchanged file parses exactly once per session.
        self._parse_memo: dict[str, tuple[str, Any]] = {}
        #: path -> (text sha256, include paths, ParseResult) — the
        #: resilient twin of the parse memo, shared by ``didChange``
        #: syntax probing and best-effort whole-program analyses.
        self._resilient_memo: dict[str, tuple[str, tuple[str, ...], Any]] = {}
        #: ``-I`` search paths from the most recent ``analyze`` request;
        #: ``didChange`` syntax probes resolve headers the same way the
        #: last analysis did.
        self._include_paths: tuple[str, ...] = ()
        #: path -> rendered finding dicts from the last analysis in
        #: which the file was clean; served when a later edit breaks
        #: the file, so resident diagnostics never vanish mid-typing.
        self._last_good: dict[str, list[dict[str, Any]]] = {}
        #: After a whole-program analyze: the TU dependence graph, for
        #: incremental invalidation.
        self._whole_plan: FunctionDependenceGraph | None = None

        self.started = time.monotonic()
        self.request_counts: dict[str, int] = {}
        self.error_count = 0
        self._parse_seconds = 0.0
        self._analyze_seconds = 0.0
        self._render_seconds = 0.0
        self._last_analyze_seconds = 0.0
        self._parsed_units = 0
        self._memo_hits = 0

    # -- resident parsing ----------------------------------------------
    def parse_unit(self, name: str, text: str) -> Any:
        """Parse one unit through the resident memo.

        The memo key is the text digest, so a ``didChange`` invalidates
        it implicitly — no explicit eviction to get wrong.
        """
        digest = _digest(text)
        memo = self._parse_memo.get(name)
        if memo is not None and memo[0] == digest:
            self._memo_hits += 1
            return memo[1]
        start = time.perf_counter()
        unit = parse_c(text, name)
        self._parse_seconds += time.perf_counter() - start
        self._parse_memo[name] = (digest, unit)
        self._parsed_units += 1
        return unit

    def parse_unit_resilient(self, name: str, text: str) -> Any:
        """Resilient parse through the memo: returns the
        :class:`~repro.cfront.cparser.ParseResult` for this exact text,
        parsing at most once per (path, digest)."""
        digest = _digest(text)
        memo = self._resilient_memo.get(name)
        if memo is not None and memo[0] == digest and memo[1] == self._include_paths:
            self._memo_hits += 1
            return memo[2]
        start = time.perf_counter()
        result = parse_c_resilient(text, name, include_paths=self._include_paths)
        self._parse_seconds += time.perf_counter() - start
        self._resilient_memo[name] = (digest, self._include_paths, result)
        self._parsed_units += 1
        return result

    # -- request handlers ----------------------------------------------
    def analyze(self, params: dict[str, Any]) -> dict[str, Any]:
        """Run the shared one-shot analysis over the session's view of
        the tree (overlay over disk) and render it exactly as the CLI
        would print it."""
        paths = _string_list(params, "paths", needed_by="analyze")
        fmt = params.get("format", "json")
        if fmt not in _FORMATS:
            raise InvalidParams(f"unknown format {fmt!r} (expected one of {_FORMATS})")
        checks = params.get("checks")
        if checks is not None:
            if not isinstance(checks, list) or not all(
                isinstance(c, str) for c in checks
            ):
                raise InvalidParams("'checks' must be a list of strings")
            for name in checks:
                try:
                    check_by_name(name)
                except Exception as exc:
                    raise InvalidParams(str(exc)) from exc
        whole = bool(params.get("whole_program", False))
        best_effort = bool(params.get("best_effort", False))
        include_paths = _string_list(params, "include_paths")
        # Remembered session-wide: didChange syntax probes resolve
        # headers exactly as the most recent analysis did.
        self._include_paths = tuple(include_paths)
        show_suppressed = bool(params.get("show_suppressed", False))
        src_root = params.get("src_root")
        if src_root is not None and not isinstance(src_root, str):
            raise InvalidParams("'src_root' must be a string")

        if best_effort:
            parse_unit = self.parse_unit_resilient if whole else None
        else:
            parse_unit = self.parse_unit
        parse_before = self._parse_seconds
        start = time.perf_counter()
        report = run_analysis(
            paths,
            checks=tuple(checks) if checks else self.check_names,
            whole_program=whole,
            sources=self.overlay,
            cache=self.cache,
            parse_unit=parse_unit,
            best_effort=best_effort,
            include_paths=self._include_paths,
        )
        analyzed = time.perf_counter()
        rendered = render_report(
            report,
            format=fmt,
            show_suppressed=show_suppressed,
            src_root=src_root,
        )
        end = time.perf_counter()
        self._charge(parse_before, start, analyzed, end)
        self._last_analyze_seconds = end - start

        if whole:
            self._whole_plan = self._build_whole_plan(report.sources, parse_unit)

        # Remember each clean file's findings so a later edit that breaks
        # the file can still serve resident diagnostics (see didChange).
        for file in report.files:
            if file in report.errors:
                continue
            if report.unit_status.get(file, "ok") != "ok":
                continue
            self._last_good[file] = [
                d.to_dict() for d in report.diagnostics if d.span.file == file
            ]

        out: dict[str, Any] = {
            "report": rendered,
            "format": fmt,
            "exit_code": report.exit_code,
            "summary": report.summary(),
            "files": report.files,
            "errors": report.errors,
            "cache_hits": report.cache_hits,
            "cache_misses": report.cache_misses,
            "elapsed_ms": round((end - start) * 1000, 3),
        }
        if any(status != "ok" for status in report.unit_status.values()):
            # Best-effort degradations only — absent on strict runs and on
            # clean best-effort corpora, so existing golden transcripts
            # stay byte-stable.
            out["units"] = {
                f: s for f, s in sorted(report.unit_status.items()) if s != "ok"
            }
        return out

    def suggest(self, params: dict[str, Any]) -> dict[str, Any]:
        """Annotation-suggestion mode over the session's view of the
        tree (overlay over disk).  Rendering goes through the same
        :mod:`repro.checker.suggest` renderers as ``qlint suggest``, so
        a daemon response's ``report`` string is byte-identical to the
        one-shot CLI's stdout over the same files."""
        from ..checker.suggest import (
            render_suggestions_human,
            render_suggestions_json,
            suggest_paths,
            suggest_paths_whole,
        )

        paths = _string_list(params, "paths", needed_by="suggest")
        fmt = params.get("format", "human")
        if fmt not in ("human", "json"):
            raise InvalidParams(
                f"unknown format {fmt!r} (expected 'human' or 'json')"
            )
        top = params.get("top", 3)
        if not isinstance(top, int) or top < 1:
            raise InvalidParams("'top' must be a positive integer")
        include_paths = _string_list(params, "include_paths")
        whole = bool(params.get("whole_program", False))
        # Resilient probes (didChange) resolve headers with the session's
        # remembered -I paths; keep the memo keys consistent with them.
        self._include_paths = tuple(include_paths)

        parse_before = self._parse_seconds
        start = time.perf_counter()
        # The paths go to the one source loader as given, so files come
        # from the overlay-aware discovery that analyze uses too.  Both
        # modes take the CLI's shared path with the session's overlay and
        # resilient parse memo threaded in.
        shared = dict(
            include_paths=tuple(include_paths),
            top=top,
            sources=self.overlay,
            parse_unit=self.parse_unit_resilient,
        )
        if whole:
            # The ownership cache is keyed by dependency-closure source
            # digests, so a didChange on one unit re-links exactly its
            # dependents.
            files, suggestions, errors = suggest_paths_whole(
                paths, cache=self.cache, **shared
            )
        else:
            files, suggestions, errors = suggest_paths(paths, **shared)
        analyzed = time.perf_counter()
        if fmt == "json":
            rendered = render_suggestions_json(suggestions)
        else:
            rendered = render_suggestions_human(suggestions)
        end = time.perf_counter()
        self._charge(parse_before, start, analyzed, end)
        return {
            "report": rendered,
            "format": fmt,
            "suggestions": [s.to_dict() for s in suggestions],
            "files": files,
            "errors": errors,
            "exit_code": 1 if errors else 0,
            "elapsed_ms": round((end - start) * 1000, 3),
        }

    def did_change(self, params: dict[str, Any]) -> dict[str, Any]:
        """Install (or with ``text: null`` revert) one file's overlay
        text.  Names the units the edit invalidates for the last
        whole-program analysis, per the resident dependence graph."""
        file = params.get("file")
        if not isinstance(file, str) or not file:
            raise InvalidParams("didChange needs 'file': a non-empty string")
        text = params.get("text")
        if text is not None and not isinstance(text, str):
            raise InvalidParams("'text' must be a string or null")

        if text is None:
            self.overlay.pop(file, None)
        else:
            self.overlay[file] = text
        version = self.versions.get(file, 0) + 1
        self.versions[file] = version

        invalidated: list[str] | None = None
        plan = self._whole_plan
        if plan is not None and file in plan.vertices:
            invalidated = list(affected_units(plan, {file}))
        out: dict[str, Any] = {
            "ok": True,
            "file": file,
            "version": version,
            "overlay": text is not None,
        }
        if invalidated is not None:
            out["invalidated_units"] = invalidated
        if text is not None:
            # Probe the new text with the resilient parser.  When the edit
            # no longer parses, the response carries the parse diagnostics
            # *and* the file's last-good qualifier findings, so resident
            # state survives mid-typing syntax errors.  Clean edits add no
            # keys — the existing golden transcripts stay byte-stable.
            result = self.parse_unit_resilient(file, text)
            if not result.diagnostics and is_directive_free(text):
                # Without directives or diagnostics the resilient parse is
                # the strict one, so the next analyze need not parse again.
                self._parse_memo[file] = (_digest(text), result.unit)
            errors = result.errors
            if errors:
                out["parse_diagnostics"] = [
                    {
                        "file": d.file,
                        "line": d.line,
                        "column": d.column,
                        "severity": d.severity,
                        "message": d.describe(),
                    }
                    for d in result.diagnostics
                ]
                out["last_good"] = self._last_good.get(file, [])
        return out

    def stats(self, params: dict[str, Any]) -> dict[str, Any]:
        """Counters and resident-state shape: cache tiers, memo sizes,
        request counts, and the accumulated stage timings — parse (every
        parse through the session's memos), analyze (the rest of each
        analysis) and render, which are disjoint."""
        totals_ms = {
            "parse": round(self._parse_seconds * 1000, 3),
            "analyze": round(self._analyze_seconds * 1000, 3),
            "render": round(self._render_seconds * 1000, 3),
        }
        cache = self.cache.stats
        return {
            "uptime_ms": round((time.monotonic() - self.started) * 1000, 1),
            "checks": list(self.check_names),
            "requests": dict(sorted(self.request_counts.items())),
            "errors": self.error_count,
            "cache": {
                "root": str(self.cache.root),
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
                "memory_hits": cache.memory_hits,
                "memory_entries": len(self.cache.memory),
                "memory_limit": self.cache.memory.maxsize,
            },
            "resident": {
                "overlay_files": len(self.overlay),
                "parsed_units": len(self._parse_memo),
                "resilient_units": len(self._resilient_memo),
                "parse_memo_hits": self._memo_hits,
                "whole_plan_units": (
                    len(self._whole_plan.vertices)
                    if self._whole_plan is not None
                    else 0
                ),
            },
            "stage_totals_ms": totals_ms,
            "stage_timings": ", ".join(
                f"{stage} {ms:.1f} ms" for stage, ms in totals_ms.items()
            ),
            "last_analyze_ms": round(self._last_analyze_seconds * 1000, 3),
        }

    # -- internals ------------------------------------------------------
    def _charge(
        self, parse_before: float, start: float, analyzed: float, end: float
    ) -> None:
        """Split one request's wall time into analysis and render.  Memo
        parses inside the analysis were already charged to parse, so the
        three stage totals are disjoint."""
        self._analyze_seconds += analyzed - start - (self._parse_seconds - parse_before)
        self._render_seconds += end - analyzed

    def _build_whole_plan(
        self, sources: dict[str, str], parse_unit: Callable[[str, str], Any]
    ) -> FunctionDependenceGraph | None:
        """Link the analysed text of every unit and snapshot its TU
        dependence graph, or ``None`` if linking fails.  ``parse_unit``
        is the memo the analysis parsed through, so every unit comes
        back from the memo and the plan links the same parses the
        analysis did."""
        units = [
            getattr(unit, "unit", unit)  # a resilient parse's salvaged unit
            for _, unit, error in parse_units(sources, parse_unit=parse_unit)
            if error is None  # unparseable units are linked around, as in the runner
        ]
        try:
            return tu_dependence_graph(link_units(units, sources=sources))
        except Exception:
            return None

    def close(self) -> None:
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None
