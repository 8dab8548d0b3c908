"""Diagnostic renderers: human (carets + flow notes), JSON, SARIF 2.1.0.

All three consume the same :class:`~repro.checker.diagnostics.Diagnostic`
list; the renderers are pure functions of (diagnostics, sources) so the
runner can emit any format from one analysis pass.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path
from typing import Iterable, Mapping

from .checks import ALL_CHECKS
from .diagnostics import Diagnostic, Span

QLINT_VERSION = "1.0.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


# ---------------------------------------------------------------------------
# Human
# ---------------------------------------------------------------------------


def _source_excerpt(lines: list[str] | None, span: Span) -> list[str]:
    """The flagged line plus a caret marker, gcc-style; empty when the
    span or the source text is unavailable."""
    if lines is None or not span.is_valid:
        return []
    if span.line > len(lines):
        return []
    line = lines[span.line - 1]
    out = [f"    {line}"]
    if span.column > 0:
        out.append("    " + " " * (span.column - 1) + "^")
    return out


def render_human(
    diagnostics: Iterable[Diagnostic],
    sources: Mapping[str, str] | None = None,
    show_suppressed: bool = False,
) -> str:
    """Compiler-style report: one primary line per finding, the flagged
    source line with a caret, then the numbered qualifier-flow trace."""
    sources = sources or {}
    # each file split once per call, not once per excerpt
    split: dict[str, list[str] | None] = {}

    def lines_of(file: str) -> list[str] | None:
        if file not in split:
            text = sources.get(file)
            split[file] = None if text is None else text.splitlines()
        return split[file]

    blocks: list[str] = []
    for diag in diagnostics:
        if diag.suppressed and not show_suppressed:
            continue
        suffix = " (suppressed)" if diag.suppressed else ""
        lines = [f"{diag.span}: {diag.severity}: {diag.message} [{diag.check}]{suffix}"]
        lines += _source_excerpt(lines_of(diag.span.file), diag.span)
        if diag.flow:
            lines.append("  qualifier flow:")
            for index, step in enumerate(diag.flow, start=1):
                where = f" ({step.span})" if step.span.is_valid else ""
                lines.append(f"    {index}. {step.note}{where}")
                for excerpt in _source_excerpt(lines_of(step.span.file), step.span):
                    lines.append("  " + excerpt)
        blocks.append("\n".join(lines))
    if not blocks:
        return "qlint: no findings\n"
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def _dumps(value: object) -> str:
    """The text ``json.dumps`` writes with ``indent=2``, plus a newline,
    for the values the renderers build: dicts with ``str`` keys, lists,
    ``str``, ``int``, ``bool`` and ``None``.  Anything else, floats
    included, raises ``TypeError``.

    ``indent`` puts ``json.dumps`` on its pure-Python encoder, one
    generator per container.  This writer appends every piece to one
    list and escapes strings with the same C ``ensure_ascii`` encoder."""
    out: list[str] = []
    _write(value, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value: object, out: list[str], newline: str) -> None:
    """Append ``value`` to ``out``; ``newline`` is the line break plus the
    indentation of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(_encode_str(key))
            out.append(": ")
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, out, inner)
            separator = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )


def _json_payload(
    diagnostics: Iterable[Diagnostic],
    unit_status: Mapping[str, str] | None = None,
) -> dict:
    payload = {
        "tool": "qlint",
        "version": QLINT_VERSION,
        "diagnostics": [d.to_dict() for d in diagnostics],
    }
    if unit_status:
        # Best-effort ingestion only — inserted before serialisation so
        # key order stays deterministic, omitted entirely otherwise so
        # strict-mode output is byte-identical to the pre-ingestion tool.
        payload["units"] = {k: unit_status[k] for k in sorted(unit_status)}
    return payload


def render_json(
    diagnostics: Iterable[Diagnostic],
    unit_status: Mapping[str, str] | None = None,
) -> str:
    return _dumps(_json_payload(diagnostics, unit_status))


# ---------------------------------------------------------------------------
# SARIF 2.1.0
# ---------------------------------------------------------------------------

_SARIF_LEVELS = {"error": "error", "warning": "warning", "note": "note"}


def _relative_uri(file: str, root: Path | None) -> tuple[str, bool]:
    """(uri, is_relative): the file as a URI under the resolved source
    root when it lies inside it, else the file unchanged.  SARIF URIs
    always use forward slashes."""
    if root is not None:
        try:
            relative = Path(file).resolve().relative_to(root)
        except (ValueError, OSError):
            pass
        else:
            return relative.as_posix(), True
    return Path(file).as_posix(), False


def _sarif_location(
    span: Span, where: tuple[str, bool], note: str | None = None
) -> dict:
    region: dict = {"startLine": span.line}
    if span.column > 0:
        region["startColumn"] = span.column
    uri, is_relative = where
    artifact: dict = {"uri": uri}
    if is_relative:
        artifact["uriBaseId"] = "SRCROOT"
    location: dict = {
        "physicalLocation": {
            "artifactLocation": artifact,
            "region": region,
        }
    }
    if note is not None:
        location["message"] = {"text": note}
    return location


def _sarif_rules(diagnostics: list[Diagnostic]) -> list[dict]:
    """Rule metadata for every check that produced a finding, plus any
    registered check, so ruleIndex lookups stay stable."""
    described = {c.name: c for c in ALL_CHECKS}
    rules: list[dict] = []
    seen: set[str] = set()
    for name in list(described) + [d.check for d in diagnostics]:
        if name in seen:
            continue
        seen.add(name)
        check = described.get(name)
        rule: dict = {"id": name}
        if check is not None:
            rule["shortDescription"] = {"text": check.description}
            rule["defaultConfiguration"] = {
                "level": _SARIF_LEVELS.get(check.severity, "warning")
            }
        rules.append(rule)
    return rules


def _sarif_log(
    diagnostics: Iterable[Diagnostic],
    src_root: str | None = None,
    unit_status: Mapping[str, str] | None = None,
) -> dict:
    diagnostics = list(diagnostics)
    rules = _sarif_rules(diagnostics)
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    root = None if src_root is None else Path(src_root).resolve()
    # Each file's URI is resolved once per log.  Not across logs: the
    # daemon renders for trees that move or relink between requests.
    uris: dict[str, tuple[str, bool]] = {}

    def uri_of(file: str) -> tuple[str, bool]:
        where = uris.get(file)
        if where is None:
            where = uris[file] = _relative_uri(file, root)
        return where

    results = []
    for diag in diagnostics:
        result: dict = {
            "ruleId": diag.check,
            "ruleIndex": rule_index[diag.check],
            "level": _SARIF_LEVELS.get(diag.severity, "warning"),
            "message": {"text": diag.message},
        }
        if diag.span.is_valid:
            result["locations"] = [
                _sarif_location(diag.span, uri_of(diag.span.file))
            ]
        if diag.fingerprint:
            result["partialFingerprints"] = {"qlint/v1": diag.fingerprint}
        flow_locations = [
            {"location": _sarif_location(step.span, uri_of(step.span.file), step.note)}
            for step in diag.flow
            if step.span.is_valid
        ]
        if flow_locations:
            result["codeFlows"] = [
                {"threadFlows": [{"locations": flow_locations}]}
            ]
        if diag.suppressed:
            result["suppressions"] = [{"kind": "inSource"}]
        results.append(result)

    run: dict = {
        "tool": {
            "driver": {
                "name": "qlint",
                "version": QLINT_VERSION,
                "informationUri": "https://example.invalid/qlint",
                "rules": rules,
            }
        },
        "results": results,
    }
    if root is not None:
        uri = root.as_uri()
        run["originalUriBaseIds"] = {
            "SRCROOT": {"uri": uri if uri.endswith("/") else uri + "/"}
        }
    if unit_status:
        # Best-effort ingestion statuses, keyed by portable URI.  Absent
        # on strict runs (and on clean best-effort corpora) so those
        # SARIF logs stay byte-identical to the pre-ingestion tool's.
        run["properties"] = {
            "qlint/unitStatus": {
                uri_of(file)[0]: unit_status[file] for file in sorted(unit_status)
            }
        }
    return {
        "$schema": SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [run],
    }


def render_sarif(
    diagnostics: Iterable[Diagnostic],
    src_root: str | None = None,
    unit_status: Mapping[str, str] | None = None,
) -> str:
    """A SARIF 2.1.0 log: one run, one result per diagnostic, the
    qualifier-flow trace as a codeFlow/threadFlow, fingerprints under
    ``partialFingerprints``, suppressions as kind ``inSource``.

    With ``src_root``, artifact URIs for files under it are emitted
    repo-relative against a ``SRCROOT`` uriBase (declared in the run's
    ``originalUriBaseIds``), so logs are machine-portable: the same
    checkout analysed at two absolute paths produces byte-identical
    SARIF."""
    return _dumps(_sarif_log(diagnostics, src_root, unit_status))


def render_diagnostics(
    diagnostics: Iterable[Diagnostic],
    format: str = "human",
    sources: Mapping[str, str] | None = None,
    show_suppressed: bool = False,
    src_root: str | None = None,
    unit_status: Mapping[str, str] | None = None,
) -> str:
    if format == "human":
        return render_human(diagnostics, sources, show_suppressed=show_suppressed)
    if format == "json":
        return render_json(diagnostics, unit_status=unit_status)
    if format == "sarif":
        return render_sarif(diagnostics, src_root=src_root, unit_status=unit_status)
    raise ValueError(f"unknown format {format!r} (expected human, json, or sarif)")


def render_report(
    report,
    format: str = "human",
    show_suppressed: bool = False,
    src_root: str | None = None,
) -> str:
    """Render a :class:`~repro.checker.runner.CheckerReport` exactly the
    way the one-shot CLI prints it to stdout.

    This is the single rendering path shared by ``python -m
    repro.checker`` and the ``repro.serve`` daemon, so the two emit
    byte-identical reports for the same analysis: human and SARIF
    formats receive every diagnostic (SARIF marks suppressions
    in-band, the human renderer elides them itself), JSON elides
    suppressed findings unless ``show_suppressed``.

    Human output excerpts the flagged source lines from
    ``report.sources`` — the text the analysis read, overlay included.
    """
    # Unit statuses appear only when ingestion actually degraded a unit,
    # so strict runs and clean best-effort corpora render byte-identically
    # to the pre-ingestion tool.
    statuses = getattr(report, "unit_status", None) or {}
    degraded = {f: s for f, s in statuses.items() if s != "ok"}
    return render_diagnostics(
        report.diagnostics
        if format == "human" or format == "sarif"
        else [d for d in report.diagnostics if show_suppressed or not d.suppressed],
        format=format,
        sources=report.sources,
        show_suppressed=show_suppressed,
        src_root=src_root,
        unit_status=degraded or None,
    )
