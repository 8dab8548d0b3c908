"""Minimal C preprocessor for the resilient ingestion path.

Real C files arrive with their directives still in place; the strict
pipeline simply skips ``#`` lines (see :mod:`repro.cfront.clexer`), which
is fine for curated corpora but loses ``#include``-d declarations and
``#define``-d constants on anything from the wild.  This module covers
the subset that matters for corpus-scale qualifier analysis:

* ``#include "file"`` / ``#include <file>`` with include-path search,
  splicing, and cycle detection — an unresolvable include is a warning,
  not a failure (system headers are expected to be absent);
* object-like ``#define`` / ``#undef`` with redefinition warnings;
  function-like macros are diagnosed and skipped, never half-expanded;
* ``#ifdef`` / ``#ifndef`` / ``#if`` / ``#elif`` / ``#else`` / ``#endif``
  region skipping, with a deliberately small ``#if`` evaluator (integer
  arithmetic/comparison, ``defined``, undefined identifiers count as 0 —
  exactly the C rule); a condition beyond the subset is a warning and
  the region is kept, which is the conservative choice for analysis;
* ``#error`` surfaces as an error diagnostic; ``#pragma``/``#line`` and
  anything else unknown are dropped silently.

Every output line carries a line-map entry ``(file, line)`` pointing at
the original source, so downstream spans — including findings inside an
included header — report the header's own path and line.  When the input
contains no directives at all, :func:`preprocess` returns the text
untouched with ``line_map=None``: the clean-corpus fast path is
byte-identity by construction.

Known simplifications: a ``#`` at the start of a line inside a multi-line
comment is treated as a directive, and macro bodies are re-scanned a
bounded number of times instead of carrying hide sets.
"""

from __future__ import annotations

import os
import re
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .clexer import ParseDiagnostic

#: Maximum whole-line macro re-expansion passes (in lieu of hide sets).
_MAX_EXPANSION_PASSES = 8

#: Maximum include nesting depth (beyond cycle detection).
_MAX_INCLUDE_DEPTH = 32

_DIRECTIVE_RE = re.compile(r"^\s*#\s*([A-Za-z_]\w*)\s*(.*)$", re.DOTALL)
_IDENT_RE = re.compile(r"[A-Za-z_]\w*")
#: Identifier at a word start — the lookbehind keeps the ``x1F`` inside
#: ``0x1F`` from matching as an identifier.
_WORD_IDENT_RE = re.compile(r"(?<!\w)[A-Za-z_]\w*")
_DEFINE_RE = re.compile(r"^([A-Za-z_]\w*)(\(?)\s*(.*)$", re.DOTALL)
_INT_SUFFIX_RE = re.compile(r"\b(0[xX][0-9a-fA-F]+|\d+)[uUlL]+\b")
_DEFINED_RE = re.compile(r"\bdefined\s*(?:\(\s*([A-Za-z_]\w*)\s*\)|([A-Za-z_]\w*))")


@dataclass
class PreprocessResult:
    """Preprocessed text plus everything needed to trace it back.

    ``line_map`` has one ``(original file, original line)`` entry per
    line of ``text`` (1-based access via ``line_map[i - 1]``), or is
    ``None`` when the input had no directives and ``text`` is the input
    byte-for-byte.  ``includes`` lists every file spliced in, in splice
    order, recursively.
    """

    text: str
    line_map: Optional[list[tuple[str, int]]]
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)
    includes: list[str] = field(default_factory=list)


def _read_file(path: str) -> Optional[str]:
    try:
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            return handle.read()
    except OSError:
        return None


@dataclass
class _Cond:
    """One ``#if*`` frame: are we emitting, has any branch taken yet,
    and was the enclosing region itself active."""

    taking: bool
    taken_any: bool
    seen_else: bool
    parent_active: bool


def _strip_line_comments(text: str) -> str:
    """Drop ``//`` and single-line ``/* */`` comments from a directive
    body (macro bodies and conditions must not keep comment text)."""
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return text.split("//", 1)[0].strip()


def _expand_pass(
    text: str, macros: dict[str, str], in_comment: bool
) -> tuple[str, bool, bool]:
    """One macro-substitution scan over a line of ordinary text.

    Respects string/char literals and both comment styles; returns the
    rewritten line, whether anything changed, and the block-comment
    state at end of line (carried to the next line by the caller).
    """
    out: list[str] = []
    i = 0
    n = len(text)
    changed = False
    while i < n:
        ch = text[i]
        if in_comment:
            end = text.find("*/", i)
            if end == -1:
                out.append(text[i:])
                return "".join(out), changed, True
            out.append(text[i : end + 2])
            i = end + 2
            in_comment = False
            continue
        if ch == "/" and i + 1 < n and text[i + 1] == "/":
            out.append(text[i:])
            break
        if ch == "/" and i + 1 < n and text[i + 1] == "*":
            in_comment = True
            out.append(text[i : i + 2])
            i += 2
            continue
        if ch in "\"'":
            quote = ch
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            j = min(j + 1, n)
            out.append(text[i:j])
            i = j
            continue
        if ch.isalpha() or ch == "_":
            match = _IDENT_RE.match(text, i)
            assert match is not None
            word = match.group(0)
            # A preceding digit glues into a pp-number ("0x1F"): the
            # regex can't start there because \w ran through it.
            if word in macros and (i == 0 or not text[i - 1].isdigit()):
                out.append(macros[word])
                changed = True
            else:
                out.append(word)
            i = match.end()
            continue
        out.append(ch)
        i += 1
    return "".join(out), changed, in_comment


def _expand_line(
    text: str, macros: dict[str, str], in_comment: bool
) -> tuple[str, bool]:
    """Expand object-like macros in one line, bounded re-scanning."""
    for _ in range(_MAX_EXPANSION_PASSES):
        new_text, changed, end_state = _expand_pass(text, macros, in_comment)
        if not changed:
            return new_text, end_state
        text = new_text
    # Last pass just to settle the comment state of the final text.
    final, _changed, end_state = _expand_pass(text, macros, in_comment)
    return final, end_state


def _eval_condition(expr: str, macros: dict[str, str]) -> Optional[bool]:
    """Evaluate a ``#if`` condition under the minimal subset.

    Returns ``None`` when the expression falls outside the subset, so
    the caller can warn and keep the region (conservative for
    analysis: better to look at too much code than too little).
    """
    expr = _strip_line_comments(expr)
    if not expr:
        return None

    def _defined(match: re.Match[str]) -> str:
        name = match.group(1) or match.group(2)
        return "1" if name in macros else "0"

    expr = _DEFINED_RE.sub(_defined, expr)
    # Object-like macro values, bounded like line expansion.
    for _ in range(_MAX_EXPANSION_PASSES):
        new_expr = _WORD_IDENT_RE.sub(
            lambda m: macros.get(m.group(0), m.group(0)), expr
        )
        if new_expr == expr:
            break
        expr = new_expr
    # C rule: remaining identifiers evaluate as 0.
    expr = _WORD_IDENT_RE.sub("0", expr)
    expr = _INT_SUFFIX_RE.sub(r"\1", expr)
    # C operators to python: && || !  (but not !=).
    expr = expr.replace("&&", " and ").replace("||", " or ")
    expr = re.sub(r"!(?!=)", " not ", expr)
    # Everything left must be numbers (incl. hex), the three keywords,
    # comparison/arithmetic/bitwise operators, and parentheses.
    check = re.sub(r"\b(and|or|not)\b", " ", expr)
    if not re.fullmatch(r"[\dxXa-fA-F\s()<>=!+*/%&|^~.-]*", check):
        return None
    try:
        with warnings.catch_warnings():
            # e.g. "0(1)" compiles with a SyntaxWarning before failing
            # at run time; the ParseDiagnostic is the user-facing signal.
            warnings.simplefilter("ignore")
            value = eval(expr, {"__builtins__": {}}, {})  # noqa: S307 - sanitised
    except Exception:
        return None
    if isinstance(value, (bool, int)):
        return bool(value)
    return None


def _resolve_include(
    name: str,
    quoted: bool,
    current_dir: str,
    include_paths: Sequence[str],
    loader: Callable[[str], Optional[str]],
) -> tuple[Optional[str], Optional[str]]:
    """Find an included file: ``(resolved path, text)`` or ``(None, None)``."""
    candidates: list[str] = []
    if quoted:
        candidates.append(os.path.join(current_dir, name) if current_dir else name)
    for path in include_paths:
        candidates.append(os.path.join(path, name) if path else name)
    seen: set[str] = set()
    for candidate in candidates:
        candidate = os.path.normpath(candidate)
        if candidate in seen:
            continue
        seen.add(candidate)
        text = loader(candidate)
        if text is not None:
            return candidate, text
    return None, None


def is_directive_free(source: str) -> bool:
    """True when :func:`preprocess` returns ``source`` untouched (its
    identity fast path): the text has no ``#`` at all."""
    return "#" not in source


def preprocess(
    source: str,
    filename: str = "<input>",
    include_paths: Sequence[str] = (),
    loader: Optional[Callable[[str], Optional[str]]] = None,
    _macros: Optional[dict[str, str]] = None,
    _stack: Optional[tuple[str, ...]] = None,
    _diagnostics: Optional[list[ParseDiagnostic]] = None,
) -> PreprocessResult:
    """Preprocess C source text.

    ``loader`` maps a candidate include path to its text (or ``None``
    when absent); the default reads the filesystem, tests inject
    in-memory file sets.  Never raises on bad input — every problem
    becomes a ``stage="cpp"`` :class:`ParseDiagnostic`.
    """
    top_level = _stack is None
    if top_level and is_directive_free(source):
        # Clean-corpus fast path: nothing to do, identity by construction.
        return PreprocessResult(source, None)

    loader = loader or _read_file
    macros: dict[str, str] = {} if _macros is None else _macros
    diagnostics: list[ParseDiagnostic] = (
        [] if _diagnostics is None else _diagnostics
    )
    stack: tuple[str, ...] = (filename,) if top_level else _stack  # type: ignore[assignment]
    current_dir = os.path.dirname(filename)

    out_lines: list[str] = []
    line_map: list[tuple[str, int]] = []
    includes: list[str] = []
    cond_stack: list[_Cond] = []
    in_comment = False

    def diag(
        message: str,
        lineno: int,
        severity: str = "error",
    ) -> None:
        diagnostics.append(
            ParseDiagnostic(
                file=filename,
                line=lineno,
                column=1,
                message=message,
                stage="cpp",
                severity=severity,
            )
        )

    def active() -> bool:
        return all(frame.taking for frame in cond_stack)

    lines = source.split("\n")
    i = 0
    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        if raw.lstrip().startswith("#"):
            body = raw
            consumed = 1
            while body.endswith("\\") and i + consumed < len(lines):
                body = body[:-1] + lines[i + consumed]
                consumed += 1
            i += consumed
            match = _DIRECTIVE_RE.match(body)
            if match is None:
                continue  # a lone '#'
            name, rest = match.group(1), match.group(2)

            if name in ("ifdef", "ifndef"):
                ident_match = _IDENT_RE.match(rest.strip())
                present = (
                    ident_match is not None and ident_match.group(0) in macros
                )
                if ident_match is None:
                    diag(f"#{name} requires an identifier", lineno)
                cond = present if name == "ifdef" else not present
                cond_stack.append(_Cond(active() and cond, cond, False, active()))
            elif name == "if":
                value = _eval_condition(rest, macros)
                if value is None:
                    if active():
                        diag(
                            f"cannot evaluate #if condition {rest.strip()!r}; "
                            "keeping the region",
                            lineno,
                            severity="warning",
                        )
                    value = True
                cond_stack.append(
                    _Cond(active() and value, value, False, active())
                )
            elif name == "elif":
                if not cond_stack:
                    diag("#elif without matching #if", lineno)
                else:
                    frame = cond_stack[-1]
                    if frame.seen_else:
                        diag("#elif after #else", lineno)
                    value = _eval_condition(rest, macros)
                    if value is None and not frame.taken_any:
                        if frame.parent_active:
                            diag(
                                "cannot evaluate #elif condition "
                                f"{rest.strip()!r}; keeping the region",
                                lineno,
                                severity="warning",
                            )
                        value = True
                    value = bool(value)
                    frame.taking = (
                        frame.parent_active and not frame.taken_any and value
                    )
                    frame.taken_any = frame.taken_any or value
            elif name == "else":
                if not cond_stack:
                    diag("#else without matching #if", lineno)
                else:
                    frame = cond_stack[-1]
                    if frame.seen_else:
                        diag("duplicate #else", lineno)
                    frame.seen_else = True
                    frame.taking = frame.parent_active and not frame.taken_any
                    frame.taken_any = True
            elif name == "endif":
                if not cond_stack:
                    diag("#endif without matching #if", lineno)
                else:
                    cond_stack.pop()
            elif not active():
                pass  # include/define/undef/error inside a skipped region
            elif name == "include":
                target = _strip_line_comments(rest)
                quoted = target.startswith('"') and target.endswith('"')
                angled = target.startswith("<") and target.endswith(">")
                if not (quoted or angled) or len(target) < 2:
                    diag(f"malformed #include {rest.strip()!r}", lineno)
                    continue
                inc_name = target[1:-1]
                resolved, text = _resolve_include(
                    inc_name, quoted, current_dir, include_paths, loader
                )
                if resolved is None:
                    diag(
                        f"include {target} not found; continuing without it",
                        lineno,
                        severity="warning",
                    )
                    continue
                if resolved in stack:
                    cycle = " -> ".join(stack + (resolved,))
                    diag(f"include cycle: {cycle}", lineno)
                    continue
                if len(stack) >= _MAX_INCLUDE_DEPTH:
                    diag("include nesting too deep", lineno)
                    continue
                includes.append(resolved)
                sub = preprocess(
                    text,  # type: ignore[arg-type]
                    resolved,
                    include_paths,
                    loader,
                    _macros=macros,
                    _stack=stack + (resolved,),
                    _diagnostics=diagnostics,
                )
                assert sub.line_map is not None
                out_lines.extend(sub.text.split("\n"))
                line_map.extend(sub.line_map)
                includes.extend(sub.includes)
            elif name == "define":
                define_match = _DEFINE_RE.match(rest.strip())
                if define_match is None:
                    diag(f"malformed #define {rest.strip()!r}", lineno)
                    continue
                macro_name, paren, macro_body = define_match.groups()
                if paren:
                    diag(
                        f"function-like macro {macro_name!r} is not "
                        "supported; its uses are left unexpanded",
                        lineno,
                        severity="warning",
                    )
                    continue
                macro_body = _strip_line_comments(macro_body)
                if macro_name in macros and macros[macro_name] != macro_body:
                    diag(
                        f"macro {macro_name!r} redefined "
                        f"({macros[macro_name]!r} -> {macro_body!r})",
                        lineno,
                        severity="warning",
                    )
                macros[macro_name] = macro_body
            elif name == "undef":
                ident_match = _IDENT_RE.match(rest.strip())
                if ident_match is None:
                    diag(f"malformed #undef {rest.strip()!r}", lineno)
                else:
                    macros.pop(ident_match.group(0), None)
            elif name == "error":
                diag(f"#error: {_strip_line_comments(rest)}", lineno)
            # #pragma, #line, and anything unknown: dropped silently.
            continue

        i += 1
        if not active():
            continue
        text_line = raw
        if macros or in_comment:
            text_line, in_comment = _expand_line(raw, macros, in_comment)
        elif "/*" in raw:
            _ignored, _changed, in_comment = _expand_pass(raw, {}, False)
        out_lines.append(text_line)
        line_map.append((filename, lineno))

    for _frame in cond_stack:
        diag("unterminated conditional (#if without #endif)", len(lines))

    return PreprocessResult(
        "\n".join(out_lines), line_map, diagnostics, includes
    )
