"""Differential test: the regex scanner against the character loop it
replaced (``tests/clexer_reference.py``).

For any input, in strict and recovery mode, both scanners must produce
the same tokens (kind, text, line, column, file), the same recovery
diagnostics, and — in strict mode — the same :class:`CLexError` message
and position.  The alphabet is chosen to reach every rule: punctuators,
both comment forms, ``#`` at line start and mid-line, backslash-newline,
quotes and newlines, the form feed and vertical tab that are *not*
whitespace to this lexer, and non-ASCII characters on each side of the
``str.isalpha``/``isalnum``/``isdigit`` rules identifiers and numbers
are stated in (``é``/``ß`` are letters, ``٣`` is a decimal digit, ``²``
a digit that is not decimal, ``½`` numeric but neither).
"""

from __future__ import annotations

import pytest
from clexer_reference import reference_tokenize_c
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.clexer import CLexError, tokenize_c

_PIECES = (
    # punctuators, including every multi-character one and near misses
    "...", "..", "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "^=",
    "|=", "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">",
    "=", "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
    # comments, directives, continuations, quotes
    "//", "/*", "*/", "#", "#define X 1", "\\", "\\\n", "'", '"', "\\'",
    '\\"',
    # whitespace, and the two control characters that are not
    "\n", " ", "\t", "\r", "\f", "\v",
    # words and numbers
    "a", "_", "x", "int", "const", "sizeof", "0", "1", "9", "0x", "0X1f",
    "e", "E", "f", "F", "u", "L", "1.5e-3f", "017", "12uL", "0x1u", "1.",
    # non-ASCII letters, digits and numerics
    "é", "ß", "٣", "²", "½",
    # stray bytes
    "@", "$", "`",
)

_sources = st.lists(st.sampled_from(_PIECES), max_size=40).map("".join)


def _scan(tokenize, source: str, recover: bool):
    """Everything one scan produces, as plain comparable data."""
    diagnostics: list = []
    try:
        tokens = tokenize(source, "t.c", recover=recover, diagnostics=diagnostics)
    except CLexError as exc:
        return ("error", str(exc), exc.line, exc.column)
    rows = [(t.kind, t.text, t.line, t.column, t.file) for t in tokens]
    return ("ok", rows, diagnostics)


@settings(max_examples=600, deadline=None)
@given(_sources, st.booleans())
def test_scanner_matches_reference(source, recover):
    assert _scan(tokenize_c, source, recover) == _scan(
        reference_tokenize_c, source, recover
    )


@pytest.mark.parametrize(
    "source",
    [
        "",
        "int x;",
        "  # define X 1 \\\n  continued\nint y;",
        "a # b",
        "/* unterminated",
        "'abc\\",  # unterminated at a lone trailing backslash
        '"abc\\',
        "'a\\\nb'",  # backslash-newline inside a character constant
        '"line\nbreak"',
        "0x1uf 0x1fu 1uL. 1e+ .5 1.e5f ..1",
        "é²x ß_٣ ²³ ٣.٣ ½ ²½",
        "\f\va\r\nb",
        "x //c\\\ny",
    ],
)
@pytest.mark.parametrize("recover", [False, True])
def test_scanner_matches_reference_on_edge_cases(source, recover):
    assert _scan(tokenize_c, source, recover) == _scan(
        reference_tokenize_c, source, recover
    )
