"""Lexer for the C subset analysed by the const-inference system.

Handles identifiers, keywords, integer/floating/character/string
constants (with the usual escapes), all the operators and punctuation the
parser needs, ``//`` and ``/* */`` comments, and line continuations.
Preprocessor directives are skipped line-wise: the analysis consumes
post-preprocessing C (the paper's benchmarks were similarly fed through
the system after preprocessing), so ``#include``/``#define`` lines carry
no information here.  (:mod:`repro.cfront.cpp` is the in-tree minimal
preprocessor for sources that still carry their directives.)

Two error disciplines share one scanner: the strict path raises
:class:`CLexError` at the first bad byte (the seed behaviour, kept for
API users that want hard failures), while the *recovery* path — used by
the best-effort corpus pipeline — records a structured
:class:`ParseDiagnostic` per problem and keeps scanning, so one stray
byte never hides the rest of the file.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import lru_cache


class CTokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_CONST = "int_const"
    FLOAT_CONST = "float_const"
    CHAR_CONST = "char_const"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


C_KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "int", "long", "register", "return", "short", "signed",
        "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while", "inline",
    }
)

# Longest-match-first punctuation table.
_PUNCTUATION = (
    "...",
    "<<=", ">>=",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
)


@dataclass(slots=True)
class CToken:
    kind: CTokenKind
    text: str
    line: int
    column: int
    #: Originating file when it differs from the parse's nominal filename
    #: (tokens pulled in through ``#include`` by the preprocessor).  Empty
    #: means "the file being parsed", which keeps the strict path and
    #: every pre-existing constructor unchanged.
    file: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


class CLexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} at {line}:{column}")


@dataclass(frozen=True)
class ParseDiagnostic:
    """One structured front-end problem from the recovery path.

    Produced by the recovering lexer (``stage="lex"``), the panic-mode
    parser (``stage="parse"``), and the minimal preprocessor
    (``stage="cpp"``).  ``severity`` is ``"error"`` for input the front
    end could not honour and ``"warning"`` for suspicious-but-accepted
    constructs (macro redefinition, unresolvable includes).
    """

    file: str
    line: int
    column: int
    message: str
    stage: str = "parse"  # "lex" | "parse" | "cpp"
    severity: str = "error"  # "error" | "warning"
    #: What the parser wanted (e.g. ``";"``), when it knows.
    expected: str | None = None
    #: What it saw instead, rendered like ``PUNCT ')'``.
    found: str | None = None
    #: The token text recovery synchronised on (``";"``, ``"}"``, a
    #: declaration keyword, or ``"<eof>"``).
    sync: str | None = None

    def describe(self) -> str:
        """The message with its expected/found context, no location —
        what a checker diagnostic or a daemon response carries."""
        out = self.message
        if self.expected is not None:
            out += f" (expected {self.expected}"
            if self.found is not None:
                out += f", found {self.found}"
            out += ")"
        elif self.found is not None:
            out += f" (found {self.found})"
        return out

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.severity}: {self.describe()}"


_ASCII = "".join(map(chr, range(128)))


def _char_class(accepts, alphabet: str) -> str:
    """The regex character class of the characters in ``alphabet`` that
    ``accepts``."""
    return "[" + "".join(re.escape(c) for c in alphabet if accepts(c)) + "]"


@lru_cache(maxsize=32)
def _scanner(extra: str, recover: bool) -> re.Pattern[str]:
    """The scanner's one pattern, for sources whose non-ASCII characters
    are ``extra``.

    A match is a run of whitespace, comments and line continuations,
    then one named alternative per lexeme, in the order the grammar
    gives them priority; ``bad`` takes a character no rule accepts and
    ``eof`` the end of input.  The identifier and number classes are
    the grammar's own ``str`` predicates (``isalpha``, ``isalnum``,
    ``isdigit``) evaluated over ASCII plus ``extra``, so the Unicode
    rules hold exactly without tabulating all of Unicode.  ``recover``
    ends string and character literals at a newline.
    """
    alphabet = _ASCII + extra
    start = _char_class(lambda c: c.isalpha() or c == "_", alphabet)
    cont = _char_class(lambda c: c.isalnum() or c == "_", alphabet)
    digit = _char_class(str.isdigit, alphabet)
    hexd = _char_class(lambda c: c.isdigit() or c.lower() in "abcdef", alphabet)
    stop = r"\n" if recover else ""
    punct = "|".join(map(re.escape, _PUNCTUATION))
    return re.compile(
        rf"""(?:[ \t\r\n]+|\\\n|//[^\n]*|/\*.*?\*/)*
        (?:(?P<ident>{start}{cont}*)
        # an int is a maximal digit run with no '.', exponent or f suffix
        |(?P<int>0[xX]{hexd}*(?!{hexd})[uUlL]*(?![uUlLfF])
            |(?!0[xX]){digit}+(?![.eE]|{digit})[uUlL]*(?![uUlLfF]))
        |(?P<float>0[xX]{hexd}*[uUlLfF]*
            |(?:{digit}+(?:\.{digit}*)?|\.{digit}+)(?:[eE][+-]?{digit}*)?[uUlLfF]*)
        |(?P<char>'(?:\\.|[^'\\{stop}])*')
        |(?P<string>"(?:\\.|[^"\\{stop}])*")
        |(?P<open_comment>/\*)
        |(?P<punct>{punct})
        |(?P<open_char>'(?:\\.|[^'\\{stop}])*)
        |(?P<open_string>"(?:\\.|[^"\\{stop}])*)
        |(?P<hash>\#)
        |(?P<bad>.)
        |(?P<eof>\Z))""",
        re.DOTALL | re.VERBOSE,
    )


#: A preprocessor directive: the rest of its logical line.
_DIRECTIVE = re.compile(r"#(?:\\\n|[^\n])*")

_TOKEN_KINDS = {
    "ident": CTokenKind.IDENT,
    "int": CTokenKind.INT_CONST,
    "float": CTokenKind.FLOAT_CONST,
    "char": CTokenKind.CHAR_CONST,
    "string": CTokenKind.STRING,
    "punct": CTokenKind.PUNCT,
}

_UNTERMINATED = {
    "open_comment": "unterminated comment",
    "open_char": "unterminated character constant",
    "open_string": "unterminated string literal",
}


def tokenize_c(
    source: str,
    filename: str = "<input>",
    recover: bool = False,
    diagnostics: list[ParseDiagnostic] | None = None,
) -> list[CToken]:
    """Tokenize C source; returns tokens ending with EOF.

    With ``recover=True`` lexical problems (stray bytes, unterminated
    comments/strings) are appended to ``diagnostics`` as
    :class:`ParseDiagnostic` records and scanning continues past them;
    the strict default raises :class:`CLexError` exactly as before.
    """
    extra = "" if source.isascii() else "".join(sorted(set(source) - set(_ASCII)))
    match = _scanner(extra, recover).match
    ident, keyword = CTokenKind.IDENT, CTokenKind.KEYWORD
    string, char = CTokenKind.STRING, CTokenKind.CHAR_CONST
    tokens: list[CToken] = []
    append = tokens.append
    n = len(source)
    pos = 0
    line, line_start = 1, 0  # line_start: offset of the current line's first char
    overshoot = 0  # a lone trailing backslash the literal scan steps past

    while True:
        m = match(source, pos)
        group = m.lastgroup
        start, end = m.span(group)
        if start != pos:  # comments and whitespace before the lexeme
            newlines = source.count("\n", pos, start)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", pos, start) + 1
        kind = _TOKEN_KINDS.get(group)
        if kind is not None:
            text = source[start:end]
            if kind is ident and text in C_KEYWORDS:
                kind = keyword
            append(CToken(kind, text, line, start - line_start + 1))
            if kind is not string and kind is not char:  # one-line lexemes
                pos = end
                continue
        elif group == "eof":
            break
        elif group == "hash" and not source[line_start:start].strip(" \t"):
            end = _DIRECTIVE.match(source, start).end()  # a directive line
        else:
            col = start - line_start + 1
            message = _UNTERMINATED.get(group, f"unexpected character {source[start]!r}")
            if not recover:
                raise CLexError(message, line, col)
            if diagnostics is not None:
                diagnostics.append(ParseDiagnostic(filename, line, col, message, "lex"))
            if group == "open_comment":
                end = n  # the comment swallows the tail
            elif group in _UNTERMINATED and source[end:] == "\\":
                end, overshoot = n, 1
        # a literal, a directive or a dropped fragment may span lines
        newlines = source.count("\n", start, end)
        if newlines:
            line += newlines
            line_start = source.rfind("\n", start, end) + 1
        pos = end

    tokens.append(CToken(CTokenKind.EOF, "", line, n - line_start + 1 + overshoot))
    return tokens


def parse_int_constant(text: str) -> int:
    """Value of an integer constant token (handles hex, octal, suffixes)."""
    body = text.rstrip("uUlL")
    if body.lower().startswith("0x"):
        return int(body, 16)
    if body.startswith("0") and len(body) > 1:
        return int(body, 8)
    return int(body)


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def parse_string_literal(body: str) -> str:
    """Decode the escapes inside a string literal's body (no quotes)."""
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\" or i + 1 >= len(body):
            out.append(ch)
            i += 1
            continue
        nxt = body[i + 1]
        if nxt == "x":
            j = i + 2
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            out.append(chr(int(body[i + 2 : j], 16)))
            i = j
            continue
        if nxt.isdigit():
            j = i + 1
            while j < len(body) and j < i + 4 and body[j].isdigit():
                j += 1
            out.append(chr(int(body[i + 1 : j], 8)))
            i = j
            continue
        out.append(_ESCAPES.get(nxt, nxt))
        i += 2
    return "".join(out)


def parse_char_constant(text: str) -> int:
    """Value of a character constant token like ``'a'`` or ``'\\n'``."""
    body = text[1:-1]
    if body.startswith("\\"):
        tail = body[1:]
        if tail and tail[0] == "x":
            return int(tail[1:], 16)
        if tail and tail[0].isdigit():
            return int(tail, 8)
        if tail and tail[0] in _ESCAPES:
            return ord(_ESCAPES[tail[0]])
        raise ValueError(f"bad escape in {text!r}")
    if len(body) != 1:
        raise ValueError(f"bad character constant {text!r}")
    return ord(body)
