"""The original character-at-a-time C scanner, kept as a test oracle.

:func:`repro.cfront.clexer.tokenize_c` is a single compiled-regex
scanner; this module is the loop it replaced, unchanged apart from its
name and its own copies of the keyword and punctuator tables.
``tests/test_clexer_differential.py`` holds the two against each other
token for token, diagnostic for diagnostic, and error for error, in
both strict and recovery modes.
"""

from __future__ import annotations

from repro.cfront.clexer import CLexError, CToken, CTokenKind, ParseDiagnostic

# Copies, so the oracle does not follow edits to the tables of the code
# under test.
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


def reference_tokenize_c(
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
    tokens: list[CToken] = []
    i = 0
    n = len(source)
    line, col = 1, 1

    def problem(message: str, at_line: int, at_col: int) -> None:
        if not recover:
            raise CLexError(message, at_line, at_col)
        if diagnostics is not None:
            diagnostics.append(
                ParseDiagnostic(
                    file=filename,
                    line=at_line,
                    column=at_col,
                    message=message,
                    stage="lex",
                )
            )

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    def at_line_start() -> bool:
        j = i - 1
        while j >= 0 and source[j] in " \t":
            j -= 1
        return j < 0 or source[j] == "\n"

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "\\" and i + 1 < n and source[i + 1] == "\n":
            advance(2)
            continue
        if ch == "#" and at_line_start():
            # Preprocessor directive: skip to end of (logical) line.
            while i < n and source[i] != "\n":
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    advance(2)
                    continue
                advance(1)
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            start_line, start_col = line, col
            advance(2)
            while i + 1 < n and not (source[i] == "*" and source[i + 1] == "/"):
                advance(1)
            if i + 1 >= n:
                problem("unterminated comment", start_line, start_col)
                advance(n - i)  # recovery: the comment swallows the tail
                continue
            advance(2)
            continue

        tok_line, tok_col = line, col

        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = CTokenKind.KEYWORD if text in C_KEYWORDS else CTokenKind.IDENT
            tokens.append(CToken(kind, text, tok_line, tok_col))
            advance(j - i)
            continue

        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            is_float = False
            if source[j] == "0" and j + 1 < n and source[j + 1] in "xX":
                j += 2
                while j < n and (source[j].isdigit() or source[j].lower() in "abcdef"):
                    j += 1
            else:
                while j < n and source[j].isdigit():
                    j += 1
                if j < n and source[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and source[j].isdigit():
                        j += 1
                if j < n and source[j] in "eE":
                    is_float = True
                    j += 1
                    if j < n and source[j] in "+-":
                        j += 1
                    while j < n and source[j].isdigit():
                        j += 1
            # integer/float suffixes
            while j < n and source[j] in "uUlLfF":
                if source[j] in "fF":
                    is_float = True
                j += 1
            text = source[i:j]
            kind = CTokenKind.FLOAT_CONST if is_float else CTokenKind.INT_CONST
            tokens.append(CToken(kind, text, tok_line, tok_col))
            advance(j - i)
            continue

        if ch == "'":
            j = i + 1
            while j < n and source[j] != "'" and not (recover and source[j] == "\n"):
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n or source[j] != "'":
                problem("unterminated character constant", tok_line, tok_col)
                advance(j - i)  # recovery: drop the open fragment
                continue
            text = source[i : j + 1]
            tokens.append(CToken(CTokenKind.CHAR_CONST, text, tok_line, tok_col))
            advance(j + 1 - i)
            continue

        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"' and not (recover and source[j] == "\n"):
                if source[j] == "\\":
                    j += 1
                j += 1
            if j >= n or source[j] != '"':
                problem("unterminated string literal", tok_line, tok_col)
                advance(j - i)  # recovery: drop the open fragment
                continue
            text = source[i : j + 1]
            tokens.append(CToken(CTokenKind.STRING, text, tok_line, tok_col))
            advance(j + 1 - i)
            continue

        for punct in _PUNCTUATION:
            if source.startswith(punct, i):
                tokens.append(CToken(CTokenKind.PUNCT, punct, tok_line, tok_col))
                advance(len(punct))
                break
        else:
            problem(f"unexpected character {ch!r}", tok_line, tok_col)
            advance(1)  # recovery: skip the stray byte

    tokens.append(CToken(CTokenKind.EOF, "", line, col))
    return tokens
