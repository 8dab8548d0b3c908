"""Recursive-descent parser for the analysed C subset.

Covers the constructs the paper's benchmarks exercise: declarations with
full declarator syntax (pointers with qualifier lists, arrays, function
declarators and function pointers), struct/union/enum definitions,
typedefs (tracked so the lexer-level ambiguity between type names and
expressions resolves, and expanded macro-style per Section 4.2), function
definitions, the full statement set, and the complete C expression
grammar with standard precedence.  Not covered: K&R-style parameter
declarations, bitfields' widths (parsed and ignored), and designated
initializers.

Typedefs resolve to their underlying :mod:`repro.cfront.ctypes` type at
parse time, which directly implements the paper's rule that typedef'd
declarations share no qualifiers: every declaration gets its own type
value, and the const inference generates fresh qualifier variables per
declaration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .cast import (
    Assignment,
    Binary,
    BreakStmt,
    Call,
    CaseStmt,
    Cast,
    CExpr,
    CharConst,
    Comma,
    Compound,
    Conditional,
    ContinueStmt,
    CStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    EnumDef,
    ExprStmt,
    FieldDecl,
    FloatConst,
    ForStmt,
    FuncDecl,
    FuncDef,
    GotoStmt,
    Ident,
    IfStmt,
    Index,
    InitList,
    IntConst,
    LabeledStmt,
    Member,
    ParamDecl,
    ReturnStmt,
    SizeofType,
    StringConst,
    StructDef,
    SwitchStmt,
    TopLevel,
    TranslationUnit,
    TypedefDecl,
    Unary,
    VarDecl,
    WhileStmt,
)
from .clexer import (
    CLexError,
    CToken,
    CTokenKind,
    ParseDiagnostic,
    parse_char_constant,
    parse_int_constant,
    parse_string_literal,
    tokenize_c,
)
from .cpp import preprocess
from .ctypes import (
    CArray,
    CBase,
    CEnum,
    CFunc,
    CPointer,
    CStruct,
    CType,
    decay,
    with_quals,
)


class CParseError(Exception):
    def __init__(self, message: str, token: CToken, expected: str | None = None):
        self.token = token
        self.message = message
        self.expected = expected
        super().__init__(
            f"{message} at {token.line}:{token.column} "
            f"(found {token.kind.name} {token.text!r})"
        )


_TYPE_SPEC_KEYWORDS = frozenset(
    {
        "void", "char", "short", "int", "long", "float", "double",
        "signed", "unsigned", "struct", "union", "enum",
    }
)
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile"})
_STORAGE_KEYWORDS = frozenset({"typedef", "extern", "static", "auto", "register", "inline"})

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="})

#: Binary operators, loosest first; an operator's level is its index.
_BINARY_LEVELS: tuple[frozenset[str], ...] = (
    frozenset({"||"}),
    frozenset({"&&"}),
    frozenset({"|"}),
    frozenset({"^"}),
    frozenset({"&"}),
    frozenset({"==", "!="}),
    frozenset({"<", ">", "<=", ">="}),
    frozenset({"<<", ">>"}),
    frozenset({"+", "-"}),
    frozenset({"*", "/", "%"}),
)
_BINARY_LEVEL = {op: level for level, ops in enumerate(_BINARY_LEVELS) for op in ops}

#: Each declaration-specifier keyword's role: one lookup per keyword.
_SPECIFIER_ROLE = {
    **dict.fromkeys(_STORAGE_KEYWORDS, "storage"),
    **dict.fromkeys(_QUALIFIER_KEYWORDS, "qualifier"),
    **dict.fromkeys(_TYPE_SPEC_KEYWORDS, "arithmetic"),
    "struct": "struct", "union": "struct", "enum": "enum",
}

# Token kinds bound once: on Python 3.11 ``CTokenKind.IDENT`` goes
# through ``EnumType.__getattr__``, over ten times a global load, and
# every token pays at least one kind test (DESIGN.md, C front end).
_IDENT = CTokenKind.IDENT
_KEYWORD = CTokenKind.KEYWORD
_INT_CONST = CTokenKind.INT_CONST
_FLOAT_CONST = CTokenKind.FLOAT_CONST
_CHAR_CONST = CTokenKind.CHAR_CONST
_STRING = CTokenKind.STRING
_PUNCT = CTokenKind.PUNCT
_EOF = CTokenKind.EOF


class _CParser:
    def __init__(
        self,
        tokens: list[CToken],
        filename: str,
        recover: bool = False,
        diagnostics: list[ParseDiagnostic] | None = None,
    ):
        # One extra EOF: lookahead is at most one token, so ``peek`` is a
        # plain index even at the end of the stream.
        self.tokens = tokens + tokens[-1:]
        self.pos = 0
        self.filename = filename
        self.typedefs: dict[str, CType] = {}
        self.items: list[TopLevel] = []
        self._anon_counter = 0
        self.recover = recover
        self.diagnostics: list[ParseDiagnostic] = (
            diagnostics if diagnostics is not None else []
        )
        #: File of the most recently completed declarator's name token —
        #: how ``#include``-d declarations keep their home file.
        self._last_file = filename

    # -- token plumbing -------------------------------------------------
    def peek(self, ahead: int = 0) -> CToken:
        return self.tokens[self.pos + ahead]

    def advance(self) -> CToken:
        tok = self.tokens[self.pos]
        if tok.kind is not _EOF:
            self.pos += 1
        return tok

    # Only punctuator tokens spell punctuation, so the text decides; a
    # matched punctuator is never EOF, so ``pos`` steps without a test.
    def at_punct(self, text: str, ahead: int = 0) -> bool:
        return self.tokens[self.pos + ahead].text == text

    def at_keyword(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is _KEYWORD and tok.text in words

    def accept_punct(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> CToken:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise CParseError(f"expected {text!r}", tok, expected=text)
        self.pos += 1
        return tok

    def expect_ident(self) -> CToken:
        tok = self.tokens[self.pos]
        if tok.kind is not _IDENT:
            raise CParseError("expected identifier", tok, expected="identifier")
        self.pos += 1
        return tok

    def _file_of(self, tok: CToken) -> str:
        return tok.file or self.filename

    # -- panic-mode recovery --------------------------------------------
    def _record(
        self, exc: Exception, sync: str | None, at: CToken | None = None
    ) -> None:
        """Turn a parse/lex-adjacent exception into a structured
        diagnostic anchored at the offending token."""
        tok = exc.token if isinstance(exc, CParseError) else (at or self.peek())
        message = exc.message if isinstance(exc, CParseError) else str(exc)
        expected = exc.expected if isinstance(exc, CParseError) else None
        self.diagnostics.append(
            ParseDiagnostic(
                file=self._file_of(tok),
                line=tok.line,
                column=tok.column,
                message=message,
                stage="parse",
                expected=expected,
                found=f"{tok.kind.name} {tok.text!r}",
                sync=sync,
            )
        )

    def _sync_top_level(self) -> str:
        """Skip to the next point an external declaration can restart:
        past a ``;`` or a closing ``}`` at bracket depth 0, or just
        before a storage/type keyword that can open a declaration."""
        depth = 0
        moved = False
        while True:
            tok = self.peek()
            if tok.kind is _EOF:
                return "<eof>"
            if tok.kind is _PUNCT:
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]"):
                    depth = max(0, depth - 1)
                elif tok.text == "}":
                    if depth <= 1:
                        self.advance()
                        if depth == 1:
                            # closed the block we errored inside; eat a
                            # trailing ';' (struct definitions) and resume
                            self.accept_punct(";")
                        return "}"
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return ";"
            elif (
                moved
                and depth == 0
                and tok.kind is _KEYWORD
                and (tok.text in _STORAGE_KEYWORDS or tok.text in _TYPE_SPEC_KEYWORDS)
            ):
                return tok.text
            self.advance()
            moved = True

    def _sync_statement(self) -> str:
        """Skip to the next statement boundary inside a block: past a
        ``;`` at brace depth 0, or *to* (not past) the block's ``}``."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind is _EOF:
                return "<eof>"
            if tok.kind is _PUNCT:
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    if depth == 0:
                        return "}"
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return ";"
            self.advance()

    # -- type recognition -----------------------------------------------
    def at_type_start(self, ahead: int = 0) -> bool:
        tok = self.tokens[self.pos + ahead]
        if tok.kind is _KEYWORD:
            return tok.text in _TYPE_SPEC_KEYWORDS or tok.text in _QUALIFIER_KEYWORDS
        return tok.kind is _IDENT and tok.text in self.typedefs

    def at_declaration_start(self) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is _KEYWORD and tok.text in _STORAGE_KEYWORDS:
            return True
        return self.at_type_start()

    def _anon_tag(self, prefix: str) -> str:
        self._anon_counter += 1
        return f"__{prefix}_{self._anon_counter}"

    # -- declaration specifiers ------------------------------------------
    def parse_decl_specifiers(self) -> tuple[CType, Optional[str]]:
        """Parse storage classes, qualifiers, and type specifiers.

        Returns the base type and the storage class (if any).
        """
        storage: Optional[str] = None
        quals: set[str] = set()
        kind_words: list[str] = []
        base: Optional[CType] = None

        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            text = tok.text
            if tok.kind is _KEYWORD:
                role = _SPECIFIER_ROLE.get(text)
                if role is None:
                    break
                if role == "arithmetic":
                    self.pos += 1
                    kind_words.append(text)
                elif role == "qualifier":
                    self.pos += 1
                    quals.add(text)
                elif role == "storage":
                    self.pos += 1
                    if text != "inline":
                        storage = text
                elif role == "struct":
                    base = self.parse_struct_specifier(text == "union")
                else:
                    base = self.parse_enum_specifier()
            elif (
                tok.kind is _IDENT
                and text in self.typedefs
                and base is None
                and not kind_words
            ):
                self.pos += 1
                base = self.typedefs[text]
            else:
                break

        if base is None:
            if kind_words:
                base = CBase(_normalise_kind(kind_words))
            else:
                if not quals and storage is None:
                    raise CParseError("expected declaration specifiers", self.peek())
                base = CBase("int")  # implicit int (pre-C99 style)
        if quals:
            existing = base.quals if not isinstance(base, CFunc) else frozenset()
            base = with_quals(base, existing | frozenset(quals))
        return base, storage

    def parse_struct_specifier(self, is_union: bool) -> CType:
        kw = self.advance()  # struct / union
        tag: Optional[str] = None
        if self.peek().kind is _IDENT:
            tag = self.advance().text
        if self.at_punct("{"):
            if tag is None:
                tag = self._anon_tag("union" if is_union else "struct")
            self.advance()
            fields: list[FieldDecl] = []
            while not self.at_punct("}"):
                base, _storage = self.parse_decl_specifiers()
                while True:
                    name, full_type, line, col = self.parse_declarator(base)
                    field_file = self._last_file
                    if self.accept_punct(":"):
                        self.parse_conditional()  # bitfield width, ignored
                    if name is not None:
                        fields.append(
                            FieldDecl(name, full_type, line, col, field_file)
                        )
                    if not self.accept_punct(","):
                        break
                self.expect_punct(";")
            self.expect_punct("}")
            self.items.append(
                StructDef(
                    tag, tuple(fields), is_union, kw.line, kw.column, self._file_of(kw)
                )
            )
        elif tag is None:
            raise CParseError("struct/union requires a tag or a body", self.peek())
        return CStruct(tag, is_union)

    def parse_enum_specifier(self) -> CType:
        kw = self.advance()  # enum
        tag: Optional[str] = None
        if self.peek().kind is _IDENT:
            tag = self.advance().text
        if self.at_punct("{"):
            if tag is None:
                tag = self._anon_tag("enum")
            self.advance()
            enumerators: list[tuple[str, Optional[CExpr]]] = []
            while not self.at_punct("}"):
                name = self.expect_ident().text
                value: Optional[CExpr] = None
                if self.accept_punct("="):
                    value = self.parse_conditional()
                enumerators.append((name, value))
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            self.items.append(
                EnumDef(tag, tuple(enumerators), kw.line, kw.column, self._file_of(kw))
            )
        elif tag is None:
            raise CParseError("enum requires a tag or a body", self.peek())
        return CEnum(tag)

    # -- declarators ------------------------------------------------------
    def parse_declarator(
        self, base: CType, abstract: bool = False
    ) -> tuple[Optional[str], CType, int, int]:
        """Parse a (possibly abstract) declarator against a base type.

        Returns (name, full type, line, column).  Uses the standard
        two-phase technique: build a "type transformer" while descending,
        apply it inside-out.
        """
        tokens = self.tokens
        tok = tokens[self.pos]
        line, col = tok.line, tok.column
        decl_file = self._file_of(tok)
        # Pointer prefix: each * may carry qualifiers that attach to the
        # pointer level itself (e.g. ``int * const p``).
        pointer_quals: list[frozenset[str]] = []
        while tokens[self.pos].text == "*":
            self.pos += 1
            quals: set[str] = set()
            while self.at_keyword("const", "volatile"):
                quals.add(self.advance().text)
            pointer_quals.append(frozenset(quals))

        name: Optional[str] = None
        inner_transform = None

        tok = tokens[self.pos]
        if tok.kind is _IDENT:
            self.pos += 1
            name = tok.text
            line, col = tok.line, tok.column
            decl_file = self._file_of(tok)
        elif tok.text == "(" and self._paren_is_declarator(abstract):
            self.pos += 1
            # Parse the inner declarator with a placeholder base; we apply
            # the outer suffixes first, then the inner transformations.
            inner_name, placeholder_type, line, col = self.parse_declarator(
                CBase("__placeholder"), abstract
            )
            decl_file = self._last_file
            self.expect_punct(")")
            name = inner_name
            inner_transform = placeholder_type
        elif not abstract and tok.text != "(" and tok.text != "[":
            raise CParseError("expected declarator", tok)

        # Suffixes: arrays and function parameter lists (left to right).
        suffixes: list[tuple] = []
        while True:
            text = tokens[self.pos].text
            if text == "[":
                self.pos += 1
                size: Optional[int] = None
                if tokens[self.pos].text != "]":
                    size_expr = self.parse_conditional()
                    if isinstance(size_expr, IntConst):
                        size = size_expr.value
                self.expect_punct("]")
                suffixes.append(("array", size))
            elif text == "(":
                self.pos += 1
                params, varargs = self.parse_parameter_list()
                self.expect_punct(")")
                suffixes.append(("func", params, varargs))
            else:
                break

        # Apply inside-out: pointer prefixes bind to the base (so
        # ``int *f(void)`` returns int*), then suffixes wrap that, with
        # the first suffix outermost (``a[3][4]`` is array-3 of array-4).
        result = base
        for quals in pointer_quals:
            result = CPointer(result, quals)
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                result = CArray(result, suffix[1])
            else:
                _tag, params, varargs = suffix
                result = CFunc(result, tuple(p.type for p in params), varargs)
                # Parameter names survive only on the outermost function
                # declarator, handled by parse_external_declaration.
                self._last_params = params
        if inner_transform is not None:
            result = _substitute_placeholder(inner_transform, result)
        # Publish this declarator's home file last so nested declarator
        # parses (parameters, grouped declarators) cannot clobber it.
        self._last_file = decl_file
        return name, result, line, col

    def _paren_is_declarator(self, abstract: bool) -> bool:
        """Disambiguate ``(`` after a base type: grouped declarator vs
        function parameter list (for abstract declarators)."""
        nxt = self.peek(1)
        if nxt.kind is _PUNCT and nxt.text in ("*", "("):
            return True
        if nxt.kind is _IDENT and nxt.text not in self.typedefs:
            return True
        if not abstract:
            return True
        return False

    def parse_parameter_list(self) -> tuple[list[ParamDecl], bool]:
        params: list[ParamDecl] = []
        varargs = False
        if self.at_punct(")"):
            return params, varargs
        # (void) means no parameters
        if (
            self.at_keyword("void")
            and self.peek(1).kind is _PUNCT
            and self.peek(1).text == ")"
        ):
            self.advance()
            return params, varargs
        while True:
            if self.at_punct("..."):
                self.advance()
                varargs = True
                break
            base, _storage = self.parse_decl_specifiers()
            name, full_type, line, col = self.parse_declarator(base, abstract=True)
            params.append(ParamDecl(name, decay(full_type), line, col, self._last_file))
            if not self.accept_punct(","):
                break
        return params, varargs

    def parse_type_name(self) -> CType:
        base, _storage = self.parse_decl_specifiers()
        _name, full_type, _line, _col = self.parse_declarator(base, abstract=True)
        return full_type

    # -- external declarations --------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        while self.peek().kind is not _EOF:
            if not self.recover:
                self.parse_external_declaration()
                continue
            start = self.pos
            try:
                self.parse_external_declaration()
            except (CParseError, CLexError, ValueError) as exc:
                at = exc.token if isinstance(exc, CParseError) else self.peek()
                sync = self._sync_top_level()
                if self.pos == start and self.peek().kind is not _EOF:
                    self.advance()  # progress guarantee
                self._record(exc, sync, at)
        return TranslationUnit(self.items, self.filename)

    def parse_external_declaration(self) -> None:
        if self.accept_punct(";"):
            return
        base, storage = self.parse_decl_specifiers()
        if self.accept_punct(";"):
            # Pure struct/union/enum definition (already recorded).
            return

        first = True
        while True:
            self._last_params = []
            name, full_type, line, col = self.parse_declarator(base)
            decl_file = self._last_file
            params: list[ParamDecl] = list(self._last_params)

            if storage == "typedef":
                if name is None:
                    raise CParseError("typedef requires a name", self.peek())
                self.typedefs[name] = full_type
                self.items.append(
                    TypedefDecl(name, full_type, line, col, decl_file)
                )
            elif isinstance(full_type, CFunc) and first and self.at_punct("{"):
                if name is None:
                    raise CParseError("function definition requires a name", self.peek())
                body = self.parse_compound()
                self.items.append(
                    FuncDef(
                        name,
                        full_type.ret,
                        tuple(params),
                        body,
                        full_type.varargs,
                        storage,
                        line,
                        col,
                        decl_file,
                    )
                )
                return
            elif isinstance(full_type, CFunc):
                if name is None:
                    raise CParseError("function declaration requires a name", self.peek())
                self.items.append(
                    FuncDecl(
                        name,
                        full_type.ret,
                        tuple(params),
                        full_type.varargs,
                        storage,
                        line,
                        col,
                        decl_file,
                    )
                )
            else:
                init: Optional[CExpr] = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                if name is None:
                    raise CParseError("declaration requires a name", self.peek())
                self.items.append(
                    VarDecl(name, full_type, init, storage, line, col, decl_file)
                )

            first = False
            if not self.accept_punct(","):
                break
        self.expect_punct(";")

    def parse_initializer(self) -> CExpr:
        if self.at_punct("{"):
            brace = self.advance()
            items: list[CExpr] = []
            while not self.at_punct("}"):
                items.append(self.parse_initializer())
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return InitList(tuple(items), line=brace.line, col=brace.column)
        return self.parse_assignment_expr()

    # -- statements ---------------------------------------------------------
    def parse_compound(self) -> Compound:
        brace = self.expect_punct("{")
        body: list[CStmt] = []
        while not self.at_punct("}"):
            if not self.recover:
                body.append(self.parse_statement())
                continue
            if self.peek().kind is _EOF:
                self.diagnostics.append(
                    ParseDiagnostic(
                        file=self._file_of(brace),
                        line=brace.line,
                        column=brace.column,
                        message="unterminated block",
                        stage="parse",
                        expected="}",
                        found="EOF ''",
                        sync="<eof>",
                    )
                )
                return Compound(tuple(body), line=brace.line, col=brace.column)
            start = self.pos
            try:
                body.append(self.parse_statement())
            except (CParseError, CLexError, ValueError) as exc:
                at = exc.token if isinstance(exc, CParseError) else self.peek()
                sync = self._sync_statement()
                if (
                    self.pos == start
                    and not self.at_punct("}")
                    and self.peek().kind is not _EOF
                ):
                    self.advance()  # progress guarantee
                self._record(exc, sync, at)
        self.expect_punct("}")
        return Compound(tuple(body), line=brace.line, col=brace.column)

    def parse_local_declaration(self) -> DeclStmt:
        base, storage = self.parse_decl_specifiers()
        decls: list[VarDecl] = []
        if not self.at_punct(";"):
            while True:
                name, full_type, line, col = self.parse_declarator(base)
                decl_file = self._last_file
                if storage == "typedef":
                    if name is None:
                        raise CParseError("typedef requires a name", self.peek())
                    self.typedefs[name] = full_type
                    if not self.accept_punct(","):
                        break
                    continue
                init: Optional[CExpr] = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                if name is None:
                    raise CParseError("declaration requires a name", self.peek())
                decls.append(
                    VarDecl(name, full_type, init, storage, line, col, decl_file)
                )
                if not self.accept_punct(","):
                    break
        end = self.expect_punct(";")
        return DeclStmt(tuple(decls), line=end.line, col=end.column)

    def parse_statement(self) -> CStmt:
        tok = self.tokens[self.pos]
        if tok.text == "{":
            return self.parse_compound()
        if tok.text == ";":
            self.pos += 1
            return EmptyStmt(line=tok.line, col=tok.column)
        if self.at_declaration_start():
            return self.parse_local_declaration()
        if tok.kind is _KEYWORD:
            match tok.text:
                case "if":
                    self.advance()
                    self.expect_punct("(")
                    cond = self.parse_expression()
                    self.expect_punct(")")
                    then = self.parse_statement()
                    other = None
                    if self.at_keyword("else"):
                        self.advance()
                        other = self.parse_statement()
                    return IfStmt(cond, then, other, line=tok.line, col=tok.column)
                case "while":
                    self.advance()
                    self.expect_punct("(")
                    cond = self.parse_expression()
                    self.expect_punct(")")
                    return WhileStmt(cond, self.parse_statement(), line=tok.line, col=tok.column)
                case "do":
                    self.advance()
                    body = self.parse_statement()
                    if not self.at_keyword("while"):
                        raise CParseError("expected while after do-body", self.peek())
                    self.advance()
                    self.expect_punct("(")
                    cond = self.parse_expression()
                    self.expect_punct(")")
                    self.expect_punct(";")
                    return DoWhileStmt(body, cond, line=tok.line, col=tok.column)
                case "for":
                    self.advance()
                    self.expect_punct("(")
                    init: Optional[CExpr | DeclStmt] = None
                    if self.at_declaration_start():
                        init = self.parse_local_declaration()
                    elif not self.at_punct(";"):
                        init = self.parse_expression()
                        self.expect_punct(";")
                    else:
                        self.advance()
                    cond = None
                    if not self.at_punct(";"):
                        cond = self.parse_expression()
                    self.expect_punct(";")
                    step = None
                    if not self.at_punct(")"):
                        step = self.parse_expression()
                    self.expect_punct(")")
                    return ForStmt(init, cond, step, self.parse_statement(), line=tok.line, col=tok.column)
                case "return":
                    self.advance()
                    value = None
                    if not self.at_punct(";"):
                        value = self.parse_expression()
                    self.expect_punct(";")
                    return ReturnStmt(value, line=tok.line, col=tok.column)
                case "break":
                    self.advance()
                    self.expect_punct(";")
                    return BreakStmt(line=tok.line, col=tok.column)
                case "continue":
                    self.advance()
                    self.expect_punct(";")
                    return ContinueStmt(line=tok.line, col=tok.column)
                case "goto":
                    self.advance()
                    label = self.expect_ident().text
                    self.expect_punct(";")
                    return GotoStmt(label, line=tok.line, col=tok.column)
                case "switch":
                    self.advance()
                    self.expect_punct("(")
                    value = self.parse_expression()
                    self.expect_punct(")")
                    return SwitchStmt(value, self.parse_statement(), line=tok.line, col=tok.column)
                case "case":
                    self.advance()
                    value = self.parse_conditional()
                    self.expect_punct(":")
                    return CaseStmt(value, self.parse_statement(), line=tok.line, col=tok.column)
                case "default":
                    self.advance()
                    self.expect_punct(":")
                    return CaseStmt(None, self.parse_statement(), line=tok.line, col=tok.column)
        # Label?
        if (
            tok.kind is _IDENT
            and self.peek(1).kind is _PUNCT
            and self.peek(1).text == ":"
        ):
            self.advance()
            self.advance()
            return LabeledStmt(tok.text, self.parse_statement(), line=tok.line, col=tok.column)
        expr = self.parse_expression()
        self.expect_punct(";")
        return ExprStmt(expr, line=tok.line, col=tok.column)

    # -- expressions ----------------------------------------------------------
    # Every operand is parsed by parse_assignment_expr -> parse_binary ->
    # parse_unary -> parse_postfix: ``?:`` is folded into the assignment
    # level, casts into the unary level and primaries into the postfix
    # level, so a leaf costs four calls, not eight.
    def parse_expression(self) -> CExpr:
        expr = self.parse_assignment_expr()
        tokens = self.tokens
        while tokens[self.pos].text == ",":
            op = tokens[self.pos]
            self.pos += 1
            expr = Comma(
                expr, self.parse_assignment_expr(), line=op.line, col=op.column
            )
        return expr

    def parse_assignment_expr(self) -> CExpr:
        left = self.parse_binary(0)
        tok = self.tokens[self.pos]
        if tok.text == "?":
            left = self._conditional_rest(left)
            tok = self.tokens[self.pos]
        # only punctuators spell operators, so the text decides
        if tok.text in _ASSIGN_OPS:
            self.pos += 1
            right = self.parse_assignment_expr()
            return Assignment(tok.text, left, right, line=tok.line, col=tok.column)
        return left

    def parse_conditional(self) -> CExpr:
        """A conditional expression: what case labels, array sizes,
        bit-field widths and enumerator values take."""
        cond = self.parse_binary(0)
        if self.tokens[self.pos].text == "?":
            return self._conditional_rest(cond)
        return cond

    def _conditional_rest(self, cond: CExpr) -> CExpr:
        op = self.tokens[self.pos]
        self.pos += 1
        then = self.parse_expression()
        self.expect_punct(":")
        other = self.parse_conditional()
        return Conditional(cond, then, other, line=op.line, col=op.column)

    def parse_binary(self, min_level: int) -> CExpr:
        """Precedence climbing over :data:`_BINARY_LEVEL`: fold in every
        operator binding at least as tight as ``min_level``; the right
        operand only takes tighter ones, so equal levels associate left."""
        left = self.parse_unary()
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            # only punctuators spell operators, so the text decides
            level = _BINARY_LEVEL.get(tok.text, -1)
            if level < min_level:
                return left
            self.pos += 1
            right = self.parse_binary(level + 1)
            left = Binary(tok.text, left, right, line=tok.line, col=tok.column)

    def parse_unary(self, cast: bool = True) -> CExpr:
        """Prefix operators, ``sizeof`` and casts (compound literals
        included) over a postfix expression.  The operand of ``++``,
        ``--`` and ``sizeof`` is parsed with ``cast=False``: C gives them
        a unary expression, where ``(T)`` opens a parenthesised one."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind is _PUNCT:
            text = tok.text
            if text in {"&", "*", "+", "-", "~", "!"}:
                self.pos += 1
                return Unary(text, self.parse_unary(), line=tok.line, col=tok.column)
            if text == "++" or text == "--":
                self.pos += 1
                return Unary(text, self.parse_unary(False), line=tok.line, col=tok.column)
            if cast and text == "(" and self.at_type_start(1):
                self.pos += 1
                target = self.parse_type_name()
                self.expect_punct(")")
                # Compound literal `(type){...}` parsed as cast of init list.
                if self.tokens[self.pos].text == "{":
                    operand = self.parse_initializer()
                else:
                    operand = self.parse_unary()
                return Cast(target, operand, line=tok.line, col=tok.column)
        elif kind is _KEYWORD and tok.text == "sizeof":
            self.pos += 1
            if self.tokens[self.pos].text == "(" and self.at_type_start(1):
                self.pos += 1
                target = self.parse_type_name()
                self.expect_punct(")")
                return SizeofType(target, line=tok.line, col=tok.column)
            return Unary("sizeof", self.parse_unary(False), line=tok.line, col=tok.column)
        return self.parse_postfix()

    def parse_postfix(self) -> CExpr:
        """A primary expression and the postfix operators after it."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.kind
        if kind is _IDENT:
            self.pos += 1
            expr = Ident(tok.text, line=tok.line, col=tok.column)
        elif kind is _INT_CONST:
            self.pos += 1
            expr = IntConst(parse_int_constant(tok.text), line=tok.line, col=tok.column)
        elif kind is _FLOAT_CONST:
            self.pos += 1
            expr = FloatConst(tok.text, line=tok.line, col=tok.column)
        elif kind is _CHAR_CONST:
            self.pos += 1
            expr = CharConst(parse_char_constant(tok.text), line=tok.line, col=tok.column)
        elif kind is _STRING:
            # Adjacent string literals concatenate; escapes are decoded.
            parts = []
            literal = tok
            while literal.kind is _STRING:
                self.pos += 1
                parts.append(parse_string_literal(literal.text[1:-1]))
                literal = tokens[self.pos]
            expr = StringConst("".join(parts), line=tok.line, col=tok.column)
        elif tok.text == "(":
            self.pos += 1
            expr = self.parse_expression()
            self.expect_punct(")")
        else:
            raise CParseError("expected an expression", tok)
        while True:
            tok = tokens[self.pos]
            text = tok.text
            if text == "[":
                self.pos += 1
                index = self.parse_expression()
                self.expect_punct("]")
                expr = Index(expr, index, line=tok.line, col=tok.column)
            elif text == "(":
                self.pos += 1
                args: list[CExpr] = []
                if tokens[self.pos].text != ")":
                    while True:
                        args.append(self.parse_assignment_expr())
                        if not self.accept_punct(","):
                            break
                self.expect_punct(")")
                expr = Call(expr, tuple(args), line=tok.line, col=tok.column)
            elif text == "." or text == "->":
                self.pos += 1
                field_name = self.expect_ident().text
                expr = Member(expr, field_name, text == "->", line=tok.line, col=tok.column)
            elif text == "++" or text == "--":
                self.pos += 1
                expr = Unary(text, expr, postfix=True, line=tok.line, col=tok.column)
            else:
                return expr


def _normalise_kind(words: list[str]) -> str:
    """Collapse multi-word arithmetic specifiers to a canonical kind."""
    wordset = set(words)
    if "void" in wordset:
        return "void"
    if "double" in wordset or "float" in wordset:
        return "double" if "double" in wordset else "float"
    if "char" in wordset:
        return "char"
    if words.count("long") >= 2:
        return "long long"
    if "long" in wordset:
        return "long"
    if "short" in wordset:
        return "short"
    return "int"


def _substitute_placeholder(shape: CType, replacement: CType) -> CType:
    """Replace the ``__placeholder`` base inside a grouped declarator's
    type with the type built from the outer context."""
    if isinstance(shape, CBase) and shape.kind == "__placeholder":
        return replacement
    if isinstance(shape, CPointer):
        return CPointer(_substitute_placeholder(shape.target, replacement), shape.quals)
    if isinstance(shape, CArray):
        return CArray(_substitute_placeholder(shape.element, replacement), shape.size, shape.quals)
    if isinstance(shape, CFunc):
        return CFunc(
            _substitute_placeholder(shape.ret, replacement), shape.params, shape.varargs
        )
    return shape


def parse_c(source: str, filename: str = "<input>") -> TranslationUnit:
    """Parse C source into a :class:`TranslationUnit`.

    Raises :class:`CParseError` or :class:`~repro.cfront.clexer.CLexError`
    on malformed input.
    """
    tokens = tokenize_c(source, filename)
    return _CParser(tokens, filename).parse_translation_unit()


class CFileError(Exception):
    """A named C file that cannot be read, lexed or parsed; the message
    starts with the file's path."""


def parse_files(
    paths: Iterable[str | Path],
) -> tuple[dict[str, str], list[TranslationUnit]]:
    """Read and parse each named file once, in order: ``(sources, units)``.

    Text is decoded as UTF-8 with undecodable bytes replaced, as qlint's
    source loader reads it.  Raises :class:`CFileError` at the first
    file that is unreadable or fails to lex or parse.
    """
    sources: dict[str, str] = {}
    units: list[TranslationUnit] = []
    for raw in paths:
        name = str(raw)
        if name in sources:
            continue
        try:
            sources[name] = Path(name).read_text(encoding="utf-8", errors="replace")
            units.append(parse_c(sources[name], name))
        except OSError as exc:
            raise CFileError(f"{name}: {exc.strerror or exc}") from exc
        except (CLexError, CParseError) as exc:
            raise CFileError(f"{name}: {exc}") from exc
    return sources, units


@dataclass
class ParseResult:
    """A best-effort parse: the recovered :class:`TranslationUnit` plus
    every front-end problem met along the way.

    ``unit`` holds all declarations the panic-mode parser salvaged —
    possibly every one (``ok``), possibly a subset.  ``diagnostics``
    aggregates preprocessor, lexer, and parser records in source order
    of discovery.
    """

    unit: TranslationUnit
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was recorded (warnings —
        macro redefinitions, unresolved includes — don't clear it)."""
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def parse_c_resilient(
    source: str,
    filename: str = "<input>",
    include_paths: Sequence[str] = (),
    loader=None,
) -> ParseResult:
    """Parse C source, preprocessing directives and recovering from
    errors instead of raising.

    Runs the minimal preprocessor (:mod:`repro.cfront.cpp`), the
    recovering lexer, and the panic-mode parser, and never raises on
    malformed input: the result carries whatever declarations could be
    salvaged plus a :class:`ParseDiagnostic` per problem.  Spans and
    diagnostics point at the original files — including ``#include``-d
    headers — via the preprocessor's line map.
    """
    diagnostics: list[ParseDiagnostic] = []
    pre = preprocess(source, filename, include_paths=include_paths, loader=loader)
    diagnostics.extend(pre.diagnostics)

    lex_from = len(diagnostics)
    tokens = tokenize_c(pre.text, filename, recover=True, diagnostics=diagnostics)
    if pre.line_map is not None:
        remap = pre.line_map

        def _remap_line(line: int) -> tuple[str, int]:
            if 1 <= line <= len(remap):
                return remap[line - 1]
            return filename, line

        # Built directly: ``dataclasses.replace`` costs ~5x per token.
        new_tokens = []
        for tok in tokens:
            src_file, src_line = _remap_line(tok.line)
            file = "" if src_file == filename else src_file
            new_tokens.append(CToken(tok.kind, tok.text, src_line, tok.column, file))
        tokens = new_tokens
        for idx in range(lex_from, len(diagnostics)):
            d = diagnostics[idx]
            src_file, src_line = _remap_line(d.line)
            diagnostics[idx] = dataclasses.replace(
                d, file=src_file, line=src_line
            )

    parser = _CParser(tokens, filename, recover=True, diagnostics=diagnostics)
    unit = parser.parse_translation_unit()
    return ParseResult(unit, diagnostics)
