"""Semantic tables for analysed C programs.

Builds the whole-program symbol tables the const inference consumes:
struct/union layouts by tag (field qualifier sharing, Section 4.2), enum
constants, function definitions and prototypes, and global variables.
Several translation units can be merged, matching the paper's setup of
analysing a whole package at once ("we analyzed each set of programs at
once"); colliding function definitions are renamed, as the paper did.

Also provides the body-walking helpers the FDG construction needs: the
set of function names *occurring* in a function's body (Definition 4 says
there is an edge f -> g iff f contains an occurrence of the name g — any
occurrence, not just calls, so function-pointer uses count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .cast import (
    Assignment,
    Binary,
    Call,
    CaseStmt,
    Cast,
    CExpr,
    Comma,
    Compound,
    Conditional,
    CStmt,
    DeclStmt,
    DoWhileStmt,
    EnumDef,
    ExprStmt,
    ForStmt,
    FuncDecl,
    FuncDef,
    GotoStmt,
    Ident,
    IfStmt,
    Index,
    InitList,
    LabeledStmt,
    Member,
    ReturnStmt,
    StructDef,
    SwitchStmt,
    TranslationUnit,
    TypedefDecl,
    Unary,
    VarDecl,
    WhileStmt,
)
from .cparser import parse_c


class SemaError(Exception):
    """Whole-program consistency error."""


@dataclass
class Program:
    """Merged symbol tables for one or more translation units."""

    units: list[TranslationUnit] = field(default_factory=list)
    structs: dict[str, StructDef] = field(default_factory=dict)
    enums: dict[str, EnumDef] = field(default_factory=dict)
    enum_constants: dict[str, int] = field(default_factory=dict)
    functions: dict[str, FuncDef] = field(default_factory=dict)
    prototypes: dict[str, FuncDecl] = field(default_factory=dict)
    globals: dict[str, VarDecl] = field(default_factory=dict)
    typedefs: dict[str, TypedefDecl] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_units(cls, units: list[TranslationUnit]) -> "Program":
        program = cls(units=list(units))
        for unit in units:
            for item in unit.items:
                program._add(item)
        return program

    @classmethod
    def from_source(cls, source: str, filename: str = "<input>") -> "Program":
        return cls.from_units([parse_c(source, filename)])

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Program":
        return cls.from_units(
            [parse_c(text, name) for name, text in sources.items()]
        )

    def _add(self, item) -> None:
        if isinstance(item, StructDef):
            # Later (or more complete) definitions win; empty redeclaration
            # of a known tag keeps the existing fields.
            existing = self.structs.get(item.tag)
            if existing is None or (item.fields and not existing.fields):
                self.structs[item.tag] = item
        elif isinstance(item, EnumDef):
            self.enums[item.tag] = item
            value = 0
            for name, expr in item.enumerators:
                from .cast import IntConst

                if isinstance(expr, IntConst):
                    value = expr.value
                self.enum_constants[name] = value
                value += 1
        elif isinstance(item, FuncDef):
            if item.name in self.functions:
                # The paper renamed functions multiply defined across
                # files; we do the same deterministically.
                suffix = 2
                while f"{item.name}__dup{suffix}" in self.functions:
                    suffix += 1
                item = FuncDef(
                    f"{item.name}__dup{suffix}",
                    item.ret,
                    item.params,
                    item.body,
                    item.varargs,
                    item.storage,
                    item.line,
                    item.col,
                    item.file,
                )
            self.functions[item.name] = item
        elif isinstance(item, FuncDecl):
            self.prototypes.setdefault(item.name, item)
        elif isinstance(item, VarDecl):
            if item.storage != "extern" or item.name not in self.globals:
                self.globals[item.name] = item
        elif isinstance(item, TypedefDecl):
            self.typedefs.setdefault(item.name, item)

    # ------------------------------------------------------------------
    def defined_function_names(self) -> set[str]:
        return set(self.functions)

    def undefined_function_names(self) -> set[str]:
        """Prototyped but never defined: the library functions of
        Section 4.2, treated maximally conservatively."""
        return set(self.prototypes) - set(self.functions)

    def total_lines(self) -> int:
        """Highest source line seen, summed per unit (a proxy for the
        Table 1 'Lines' column when sources came from files)."""
        total = 0
        for unit in self.units:
            last = 0
            for item in unit.items:
                last = max(last, getattr(item, "line", 0))
            total += last
        return total


# ---------------------------------------------------------------------------
# Body traversals
# ---------------------------------------------------------------------------


def subexpressions(expr: CExpr) -> Iterator[CExpr]:
    """Pre-order traversal of an expression."""
    yield expr
    match expr:
        case Unary(operand=inner):
            yield from subexpressions(inner)
        case Binary(left=left, right=right) | Comma(left=left, right=right):
            yield from subexpressions(left)
            yield from subexpressions(right)
        case Assignment(target=target, value=value):
            yield from subexpressions(target)
            yield from subexpressions(value)
        case Conditional(cond=c, then=t, other=o):
            yield from subexpressions(c)
            yield from subexpressions(t)
            yield from subexpressions(o)
        case Call(func=f, args=args):
            yield from subexpressions(f)
            for arg in args:
                yield from subexpressions(arg)
        case Member(base=base):
            yield from subexpressions(base)
        case Index(base=base, index=index):
            yield from subexpressions(base)
            yield from subexpressions(index)
        case Cast(operand=inner):
            yield from subexpressions(inner)
        case InitList(items=items):
            for item in items:
                yield from subexpressions(item)
        case _:
            return


def statements(stmt: CStmt) -> Iterator[CStmt]:
    """Pre-order traversal of a statement tree."""
    yield stmt
    match stmt:
        case Compound(body=body):
            for child in body:
                yield from statements(child)
        case IfStmt(then=t, other=o):
            yield from statements(t)
            if o is not None:
                yield from statements(o)
        case WhileStmt(body=b) | DoWhileStmt(body=b) | SwitchStmt(body=b):
            yield from statements(b)
        case ForStmt(init=init, body=b):
            if isinstance(init, DeclStmt):
                yield from statements(init)
            yield from statements(b)
        case LabeledStmt(stmt=s) | CaseStmt(stmt=s):
            yield from statements(s)
        case _:
            return


def statement_expressions(stmt: CStmt) -> Iterator[CExpr]:
    """The expressions one statement holds itself, in source order:
    conditions, steps, values and declaration initialisers, but not
    those of its sub-statements (:func:`statements` enumerates them)."""
    match stmt:
        case ExprStmt(expr=e) | SwitchStmt(value=e) | DoWhileStmt(cond=e):
            yield e
        case IfStmt(cond=c) | WhileStmt(cond=c):
            yield c
        case ForStmt(init=init, cond=cond, step=step):
            if init is not None and not isinstance(init, DeclStmt):
                yield init
            if cond is not None:
                yield cond
            if step is not None:
                yield step
        case ReturnStmt(value=v) | CaseStmt(value=v):
            if v is not None:
                yield v
        case DeclStmt(decls=decls):
            for decl in decls:
                if decl.init is not None:
                    yield decl.init
        case _:
            return


def expressions_of(stmt: CStmt) -> Iterator[CExpr]:
    """All expressions syntactically contained in a statement tree,
    including declaration initialisers."""
    for s in statements(stmt):
        for e in statement_expressions(s):
            yield from subexpressions(e)


def occurring_names(fdef: FuncDef) -> set[str]:
    """All identifier names occurring in a function body (Definition 4's
    'occurrence of the name g', so any mention counts, calls or not)."""
    names: set[str] = set()
    for expr in expressions_of(fdef.body):
        if isinstance(expr, Ident):
            names.add(expr.name)
    return names


def direct_callees(fdef: FuncDef) -> set[str]:
    """Names called directly (``f(...)`` with ``f`` a plain identifier)."""
    names: set[str] = set()
    for expr in expressions_of(fdef.body):
        if isinstance(expr, Call) and isinstance(expr.func, Ident):
            names.add(expr.func.name)
    return names


def address_taken_names(fdef: FuncDef) -> set[str]:
    """Identifiers occurring *outside* the direct-callee position of a
    call — the conservative "address taken" set for function-pointer
    resolution (assignment, argument passing, explicit ``&f``, ...).

    C decays a function name to a pointer in every context except a
    direct call, so any non-callee occurrence is a potential capture.
    The AST is a tree, so node identity distinguishes the same name
    used both as callee and as a value.
    """
    callee_idents: set[int] = set()
    for expr in expressions_of(fdef.body):
        if isinstance(expr, Call) and isinstance(expr.func, Ident):
            callee_idents.add(id(expr.func))
    names: set[str] = set()
    for expr in expressions_of(fdef.body):
        if isinstance(expr, Ident) and id(expr) not in callee_idents:
            names.add(expr.name)
    return names


def indirect_call_sites(fdef: FuncDef, function_names: set[str]) -> list[Call]:
    """Call expressions whose callee is not a known function name —
    calls through function-pointer values needing resolution.

    ``function_names`` should cover defined functions and prototypes;
    a callee Ident outside that set is a function-pointer variable.
    """
    sites: list[Call] = []
    for expr in expressions_of(fdef.body):
        if not isinstance(expr, Call):
            continue
        if isinstance(expr.func, Ident) and expr.func.name in function_names:
            continue
        sites.append(expr)
    return sites
