"""Semantic tables for analysed C programs.

Builds the whole-program symbol tables the const inference consumes:
struct/union layouts by tag (field qualifier sharing, Section 4.2), enum
constants, function definitions and prototypes, and global variables.
Several translation units can be merged, matching the paper's setup of
analysing a whole package at once ("we analyzed each set of programs at
once"); colliding function definitions are renamed, as the paper did.

Also provides the body walks: :meth:`Program.occurrences` walks each
function body once and records what the function dependence graph, the
whole-program call graph and the checker read from it — above all the
names *occurring* in the body (Definition 4 says there is an edge
f -> g iff f contains an occurrence of the name g — any occurrence, not
just calls, so function-pointer uses count).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Iterator

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
    Ident,
    IfStmt,
    Index,
    InitList,
    IntConst,
    LabeledStmt,
    Member,
    ReturnStmt,
    StringConst,
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
    #: :meth:`occurrences`, walked on first use
    _occurrences: dict[str, BodyOccurrences] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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

    def occurrences(self) -> dict[str, BodyOccurrences]:
        """Per defined function, what one walk of its body records
        (:func:`body_occurrences`).  Each body is walked once per
        program: the function dependence graph, the whole-program call
        graph, :meth:`library_prototypes`, the casts-away-const check
        and the suggester all read this one map."""
        if self._occurrences is None:
            known = self.functions.keys() | self.prototypes.keys()
            self._occurrences = {
                name: body_occurrences(fdef, known)
                for name, fdef in self.functions.items()
            }
        return self._occurrences

    def initializer_names(self) -> set[str]:
        """All identifier names occurring in global initializers."""
        return {
            e.name
            for decl in self.globals.values()
            if decl.init is not None
            for e in expressions_of(decl.init)
            if type(e) is Ident
        }

    def library_prototypes(
        self, named: frozenset[str] = frozenset()
    ) -> list[FuncDecl]:
        """The undefined prototypes whose name occurs in a function body
        or a global initializer, or is in ``named``, in declaration
        order.  Section 4.2's library rule is about what a *call* might
        do, so a prototype nothing mentions constrains nothing."""
        mentioned = self.initializer_names().union(
            named, *(o.names for o in self.occurrences().values())
        )
        return [
            proto
            for name, proto in self.prototypes.items()
            if name in mentioned and name not in self.functions
        ]

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


def expressions_of(node: CStmt | CExpr) -> list[CExpr]:
    """Every expression syntactically inside a statement tree (declaration
    initialisers included) or an expression, in pre-order: each
    statement's own expressions (:func:`statement_expressions`) before
    its sub-statements, each expression before its operands.

    One explicit-stack walk that returns a list: the function dependence
    graph walks every body, and a generator chain per nesting level
    costs a resumption per node per level."""
    out: list[CExpr] = []
    stack: list = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        cls = type(node)
        if isinstance(node, CExpr):
            out.append(node)
            # children pushed last-first, so they pop in source order
            if cls is Ident or cls is IntConst or cls is StringConst:
                continue
            if cls is Call:
                stack.extend(reversed(node.args))
                push(node.func)
            elif cls is Binary or cls is Comma:
                push(node.right)
                push(node.left)
            elif cls is Unary or cls is Cast:
                push(node.operand)
            elif cls is Member:
                push(node.base)
            elif cls is Assignment:
                push(node.value)
                push(node.target)
            elif cls is Index:
                push(node.index)
                push(node.base)
            elif cls is Conditional:
                push(node.other)
                push(node.then)
                push(node.cond)
            elif cls is InitList:
                stack.extend(reversed(node.items))
        elif cls is Compound:
            stack.extend(reversed(node.body))
        elif cls is ExprStmt:
            push(node.expr)
        elif cls is DeclStmt:
            stack.extend(
                decl.init for decl in reversed(node.decls) if decl.init is not None
            )
        elif cls is ReturnStmt:
            if node.value is not None:
                push(node.value)
        elif cls is IfStmt:
            if node.other is not None:
                push(node.other)
            push(node.then)
            push(node.cond)
        elif cls is WhileStmt or cls is DoWhileStmt:
            push(node.body)
            push(node.cond)
        elif cls is ForStmt:
            push(node.body)
            init = node.init
            if isinstance(init, DeclStmt):
                push(init)
            if node.step is not None:
                push(node.step)
            if node.cond is not None:
                push(node.cond)
            if init is not None and not isinstance(init, DeclStmt):
                push(init)
        elif cls is SwitchStmt:
            push(node.body)
            push(node.value)
        elif cls is CaseStmt:
            push(node.stmt)
            if node.value is not None:
                push(node.value)
        elif cls is LabeledStmt:
            push(node.stmt)
    return out


@dataclass
class BodyOccurrences:
    """What one walk of a function body records."""

    #: every identifier occurring in the body (Definition 4's
    #: "occurrence of the name g", calls or not)
    names: set[str]
    #: names called directly: ``f(...)`` with ``f`` a plain identifier
    callees: set[str]
    #: names occurring outside direct-callee position.  C decays a
    #: function name to a pointer everywhere but a direct call, so this
    #: is the body's conservative "address taken" set (assignment,
    #: argument passing, explicit ``&f``, ...)
    values: set[str]
    #: calls whose callee is not the name of a function the program
    #: defines or declares — calls through function-pointer values —
    #: in walk order
    indirect_calls: tuple[Call, ...]
    #: cast expressions in the body
    casts: int


def body_occurrences(fdef: FuncDef, known: AbstractSet[str]) -> BodyOccurrences:
    """One walk of ``fdef``'s body; ``known`` names the functions the
    program defines or declares.  The AST is a tree, so node identity
    tells the same name used as callee and as value apart."""
    exprs = expressions_of(fdef.body)
    callees: set[str] = set()
    callee_nodes: set[int] = set()
    indirect: list[Call] = []
    casts = 0
    for e in exprs:
        cls = type(e)
        if cls is Call:
            func = e.func
            if type(func) is Ident:
                callees.add(func.name)
                callee_nodes.add(id(func))
                if func.name in known:
                    continue
            indirect.append(e)
        elif cls is Cast:
            casts += 1
    idents = [e for e in exprs if type(e) is Ident]
    return BodyOccurrences(
        names={e.name for e in idents},
        callees=callees,
        values={e.name for e in idents if id(e) not in callee_nodes},
        indirect_calls=tuple(indirect),
        casts=casts,
    )


def local_declarations(fdef: FuncDef) -> list[VarDecl]:
    """Every declaration in a function body, each once, in pre-order:
    a ``for``-init declaration is listed where :func:`statements`
    visits it, ahead of the loop body's."""
    return [
        decl
        for stmt in statements(fdef.body)
        if type(stmt) is DeclStmt
        for decl in stmt.decls
    ]
