"""The linker model: C linkage rules over parsed translation units.

Linking several translation units means building one program-level
symbol table:

* **external linkage** (the default) — every declaration of a name
  refers to one program-wide symbol; ``extern`` declarations merge with
  the defining TU's definition;
* **internal linkage** (``static``) — the name is private to its TU.
  We implement this by deterministically renaming each static symbol to
  ``name@unit`` (``@`` cannot appear in a C identifier, so renamed
  symbols can never collide with source names) and rewriting every
  reference inside the unit, scope-aware, so two files may each define
  a ``static int counter`` without sharing qualifiers;
* **conflicts** — two external declarations of one symbol with
  structurally different qualified types (``const`` lives in the
  :mod:`repro.cfront.ctypes` terms, so qualifier conflicts are type
  conflicts), or two external *definitions* of one symbol, produce a
  :class:`LinkDiagnostic`.  Linking continues with the first definition,
  mirroring a linker's best-effort behaviour, so one bad symbol does not
  hide every other finding.

The result, :class:`LinkedProgram`, carries the merged
:class:`~repro.cfront.sema.Program` plus the map from every defined
function to its home unit — the input the cross-TU scheduler groups by.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from ..cfront import cast as ast
from ..cfront.cast import (
    CaseStmt,
    Compound,
    DeclStmt,
    DoWhileStmt,
    EnumDef,
    ExprStmt,
    ForStmt,
    FuncDecl,
    FuncDef,
    Ident,
    IfStmt,
    LabeledStmt,
    ParamDecl,
    ReturnStmt,
    StructDef,
    SwitchStmt,
    TranslationUnit,
    TypedefDecl,
    VarDecl,
    WhileStmt,
)
from ..cfront.cparser import parse_c, parse_files
from ..cfront.ctypes import CArray, CFunc, CType, format_ctype
from ..cfront.sema import Program

#: Separator between a static symbol's source name and its unit label.
#: ``@`` is not a C identifier character, so renamed statics can never
#: collide with any source-level name.
STATIC_SEPARATOR = "@"


@dataclass(frozen=True)
class LinkDiagnostic:
    """One linker-level finding (conflicting types, multiple definition)."""

    kind: str  # "conflicting-types" | "multiple-definition"
    symbol: str
    message: str
    file: str = ""
    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class LinkedSymbol:
    """One resolved program-level symbol."""

    name: str  # program-level name (statics carry the unit suffix)
    source_name: str  # the name as written in the source
    kind: str  # "function" | "object"
    linkage: str  # "external" | "internal"
    defining_unit: str | None  # filename of the defining TU, if any
    declaring_units: tuple[str, ...] = ()


@dataclass
class LinkedProgram:
    """Several translation units linked into one analysable program."""

    program: Program
    units: list[TranslationUnit]
    unit_names: list[str]
    sources: dict[str, str] = field(default_factory=dict)
    symbols: dict[str, LinkedSymbol] = field(default_factory=dict)
    diagnostics: list[LinkDiagnostic] = field(default_factory=list)
    #: Program-level function name -> filename of its home unit.
    tu_of_function: dict[str, str] = field(default_factory=dict)

    def internal_symbols(self) -> list[LinkedSymbol]:
        return [s for s in self.symbols.values() if s.linkage == "internal"]

    def exported_functions(self) -> list[str]:
        return sorted(
            name
            for name, symbol in self.symbols.items()
            if symbol.kind == "function"
            and symbol.linkage == "external"
            and symbol.defining_unit is not None
        )


# ---------------------------------------------------------------------------
# Static renaming: scope-aware identifier rewriting
# ---------------------------------------------------------------------------


def _unit_labels(names: list[str]) -> list[str]:
    """A short, unique, deterministic label per unit (the filename stem;
    duplicated stems get a positional suffix)."""
    stems = [Path(name).stem or f"unit{i}" for i, name in enumerate(names)]
    seen: dict[str, int] = {}
    labels: list[str] = []
    for stem in stems:
        count = seen.get(stem, 0)
        seen[stem] = count + 1
        labels.append(stem if count == 0 else f"{stem}~{count + 1}")
    return labels


def _rewrite_expr(e: ast.CExpr, renames: dict[str, str]) -> ast.CExpr:
    """Rebuild an expression with every free occurrence of a renamed
    identifier replaced.  Shadowing was already resolved by the caller
    (``renames`` holds only the names visible at this point)."""
    if isinstance(e, Ident):
        new = renames.get(e.name)
        return replace(e, name=new) if new is not None else e
    changes: dict[str, object] = {}
    for name in type(e).__dataclass_fields__:
        value = getattr(e, name)
        if isinstance(value, ast.CExpr):
            rewritten = _rewrite_expr(value, renames)
            if rewritten is not value:
                changes[name] = rewritten
        elif isinstance(value, tuple) and value and isinstance(value[0], ast.CExpr):
            rewritten_items = tuple(_rewrite_expr(item, renames) for item in value)
            if any(a is not b for a, b in zip(rewritten_items, value)):
                changes[name] = rewritten_items
    return replace(e, **changes) if changes else e


def _rewrite_opt_expr(
    e: ast.CExpr | None, renames: dict[str, str]
) -> ast.CExpr | None:
    return None if e is None else _rewrite_expr(e, renames)


def _rewrite_decl(decl: VarDecl, renames: dict[str, str]) -> VarDecl:
    init = _rewrite_opt_expr(decl.init, renames)
    return replace(decl, init=init) if init is not decl.init else decl


def _rewrite_stmt(s: ast.CStmt, renames: dict[str, str]) -> ast.CStmt:
    """Statement rewriting with C block scoping: a local declaration of a
    renamed name shadows it for the rest of the enclosing block (and for
    its own initializer, matching C's point-of-declaration rule)."""
    match s:
        case Compound(body=body):
            scope = dict(renames)
            out: list[ast.CStmt] = []
            changed = False
            for child in body:
                if isinstance(child, DeclStmt):
                    rewritten = _rewrite_declstmt(child, scope)
                else:
                    rewritten = _rewrite_stmt(child, scope)
                changed = changed or rewritten is not child
                out.append(rewritten)
            return replace(s, body=tuple(out)) if changed else s
        case DeclStmt():
            return _rewrite_declstmt(s, dict(renames))
        case ExprStmt(expr=e):
            rewritten_e = _rewrite_expr(e, renames)
            return replace(s, expr=rewritten_e) if rewritten_e is not e else s
        case IfStmt(cond=c, then=t, other=o):
            return replace(
                s,
                cond=_rewrite_expr(c, renames),
                then=_rewrite_stmt(t, renames),
                other=None if o is None else _rewrite_stmt(o, renames),
            )
        case WhileStmt(cond=c, body=b):
            return replace(
                s, cond=_rewrite_expr(c, renames), body=_rewrite_stmt(b, renames)
            )
        case DoWhileStmt(body=b, cond=c):
            return replace(
                s, body=_rewrite_stmt(b, renames), cond=_rewrite_expr(c, renames)
            )
        case ForStmt(init=init, cond=cond, step=step, body=b):
            scope = dict(renames)
            if isinstance(init, DeclStmt):
                new_init: object = _rewrite_declstmt(init, scope)
            else:
                new_init = _rewrite_opt_expr(init, scope)
            return replace(
                s,
                init=new_init,
                cond=_rewrite_opt_expr(cond, scope),
                step=_rewrite_opt_expr(step, scope),
                body=_rewrite_stmt(b, scope),
            )
        case ReturnStmt(value=v):
            rewritten_v = _rewrite_opt_expr(v, renames)
            return replace(s, value=rewritten_v) if rewritten_v is not v else s
        case SwitchStmt(value=v, body=b):
            return replace(
                s, value=_rewrite_expr(v, renames), body=_rewrite_stmt(b, renames)
            )
        case CaseStmt(value=v, stmt=inner):
            return replace(
                s,
                value=_rewrite_opt_expr(v, renames),
                stmt=_rewrite_stmt(inner, renames),
            )
        case LabeledStmt(stmt=inner):
            rewritten_inner = _rewrite_stmt(inner, renames)
            return replace(s, stmt=rewritten_inner) if rewritten_inner is not inner else s
        case _:
            return s


def _rewrite_declstmt(s: DeclStmt, scope: dict[str, str]) -> DeclStmt:
    """Rewrite a local declaration statement, *mutating* ``scope`` to
    drop renames shadowed by the declared names (C scoping: each name
    shadows from its own declarator onward, its initializer included)."""
    decls: list[VarDecl] = []
    changed = False
    for decl in s.decls:
        scope.pop(decl.name, None)
        rewritten = _rewrite_decl(decl, scope)
        changed = changed or rewritten is not decl
        decls.append(rewritten)
    return replace(s, decls=tuple(decls)) if changed else s


def _rewrite_funcdef(fdef: FuncDef, renames: dict[str, str]) -> FuncDef:
    scope = dict(renames)
    for param in fdef.params:
        if param.name:
            scope.pop(param.name, None)
    new_name = renames.get(fdef.name, fdef.name)
    body = _rewrite_stmt(fdef.body, scope)
    if new_name == fdef.name and body is fdef.body:
        return fdef
    assert isinstance(body, Compound)
    return replace(fdef, name=new_name, body=body)


def _rename_unit(unit: TranslationUnit, renames: dict[str, str]) -> TranslationUnit:
    """Apply a static-rename map to one unit's top level and bodies."""
    if not renames:
        return unit
    items: list[ast.TopLevel] = []
    for item in unit.items:
        if isinstance(item, FuncDef):
            items.append(_rewrite_funcdef(item, renames))
        elif isinstance(item, FuncDecl):
            new = renames.get(item.name)
            items.append(replace(item, name=new) if new is not None else item)
        elif isinstance(item, VarDecl):
            rewritten = _rewrite_decl(item, renames)
            new = renames.get(item.name)
            if new is not None:
                rewritten = replace(rewritten, name=new)
            items.append(rewritten)
        else:
            items.append(item)
    return TranslationUnit(items=items, filename=unit.filename)


# ---------------------------------------------------------------------------
# Conflict detection
# ---------------------------------------------------------------------------


#: Linkage-compatibility key for a symbol's type: a function's
#: ``(return, parameter types, varargs)`` or an object's ``(type,)``.
_TypeKey = tuple[object, ...]


def _strip_array_sizes(t: CType) -> CType:
    """Array sizes do not participate in linkage compatibility
    (``extern int a[];`` completes against ``int a[10];``)."""
    if isinstance(t, CArray):
        return replace(t, element=_strip_array_sizes(t.element), size=None)
    return t


def _function_type_key(
    ret: CType, params: tuple[ParamDecl, ...], varargs: bool
) -> _TypeKey:
    # Compare parameter *types*, not ParamDecls — parameter names differ
    # freely between declaration and definition.
    return (ret, tuple(_strip_array_sizes(p.type) for p in params), varargs)


def _describe_function_type(
    ret: CType, params: tuple[ParamDecl, ...], varargs: bool
) -> str:
    rendered = [format_ctype(p.type) for p in params]
    if varargs:
        rendered.append("...")
    return f"{format_ctype(ret)} ({', '.join(rendered)})"


@dataclass
class _SymbolSightings:
    """Every external declaration/definition of one name across units."""

    kind: str  # "function" | "object"
    #: (unit, type key, human-readable type, is_definition, line, column)
    sightings: list[tuple[str, _TypeKey, str, bool, int, int]] = field(
        default_factory=list
    )


def _collect_external_sightings(
    units: list[TranslationUnit],
) -> dict[str, _SymbolSightings]:
    table: dict[str, _SymbolSightings] = {}

    def sight(
        name: str, kind: str, unit: str, key: _TypeKey, shown: str,
        is_def: bool, line: int, col: int,
    ) -> None:
        entry = table.get(name)
        if entry is None:
            entry = table[name] = _SymbolSightings(kind)
        entry.sightings.append((unit, key, shown, is_def, line, col))

    for unit in units:
        for item in unit.items:
            if isinstance(item, (StructDef, EnumDef, TypedefDecl)):
                continue
            if getattr(item, "storage", None) == "static":
                continue
            if isinstance(item, FuncDef):
                sight(
                    item.name, "function", unit.filename,
                    _function_type_key(item.ret, item.params, item.varargs),
                    _describe_function_type(item.ret, item.params, item.varargs),
                    True, item.line, item.col,
                )
            elif isinstance(item, FuncDecl):
                sight(
                    item.name, "function", unit.filename,
                    _function_type_key(item.ret, item.params, item.varargs),
                    _describe_function_type(item.ret, item.params, item.varargs),
                    False, item.line, item.col,
                )
            elif isinstance(item, VarDecl):
                # ``extern`` (and tentative) declarations merge; an
                # initializer makes this the definition.
                sight(
                    item.name, "object", unit.filename,
                    (_strip_array_sizes(item.type),),
                    format_ctype(item.type),
                    item.init is not None, item.line, item.col,
                )
    return table


def _diagnose(table: dict[str, _SymbolSightings]) -> list[LinkDiagnostic]:
    diagnostics: list[LinkDiagnostic] = []
    for name in sorted(table):
        entry = table[name]
        definitions = [s for s in entry.sightings if s[3]]
        if len(definitions) > 1:
            first = definitions[0]
            for unit, _key, _shown, _is_def, line, col in definitions[1:]:
                diagnostics.append(
                    LinkDiagnostic(
                        kind="multiple-definition",
                        symbol=name,
                        message=(
                            f"multiple definition of '{name}' "
                            f"(first defined in {first[0]})"
                        ),
                        file=unit,
                        line=line,
                        column=col,
                    )
                )
        reference = entry.sightings[0]
        for unit, key, shown, _is_def, line, col in entry.sightings[1:]:
            if key != reference[1]:
                diagnostics.append(
                    LinkDiagnostic(
                        kind="conflicting-types",
                        symbol=name,
                        message=(
                            f"conflicting types for '{name}': "
                            f"'{shown}' here, "
                            f"'{reference[2]}' in {reference[0]}"
                        ),
                        file=unit,
                        line=line,
                        column=col,
                    )
                )
    return diagnostics


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def link_units(
    units: list[TranslationUnit], sources: dict[str, str] | None = None
) -> LinkedProgram:
    """Link parsed translation units into one :class:`LinkedProgram`."""
    unit_names = [unit.filename for unit in units]
    labels = _unit_labels(unit_names)

    symbols: dict[str, LinkedSymbol] = {}
    renamed_units: list[TranslationUnit] = []
    for unit, label in zip(units, labels):
        renames: dict[str, str] = {}
        for item in unit.items:
            if isinstance(item, (FuncDef, FuncDecl, VarDecl)):
                if item.storage == "static" and item.name not in renames:
                    renames[item.name] = f"{item.name}{STATIC_SEPARATOR}{label}"
        renamed_units.append(_rename_unit(unit, renames))
        for source_name, linked_name in sorted(renames.items()):
            is_function = any(
                isinstance(item, (FuncDef, FuncDecl)) and item.name == source_name
                for item in unit.items
            )
            symbols[linked_name] = LinkedSymbol(
                name=linked_name,
                source_name=source_name,
                kind="function" if is_function else "object",
                linkage="internal",
                defining_unit=unit.filename,
                declaring_units=(unit.filename,),
            )

    table = _collect_external_sightings(units)
    diagnostics = _diagnose(table)
    for name in sorted(table):
        entry = table[name]
        defining = next((s[0] for s in entry.sightings if s[3]), None)
        symbols[name] = LinkedSymbol(
            name=name,
            source_name=name,
            kind=entry.kind,
            linkage="external",
            defining_unit=defining,
            declaring_units=tuple(dict.fromkeys(s[0] for s in entry.sightings)),
        )

    program = Program.from_units(renamed_units)

    tu_of_function: dict[str, str] = {}
    for unit in renamed_units:
        for item in unit.items:
            if isinstance(item, FuncDef):
                tu_of_function.setdefault(item.name, unit.filename)
    # Program._add renames colliding definitions with a __dup suffix; map
    # those to the unit that contributed them (deterministic re-walk).
    for name, fdef in program.functions.items():
        tu_of_function.setdefault(name, fdef.file or "<input>")

    return LinkedProgram(
        program=program,
        units=renamed_units,
        unit_names=unit_names,
        sources=dict(sources or {}),
        symbols=symbols,
        diagnostics=diagnostics,
        tu_of_function=tu_of_function,
    )


def link_sources(sources: dict[str, str]) -> LinkedProgram:
    """Parse and link named source texts (filename -> C source)."""
    units = [parse_c(text, name) for name, text in sources.items()]
    return link_units(units, sources=sources)


def link_paths(paths: list[str | Path]) -> LinkedProgram:
    """Discover, parse, and link every ``.c`` file reachable from
    ``paths`` (explicit files plus recursive directory walks, sorted).

    Raises :class:`~repro.cfront.cparser.CFileError`, naming the file,
    when one is unreadable or fails to lex or parse.
    """
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(path.rglob("*.c"))
        else:
            files.add(path)
    sources, units = parse_files(sorted(files))
    return link_units(units, sources=sources)
