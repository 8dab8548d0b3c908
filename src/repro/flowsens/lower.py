"""Lowering cfront function bodies into the flowsens language.

The flow-sensitive engine (:mod:`repro.flowsens.analysis`) analyzes a small
imperative language of strongly-updated scalars and weakly-updated heap
cells.  This module translates each :class:`repro.cfront.cast.FuncDef`
body into that language so the Section 6 prototype runs over *real* C:

* scalar assignments become :class:`Assign` (strong updates);
* pointer-typed declarations and parameters become :class:`NewCell`
  with synthetic sites (``param:p`` / ``decl:p``), allocator calls
  become :class:`NewCell` with a recorded allocation site;
* pointer copies between tracked variables become :class:`CopyPtr`,
  loads and stores through tracked pointers become :class:`LoadCell` /
  :class:`StoreCell` against the per-site cells;
* ``if``/``while``/``do``/``for`` become :class:`If` / :class:`While`
  on a synthesized condition variable, with null-test refinement
  (``if (!p) ...`` zeroes ``p`` in the null branch);
* resource events are made explicit for the linearity pack
  (:mod:`repro.flowsens.linear`): :class:`FreeCell` at releaser calls,
  :class:`UseCell` at dereferences / borrowing calls / returns,
  :class:`ExitPoint` at every function exit;
* anything the lowering cannot model (taking an address, passing a
  pointer to an unknown callee, storing it into the heap) *escapes* the
  pointer — a :class:`Havoc` that clears all inferred facts — so
  best-effort ingestion composes without false positives.

``goto`` and ``switch`` mark the function *unstructured*; the lowering
still produces a best-effort body (value packs and the suggestion mode
keep working) but the linearity pack skips unstructured functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, TypeVar, Union

if TYPE_CHECKING:
    from .ownership import OwnershipSummary

from ..cfront.cast import (
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
    ExprStmt,
    FloatConst,
    ForStmt,
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
    SwitchStmt,
    Unary,
    VarDecl,
    WhileStmt,
)
from ..cfront.ctypes import CArray, CPointer, CType
from ..cfront.sema import subexpressions
from ..qual.lattice import LatticeElement, LatticeError, QualifierLattice
from .language import (
    Assign,
    Block,
    CallVia,
    CopyPtr,
    ExitPoint,
    FlowExpr,
    FlowStmt,
    FreeCell,
    Havoc,
    If,
    Join,
    Literal,
    LoadCell,
    NewCell,
    StoreCell,
    UseCell,
    VarRef,
    While,
)

# ---------------------------------------------------------------------------
# Policy: which callees allocate, release, or merely borrow.
# ---------------------------------------------------------------------------

#: Allocators: the returned pointer owns a fresh resource of this kind.
DEFAULT_ALLOCATORS: Mapping[str, str] = {
    "malloc": "heap",
    "calloc": "heap",
    "realloc": "heap",
    "strdup": "heap",
    "strndup": "heap",
    "fopen": "file",
    "fdopen": "file",
}

#: Releasers: calling one discharges the obligation of the given
#: argument index.
DEFAULT_RELEASERS: Mapping[str, int] = {
    "free": 0,
    "realloc": 0,
    "fclose": 0,
}

#: Borrowers observe their pointer arguments without taking ownership:
#: a call is a *use* (use-after-free checked) but not an escape.
DEFAULT_BORROWERS: frozenset[str] = frozenset(
    {
        "memcpy",
        "memmove",
        "memset",
        "memcmp",
        "strcmp",
        "strncmp",
        "strcasecmp",
        "strlen",
        "strcpy",
        "strncpy",
        "strcat",
        "strncat",
        "strchr",
        "strrchr",
        "strstr",
        "printf",
        "fprintf",
        "sprintf",
        "snprintf",
        "sscanf",
        "puts",
        "fputs",
        "fputc",
        "putchar",
        "fwrite",
        "fread",
        "fgets",
        "fflush",
        "atoi",
        "atol",
        "strtol",
        "strtoul",
        "qsort",
        "abort",
        "exit",
    }
)

#: Value-pack seeds: calls whose result carries a qualifier when the
#: analysis lattice knows it (ignored otherwise).  Lets the suggestion
#: mode rank ``tainted`` / ``dynamic`` over lowered programs.
DEFAULT_SOURCES: Mapping[str, tuple[str, ...]] = {
    "getenv": ("tainted",),
    "gets": ("tainted",),
    "fgets": ("tainted",),
    "read": ("tainted",),
    "recv": ("tainted",),
    "getchar": ("dynamic",),
    "rand": ("dynamic",),
    "time": ("dynamic",),
}


@dataclass(frozen=True)
class LowerPolicy:
    """Which callees allocate / release / borrow, and which seed values."""

    allocators: Mapping[str, str] = field(
        default_factory=lambda: DEFAULT_ALLOCATORS
    )
    releasers: Mapping[str, int] = field(
        default_factory=lambda: DEFAULT_RELEASERS
    )
    borrowers: frozenset[str] = DEFAULT_BORROWERS
    sources: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: DEFAULT_SOURCES
    )
    #: Inferred ownership summaries of resolved callees, by program-level
    #: name (:mod:`repro.flowsens.ownership`).  A summarised call site
    #: lowers to the callee's declared effect (``FreeCell`` / ``UseCell``
    #: / ``NewCell``) instead of the unknown-callee havoc; only callees
    #: absent here keep the escape firewall.
    summaries: Mapping[str, "OwnershipSummary"] = field(default_factory=dict)


DEFAULT_POLICY = LowerPolicy()


@dataclass(frozen=True)
class AllocSite:
    """One allocation site recorded during lowering."""

    site: str
    callee: str
    kind: str
    file: str
    line: int
    col: int


@dataclass
class LoweredFunction:
    """A cfront function body translated into the flowsens language."""

    name: str
    file: str
    line: int
    col: int
    body: Block
    params: tuple[str, ...]
    #: Pointer-typed locals and parameters (the leak-obligation set).
    pointer_vars: frozenset[str]
    #: site label -> allocation metadata, for every allocator call.
    alloc_sites: dict[str, AllocSite]
    #: ``goto`` / ``switch`` present: resource findings are disabled.
    unstructured: bool
    #: Human-readable notes about lowering degradations (havocs etc.).
    notes: tuple[str, ...]
    #: Call sites where an unknown callee escaped a pointer argument —
    #: the residual havoc count after summary substitution.  Feeds the
    #: suggestion mode's confidence discount.
    escape_calls: int = 0

    @property
    def stmt_count(self) -> int:
        def count(stmts: Sequence[FlowStmt]) -> int:
            n = 0
            for s in stmts:
                n += 1
                if isinstance(s, If):
                    n += count(s.then) + count(s.else_)
                elif isinstance(s, While):
                    n += count(s.body)
            return n

        return count(self.body)


_Spanned = Union[CExpr, CStmt, VarDecl, ParamDecl]
_S = TypeVar("_S", bound=FlowStmt)


def _is_pointer_type(ct: CType) -> bool:
    return isinstance(ct, (CPointer, CArray))


def _strip(e: CExpr) -> CExpr:
    """Peel casts and comma chains down to the interesting operand."""
    while True:
        if isinstance(e, Cast):
            e = e.operand
        elif isinstance(e, Comma):
            e = e.right
        else:
            return e


def _is_null(e: CExpr) -> bool:
    e = _strip(e)
    if isinstance(e, IntConst) and e.value == 0:
        return True
    if isinstance(e, Ident) and e.name == "NULL":
        return True
    return False


def _idents_in(e: CExpr) -> list[str]:
    """Every identifier mentioned anywhere inside ``e`` (for escapes)."""
    return [x.name for x in subexpressions(e) if isinstance(x, Ident)]


class _Lowerer:
    def __init__(
        self,
        fdef: FuncDef,
        lattice: QualifierLattice,
        policy: LowerPolicy,
    ) -> None:
        self.f = fdef
        self.lattice = lattice
        self.policy = policy
        self.bottom = Literal(lattice.bottom)
        #: variables with a points-to entry (CopyPtr / LoadCell-safe)
        self.tracked: set[str] = set()
        #: variables with a scalar value entry (VarRef-safe)
        self.known: set[str] = set()
        self.pointer_vars: set[str] = set()
        self.alloc_sites: dict[str, AllocSite] = {}
        self.notes: list[str] = []
        self.unstructured = False
        self.escape_calls = 0
        self._counter = itertools.count()

    # -- helpers ----------------------------------------------------------
    def _at(self, stmt: _S, node: _Spanned) -> _S:
        """Stamp a lowered statement with the C node's source span."""
        return replace(stmt, line=node.line, col=node.col, file=self.f.file)

    def _tmp(self, prefix: str) -> str:
        # '%' is not legal in C identifiers, so temps never collide.
        return f"%{prefix}{next(self._counter)}"

    def _note(self, text: str) -> None:
        if text not in self.notes:
            self.notes.append(text)

    def _source_element(
        self, names: tuple[str, ...]
    ) -> Optional[LatticeElement]:
        el = self.lattice.bottom
        seeded = False
        for n in names:
            try:
                el = self.lattice.join(el, self.lattice.atom(n))
                seeded = True
            except LatticeError:
                continue
        return el if seeded else None

    def _fresh_var(self, name: str, at: _Spanned) -> list[FlowStmt]:
        """Define ``name`` with an unknown value (and drop pointer facts)."""
        self.known.add(name)
        self.tracked.discard(name)
        return [
            self._at(Assign(target=name, value=self.bottom), at),
            self._at(Havoc(target=name), at),
        ]

    def _escape(self, name: str, at: _Spanned) -> list[FlowStmt]:
        """``name`` escapes: some unknown party may now own / mutate it."""
        if name not in self.known:
            return []
        self.tracked.discard(name)
        return [self._at(Havoc(target=name), at)]

    def _use(self, name: str, at: _Spanned) -> list[FlowStmt]:
        if name in self.known and name in self.pointer_vars:
            return [self._at(UseCell(pointer=name), at)]
        return []

    def _owns_pointer(self, e: CExpr) -> bool:
        """Whether evaluating ``e`` may yield an owned pointer value."""
        return any(n in self.pointer_vars for n in _idents_in(e))

    # -- expressions ------------------------------------------------------
    def _expr(self, e: CExpr) -> tuple[list[FlowStmt], FlowExpr]:
        match e:
            case Ident(name=name):
                if name in self.known:
                    return [], VarRef(name)
                return [], self.bottom
            case (
                IntConst()
                | FloatConst()
                | CharConst()
                | StringConst()
                | SizeofType()
            ):
                return [], self.bottom
            case Cast(operand=operand):
                return self._expr(operand)
            case Comma(left=left, right=right):
                pre, _ = self._expr(left)
                pre2, v = self._expr(right)
                return pre + pre2, v
            case Unary(op="*", operand=operand):
                return self._load(operand, e)
            case Unary(op="&", operand=operand):
                pre, _ = self._expr(operand)
                # Taking an address: whoever receives it may mutate or
                # free the object, so the named pointer escapes.
                target = _strip(operand)
                if isinstance(target, Ident):
                    pre += self._escape(target.name, e)
                return pre, self.bottom
            case Unary(op=op, operand=operand):
                pre, v = self._expr(operand)
                if op in ("++", "--"):
                    target = _strip(operand)
                    if isinstance(target, Ident) and target.name in self.known:
                        # in-place update: conservatively re-assign
                        pre.append(
                            self._at(
                                Assign(
                                    target=target.name,
                                    value=VarRef(target.name),
                                ),
                                e,
                            )
                        )
                        self.tracked.discard(target.name)
                return pre, v
            case Binary(left=left, right=right):
                pre_l, vl = self._expr(left)
                pre_r, vr = self._expr(right)
                return pre_l + pre_r, Join(vl, vr)
            case Conditional(cond=cond, then=then, other=other):
                pre, _ = self._expr(cond)
                pre_t, vt = self._expr(then)
                pre_o, vo = self._expr(other)
                return pre + pre_t + pre_o, Join(vt, vo)
            case Index(base=base, index=index):
                pre_i, _ = self._expr(index)
                pre, v = self._load(base, e)
                return pre_i + pre, v
            case Member():
                return self._load_member(e)
            case Assignment():
                stmts, name = self._assignment(e)
                if name is not None and name in self.known:
                    return stmts, VarRef(name)
                return stmts, self.bottom
            case Call():
                return self._call(e)
            case InitList(items=items):
                pre = []
                for item in items:
                    p, _ = self._expr(item)
                    pre += p
                return pre, self.bottom
            case _:
                self._note(f"opaque expression {type(e).__name__}")
                return [], self.bottom

    def _load(
        self, pointer: CExpr, at: CExpr
    ) -> tuple[list[FlowStmt], FlowExpr]:
        """A read through ``*pointer`` / ``pointer[i]``."""
        target = _strip(pointer)
        if isinstance(target, Ident) and target.name in self.known:
            pre = self._use(target.name, at)
            if target.name in self.tracked:
                tmp = self._tmp("t")
                pre.append(
                    self._at(LoadCell(target=tmp, pointer=target.name), at)
                )
                self.known.add(tmp)
                return pre, VarRef(tmp)
            return pre, self.bottom
        pre, _ = self._expr(target)
        return pre, self.bottom

    def _load_member(self, e: Member) -> tuple[list[FlowStmt], FlowExpr]:
        base = _strip(e.base)
        if e.arrow and isinstance(base, Ident) and base.name in self.known:
            pre = self._use(base.name, e)
            if base.name in self.tracked:
                tmp = self._tmp("t")
                pre.append(
                    self._at(LoadCell(target=tmp, pointer=base.name), e)
                )
                self.known.add(tmp)
                return pre, VarRef(tmp)
            return pre, self.bottom
        pre, _ = self._expr(e.base)
        return pre, self.bottom

    def _call(self, e: Call) -> tuple[list[FlowStmt], FlowExpr]:
        name = e.func.name if isinstance(e.func, Ident) else None
        pre: list[FlowStmt] = []
        if name is None:
            p, _ = self._expr(e.func)
            pre += p
        for arg in e.args:
            p, _ = self._expr(arg)
            pre += p
        if name is not None and name in self.policy.releasers:
            idx = self.policy.releasers[name]
            if idx < len(e.args):
                released = _strip(e.args[idx])
                if isinstance(released, Ident) and released.name in self.known:
                    pre.append(self._at(FreeCell(pointer=released.name), e))
                else:
                    self._note(f"release of non-variable argument to {name}")
        elif name is not None and name in self.policy.allocators:
            # An allocator call whose result is *not* captured by an
            # assignment (handled in _assign_ident) leaks immediately,
            # but with no variable to track we can only note it.
            self._note(f"uncaptured allocation from {name}")
        elif name is not None and name in self.policy.borrowers:
            for arg in e.args:
                a = _strip(arg)
                if isinstance(a, Ident):
                    pre += self._use(a.name, e)
        elif name is not None and name in self.policy.summaries:
            summary = self.policy.summaries[name]
            pre += self._summary_arg_events(e, summary)
            if summary.returns_owned:
                # Result not captured (handled in _assign_ident): the
                # fresh allocation has no variable to track.
                self._note(f"uncaptured allocation from {name}")
        else:
            # Unknown callee: every pointer argument is used AND escapes
            # (the callee may retain or free it).
            escaped_any = False
            for arg in e.args:
                for ident in _idents_in(arg):
                    if ident in self.pointer_vars:
                        pre += self._use(ident, e)
                        escape = self._escape(ident, e)
                        escaped_any = escaped_any or bool(escape)
                        pre += escape
            if escaped_any:
                self.escape_calls += 1
        value: FlowExpr = self.bottom
        if name is not None and name in self.policy.sources:
            el = self._source_element(self.policy.sources[name])
            if el is not None:
                value = Literal(el)
        return pre, value

    def _summary_arg_events(
        self, e: Call, summary: "OwnershipSummary"
    ) -> list[FlowStmt]:
        """Lower the per-argument effects a callee's ownership summary
        declares: FREES discharges (``FreeCell`` with call-via
        provenance), BORROWS observes (``UseCell``), ESCAPES keeps the
        unknown-callee havoc.  Arguments beyond the summarised
        parameter list (varargs) escape conservatively."""
        from .ownership import PARAM_BORROWS, PARAM_FREES

        via = CallVia(
            callee=summary.name,
            file=summary.file,
            line=summary.line,
            col=summary.col,
        )
        pre: list[FlowStmt] = []
        for i, arg in enumerate(e.args):
            verdict = summary.params[i] if i < len(summary.params) else None
            a = _strip(arg)
            if verdict == PARAM_FREES:
                if isinstance(a, Ident) and a.name in self.known:
                    pre.append(
                        self._at(FreeCell(pointer=a.name, via=via), e)
                    )
                    continue
                self._note(
                    f"release of non-variable argument to {summary.name}"
                )
            elif verdict == PARAM_BORROWS:
                if isinstance(a, Ident):
                    pre += self._use(a.name, e)
                continue
            # ESCAPES / varargs / non-variable FREES argument: firewall.
            for ident in _idents_in(arg):
                if ident in self.pointer_vars:
                    pre += self._use(ident, e)
                    pre += self._escape(ident, e)
        return pre

    # -- assignments ------------------------------------------------------
    def _assignment(self, e: Assignment) -> tuple[list[FlowStmt], Optional[str]]:
        """Lower an assignment; returns (stmts, target-name-if-scalar)."""
        target = e.target
        if e.op != "=":
            # Compound assignment (+=, etc.): read-modify-write.
            pre, rhs = self._expr(e.value)
            t = _strip(target)
            if isinstance(t, Ident) and t.name in self.known:
                pre.append(
                    self._at(
                        Assign(
                            target=t.name, value=Join(VarRef(t.name), rhs)
                        ),
                        e,
                    )
                )
                self.tracked.discard(t.name)
                return pre, t.name
            return pre + self._store(target, rhs, e, e.value), None
        if isinstance(target, Ident):
            stmts, _ = self._assign_ident(target.name, e.value, e)
            return stmts, target.name
        pre, rhs = self._expr(e.value)
        stmts = pre + self._store(target, rhs, e, e.value)
        # Pointer values stored into memory escape: the heap now holds
        # an alias that exits our scope of reasoning.
        for ident in _idents_in(e.value):
            if ident in self.pointer_vars:
                stmts += self._escape(ident, e)
        return stmts, None

    def _assign_ident(
        self, name: str, value: CExpr, at: _Spanned
    ) -> tuple[list[FlowStmt], Optional[str]]:
        rhs = _strip(value)
        # p = malloc(...) and friends: a fresh tracked allocation.
        if isinstance(rhs, Call) and isinstance(rhs.func, Ident):
            callee = rhs.func.name
            if callee in self.policy.allocators:
                pre: list[FlowStmt] = []
                for arg in rhs.args:
                    p, _ = self._expr(arg)
                    pre += p
                if callee in self.policy.releasers:
                    # realloc: releases its pointer argument on success.
                    idx = self.policy.releasers[callee]
                    if idx < len(rhs.args):
                        old = _strip(rhs.args[idx])
                        if (
                            isinstance(old, Ident)
                            and old.name in self.known
                        ):
                            pre.append(
                                self._at(FreeCell(pointer=old.name), rhs)
                            )
                site = (
                    f"{callee}@{rhs.line}:{rhs.col}#{next(self._counter)}"
                )
                self.alloc_sites[site] = AllocSite(
                    site=site,
                    callee=callee,
                    kind=self.policy.allocators[callee],
                    file=self.f.file,
                    line=rhs.line,
                    col=rhs.col,
                )
                pre.append(self._at(NewCell(target=name, site=site), at))
                self.known.add(name)
                self.tracked.add(name)
                self.pointer_vars.add(name)
                return pre, name
            summary = self.policy.summaries.get(callee)
            if summary is not None and summary.returns_owned:
                # p = make_buffer(...): the callee's summary says every
                # return is a fresh owned allocation, so the call site
                # is an allocation site of the summarised kind — the
                # caller inherits the leak obligation.
                pre = []
                for arg in rhs.args:
                    p, _ = self._expr(arg)
                    pre += p
                pre += self._summary_arg_events(rhs, summary)
                site = (
                    f"{callee}@{rhs.line}:{rhs.col}#{next(self._counter)}"
                )
                self.alloc_sites[site] = AllocSite(
                    site=site,
                    callee=callee,
                    kind=summary.returns_kind,
                    file=self.f.file,
                    line=rhs.line,
                    col=rhs.col,
                )
                via = CallVia(
                    callee=summary.name,
                    file=summary.file,
                    line=summary.line,
                    col=summary.col,
                )
                pre.append(
                    self._at(NewCell(target=name, site=site, via=via), at)
                )
                self.known.add(name)
                self.tracked.add(name)
                self.pointer_vars.add(name)
                return pre, name
        # p = q where q is a tracked pointer: alias copy.
        if isinstance(rhs, Ident) and rhs.name in self.tracked:
            self.known.add(name)
            self.tracked.add(name)
            self.pointer_vars.add(name)
            return (
                [self._at(CopyPtr(target=name, source=rhs.name), at)],
                name,
            )
        # x = *p / x = p->f / x = p[i] / any other rhs: a plain value.
        pre, v = self._expr(value)
        pre.append(self._at(Assign(target=name, value=v), at))
        self.known.add(name)
        self.tracked.discard(name)
        return pre, name

    def _store(
        self,
        target: CExpr,
        value: FlowExpr,
        at: _Spanned,
        rhs_expr: Optional[CExpr] = None,
    ) -> list[FlowStmt]:
        """A write through memory: ``*p = v``, ``p->f = v``, ``p[i] = v``."""
        out: list[FlowStmt] = []
        base: Optional[CExpr] = None
        match target:
            case Unary(op="*", operand=operand):
                base = operand
            case Member(base=b, arrow=True):
                base = b
            case Member(base=b, arrow=False):
                p, _ = self._expr(b)
                return p
            case Index(base=b, index=index):
                p, _ = self._expr(index)
                out += p
                base = b
            case _:
                p, _ = self._expr(target)
                return p
        # Storing an owned pointer transfers ownership OUT of this scope
        # (the rhs ident is havocked by the caller); the cell must not
        # re-own it, or loads would resurrect the leak obligation.
        if rhs_expr is not None and self._owns_pointer(rhs_expr):
            value = self.bottom
        ident = _strip(base)
        if isinstance(ident, Ident) and ident.name in self.known:
            out += self._use(ident.name, at)
            if ident.name in self.tracked:
                out.append(
                    self._at(
                        StoreCell(pointer=ident.name, value=value), at
                    )
                )
        else:
            p, _ = self._expr(base)
            out += p
        return out

    # -- conditions -------------------------------------------------------
    def _cond(
        self, e: CExpr, at: _Spanned
    ) -> tuple[list[FlowStmt], str, Optional[str], bool]:
        """Lower a branch condition.

        Returns ``(pre, cond_var, null_var, null_in_then)``: when the
        condition is a null test of a pointer variable, ``null_var``
        names it and ``null_in_then`` says which branch sees NULL.
        """
        pre, v = self._expr(e)
        cvar = self._tmp("c")
        pre.append(self._at(Assign(target=cvar, value=v), at))
        self.known.add(cvar)
        null_var, null_in_then = self._null_test(e)
        return pre, cvar, null_var, null_in_then

    def _null_test(self, e: CExpr) -> tuple[Optional[str], bool]:
        e = _strip(e)
        match e:
            case Unary(op="!", operand=operand):
                return self._pointer_of(operand), True
            case Binary(op="==", left=left, right=right):
                if _is_null(right):
                    return self._pointer_of(left), True
                if _is_null(left):
                    return self._pointer_of(right), True
            case Binary(op="!=", left=left, right=right):
                if _is_null(right):
                    return self._pointer_of(left), False
                if _is_null(left):
                    return self._pointer_of(right), False
            case _:
                name = self._pointer_of(e)
                if name is not None:
                    return name, False
        return None, False

    def _pointer_of(self, e: CExpr) -> Optional[str]:
        e = _strip(e)
        if (
            isinstance(e, Assignment)
            and e.op == "="
            and isinstance(e.target, Ident)
        ):
            e = e.target
        if isinstance(e, Ident) and e.name in self.pointer_vars:
            return e.name
        return None

    def _null_refine(
        self, name: Optional[str], at: _Spanned
    ) -> list[FlowStmt]:
        """In the branch where ``name`` is NULL it holds no resource."""
        if name is None or name not in self.known:
            return []
        return [self._at(Assign(target=name, value=self.bottom), at)]

    # -- statements -------------------------------------------------------
    def _terminates(self, s: Optional[CStmt]) -> bool:
        match s:
            case ReturnStmt() | BreakStmt() | ContinueStmt() | GotoStmt():
                return True
            case Compound(body=body):
                return bool(body) and self._terminates(body[-1])
            case IfStmt(then=then, other=other):
                return (
                    other is not None
                    and self._terminates(then)
                    and self._terminates(other)
                )
            case LabeledStmt(stmt=stmt):
                return self._terminates(stmt)
            case _:
                return False

    def _body_of(self, s: Optional[CStmt]) -> list[CStmt]:
        if s is None:
            return []
        if isinstance(s, Compound):
            return list(s.body)
        return [s]

    def _seq(self, stmts: Sequence[CStmt]) -> list[FlowStmt]:
        out: list[FlowStmt] = []
        for i, s in enumerate(stmts):
            rest = stmts[i + 1 :]
            if isinstance(s, IfStmt):
                consumed = self._if(s, rest, out)
                if consumed:
                    return out
                continue
            if isinstance(s, ReturnStmt):
                out += self._return(s)
                return out  # anything after a return is unreachable
            if isinstance(s, (BreakStmt, ContinueStmt)):
                # Within this straight-line sequence nothing after a
                # break/continue runs; the loop-head merge approximates
                # the actual control transfer.
                return out
            out += self._stmt(s)
        return out

    def _if(
        self, s: IfStmt, rest: Sequence[CStmt], out: list[FlowStmt]
    ) -> bool:
        """Lower an if; returns True when ``rest`` was folded in.

        When exactly one branch terminates (the early-return idiom),
        the statements *after* the if only run on the other path, so
        they are folded into that branch — this is what lets the
        resource pack see ``if (!p) return -1;`` as a clean split
        between the NULL path and the continue-with-p path.
        """
        pre, cvar, null_var, null_in_then = self._cond(s.cond, s)
        out += pre
        then_terminates = self._terminates(s.then)
        else_terminates = s.other is not None and self._terminates(s.other)

        saved_tracked, saved_known = set(self.tracked), set(self.known)

        then_b = self._null_refine(null_var, s) if null_in_then else []
        then_b += self._seq(self._body_of(s.then))
        then_tracked, then_known = self.tracked, self.known

        self.tracked, self.known = set(saved_tracked), set(saved_known)
        else_b = [] if null_in_then else self._null_refine(null_var, s)
        else_b += self._seq(self._body_of(s.other))

        consumed = False
        if rest and then_terminates and not else_terminates:
            else_b += self._seq(list(rest))
            consumed = True
        elif rest and else_terminates and not then_terminates:
            # rest runs only on the then path: restore its exact facts.
            self.tracked = set(then_tracked)
            self.known = set(then_known)
            then_b += self._seq(list(rest))
            consumed = True
        elif then_terminates and else_terminates:
            consumed = bool(rest)

        self.tracked |= then_tracked
        self.known |= then_known
        out.append(
            self._at(
                If(cond=cvar, then=tuple(then_b), else_=tuple(else_b)), s
            )
        )
        return consumed

    def _value_idents(self, e: CExpr) -> list[str]:
        """Idents whose pointer value may reach the value of ``e``.

        Like :func:`_idents_in`, except that the arguments of a call
        whose callee is a known borrower or carries an ownership
        summary are excluded: the call site already applied the
        callee's contract, and such a callee cannot smuggle an
        argument out through its result — borrowers only observe, and
        a summarised function that returns (an alias of) a parameter
        is summarised ``escapes``, which the call lowering applied."""
        match e:
            case Call(func=Ident(name=name)) if name is not None and (
                name in self.policy.borrowers or name in self.policy.summaries
            ):
                return []
            case Call(func=func, args=args):
                out = self._value_idents(func)
                for a in args:
                    out += self._value_idents(a)
                return out
            case Unary(operand=operand):
                return self._value_idents(operand)
            case Binary(left=left, right=right):
                return self._value_idents(left) + self._value_idents(right)
            case Assignment(target=target, value=value):
                return self._value_idents(target) + self._value_idents(value)
            case Conditional(cond=cond, then=then, other=other):
                return (
                    self._value_idents(cond)
                    + self._value_idents(then)
                    + self._value_idents(other)
                )
            case Cast(operand=operand):
                return self._value_idents(operand)
            case Comma(left=left, right=right):
                return self._value_idents(left) + self._value_idents(right)
            case Member(base=base):
                return self._value_idents(base)
            case Index(base=base, index=index):
                return self._value_idents(base) + self._value_idents(index)
            case InitList(items=items):
                flat: list[str] = []
                for item in items:
                    flat += self._value_idents(item)
                return flat
            case _:
                return _idents_in(e)

    def _return(self, s: ReturnStmt) -> list[FlowStmt]:
        out: list[FlowStmt] = []
        if s.value is not None:
            pre, _ = self._expr(s.value)
            out += pre
            # A returned pointer is observed (use-after-free check) and
            # then owned by the caller (escape — no leak obligation).
            for ident in dict.fromkeys(self._value_idents(s.value)):
                if ident in self.pointer_vars:
                    out += self._use(ident, s)
                    out += self._escape(ident, s)
        out.append(self._at(ExitPoint(), s))
        return out

    def _stmt(self, s: CStmt) -> list[FlowStmt]:
        match s:
            case EmptyStmt():
                return []
            case ExprStmt(expr=expr):
                pre, _ = self._expr(expr)
                return pre
            case DeclStmt(decls=decls):
                out: list[FlowStmt] = []
                for decl in decls:
                    out += self._decl(decl)
                return out
            case Compound(body=body):
                return self._seq(list(body))
            case IfStmt():
                folded: list[FlowStmt] = []
                self._if(s, [], folded)
                return folded
            case WhileStmt(cond=cond, body=body):
                return self._while(cond, self._body_of(body), s)
            case DoWhileStmt(body=body, cond=cond):
                stmts = self._body_of(body)
                first = self._seq(list(stmts))
                return first + self._while(cond, stmts, s)
            case ForStmt(init=init, cond=cond, step=step, body=body):
                out = []
                if isinstance(init, DeclStmt):
                    out += self._stmt(init)
                elif init is not None:
                    pre, _ = self._expr(init)
                    out += pre
                out += self._while(cond, self._body_of(body), s, step=step)
                return out
            case ReturnStmt():
                return self._return(s)
            case BreakStmt() | ContinueStmt():
                return []
            case GotoStmt(label=label):
                self.unstructured = True
                self._note(f"goto {label}: unstructured control flow")
                return []
            case LabeledStmt(stmt=stmt):
                self.unstructured = True
                self._note("label: unstructured control flow")
                return self._stmt(stmt)
            case SwitchStmt(value=value, body=body):
                self.unstructured = True
                self._note("switch: unstructured control flow")
                pre, _ = self._expr(value)
                cvar = self._tmp("c")
                pre.append(
                    self._at(Assign(target=cvar, value=self.bottom), s)
                )
                self.known.add(cvar)
                arm = self._seq(self._body_of(body))
                pre.append(
                    self._at(If(cond=cvar, then=tuple(arm), else_=()), s)
                )
                return pre
            case CaseStmt(stmt=stmt):
                return self._stmt(stmt)
            case _:
                self._note(f"opaque statement {type(s).__name__}")
                return []

    def _while(
        self,
        cond: Optional[CExpr],
        body: Sequence[CStmt],
        at: CStmt,
        step: Optional[CExpr] = None,
    ) -> list[FlowStmt]:
        out: list[FlowStmt] = []
        cond_expr: Optional[CExpr] = cond
        if cond is None:
            cvar = self._tmp("c")
            out.append(self._at(Assign(target=cvar, value=self.bottom), at))
            self.known.add(cvar)
            null_var: Optional[str] = None
            null_in_then = False
        else:
            pre, cvar, null_var, null_in_then = self._cond(cond, at)
            out += pre
        body_b = self._seq(list(body))
        if step is not None:
            p, _ = self._expr(step)
            body_b += p
        if cond_expr is not None:
            # Re-evaluate the condition at the bottom of the body so the
            # back edge sees the updated condition variable.
            pre2, v2 = self._expr(cond_expr)
            body_b += pre2
            body_b.append(self._at(Assign(target=cvar, value=v2), at))
        out.append(self._at(While(cond=cvar, body=tuple(body_b)), at))
        if null_var is not None and not null_in_then:
            # while (p) { ... } — after the loop p is NULL.
            out += self._null_refine(null_var, at)
        return out

    def _decl(self, decl: VarDecl) -> list[FlowStmt]:
        is_ptr = _is_pointer_type(decl.type)
        if is_ptr:
            self.pointer_vars.add(decl.name)
        if decl.init is None:
            if is_ptr and not isinstance(decl.type, CArray):
                site = f"decl:{decl.name}#{next(self._counter)}"
                self.known.add(decl.name)
                self.tracked.add(decl.name)
                return [self._at(NewCell(target=decl.name, site=site), decl)]
            return self._fresh_var(decl.name, decl)
        if isinstance(decl.init, InitList):
            pre, _ = self._expr(decl.init)
            return pre + self._fresh_var(decl.name, decl)
        stmts, _ = self._assign_ident(decl.name, decl.init, decl)
        return stmts

    # -- entry ------------------------------------------------------------
    def lower(self) -> LoweredFunction:
        prologue: list[FlowStmt] = []
        params: list[str] = []
        for param in self.f.params:
            if param.name is None:
                continue
            params.append(param.name)
            if _is_pointer_type(param.type):
                self.pointer_vars.add(param.name)
                self.known.add(param.name)
                self.tracked.add(param.name)
                prologue.append(
                    self._at(
                        NewCell(target=param.name, site=f"param:{param.name}"),
                        param,
                    )
                )
            else:
                prologue += self._fresh_var(param.name, param)
        body = self._seq(list(self.f.body.body))
        if not self._terminates(self.f.body):
            body.append(
                ExitPoint(line=self.f.line, col=self.f.col, file=self.f.file)
            )
        return LoweredFunction(
            name=self.f.name,
            file=self.f.file,
            line=self.f.line,
            col=self.f.col,
            body=tuple(prologue + body),
            params=tuple(params),
            pointer_vars=frozenset(self.pointer_vars),
            alloc_sites=self.alloc_sites,
            unstructured=self.unstructured,
            notes=tuple(self.notes),
            escape_calls=self.escape_calls,
        )


def lower_function(
    fdef: FuncDef,
    lattice: QualifierLattice,
    policy: LowerPolicy = DEFAULT_POLICY,
) -> LoweredFunction:
    """Translate one cfront function body into the flowsens language."""
    return _Lowerer(fdef, lattice, policy).lower()
