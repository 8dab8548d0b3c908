"""Per-function ownership summaries for the resource pack.

The linearity pack (:mod:`repro.flowsens.linear`) is per-function: an
unknown callee havocs every pointer argument, which is sound against
false positives but blind to ownership that flows *across* functions.
This module infers, for one function at a time, the facts a caller
needs to do better:

* for each declared parameter, a **verdict** —

  - :data:`PARAM_BORROWS` — the function observes the argument but
    neither frees nor retains it (``strlen``-shaped);
  - :data:`PARAM_FREES` — the function releases the argument on every
    path to every exit (``free``-shaped: the caller's obligation is
    discharged);
  - :data:`PARAM_ESCAPES` — anything else: the function may retain,
    conditionally free, return, or store the argument (the caller must
    havoc, exactly as for an unknown callee);

* whether the function **returns an owned pointer** — every return
  value is NULL or a fresh allocation (``strdup``-shaped), so the
  caller inherits a leak obligation — and the resource kind it carries.

The verdict triple forms a flat lattice: ``BORROWS`` and ``FREES`` are
incomparable facts, ``ESCAPES`` is top; :func:`join_summaries` joins
pointwise (disagreement goes to top, ``returns_owned`` by conjunction).
That join is what the whole-program driver
(:mod:`repro.whole.ownership`) uses inside recursive components.

Inference is a conservative abstract walk over the *lowered* body
(:mod:`repro.flowsens.lower`) tracking which parameters each variable
must/may still hold: :class:`~repro.flowsens.language.Havoc` marks the
held parameters escaped, :class:`~repro.flowsens.language.FreeCell`
marks must-aliases freed, and exit snapshots decide must-free.  Because
the lowering itself substitutes already-computed callee summaries (via
:class:`~repro.flowsens.lower.LowerPolicy.summaries`), summaries
compose bottom-up through helper chains with no extra machinery here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from ..cfront.cast import (
    Assignment,
    Binary,
    Call,
    Cast,
    CExpr,
    Comma,
    Conditional,
    DeclStmt,
    FuncDef,
    Ident,
    Index,
    InitList,
    Member,
    ReturnStmt,
    Unary,
)
from ..cfront.ctypes import CPointer
from ..cfront.sema import statement_expressions, statements
from ..qual.lattice import QualifierLattice
from ..qual.qualifiers import resource_lattice
from .language import (
    Assign,
    Block,
    CopyPtr,
    ExitPoint,
    FlowExpr,
    FreeCell,
    Havoc,
    If,
    Join,
    LoadCell,
    NewCell,
    Refine,
    StoreCell,
    VarRef,
    While,
)
from .lower import (
    LoweredFunction,
    LowerPolicy,
    _idents_in,
    _is_null,
    _strip,
    lower_function,
)

#: The function only observes the argument (no free, no retention).
PARAM_BORROWS = "borrows"
#: The function releases the argument on every path to every exit.
PARAM_FREES = "frees"
#: Top: the function may retain / conditionally free / store it.
PARAM_ESCAPES = "escapes"


@dataclass(frozen=True)
class OwnershipSummary:
    """What a caller may assume about one function's pointer behaviour."""

    name: str
    #: One verdict per *declared* parameter, by position.
    params: tuple[str, ...]
    #: Every return value is NULL or a fresh owned allocation.
    returns_owned: bool
    #: Resource kind of the owned return ("heap", "file"); "" when not
    #: ``returns_owned``.
    returns_kind: str
    file: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)


def escaping_summary(fdef: FuncDef) -> OwnershipSummary:
    """The top summary: every argument escapes, nothing owned returned.

    Behaviourally identical to having no summary at all (the unknown-
    callee havoc); used as the conservative fallback inside recursive
    components that fail to stabilise.
    """
    return OwnershipSummary(
        name=fdef.name,
        params=tuple(PARAM_ESCAPES for _ in fdef.params),
        returns_owned=False,
        returns_kind="",
        file=fdef.file,
        line=fdef.line,
        col=fdef.col,
    )


def join_summaries(a: OwnershipSummary, b: OwnershipSummary) -> OwnershipSummary:
    """Pointwise join: parameter disagreement goes to ``ESCAPES``
    (top of the flat verdict lattice), ``returns_owned`` only survives
    when both sides agree on it and on the kind."""
    if a.name != b.name:
        raise ValueError(f"joining summaries of {a.name!r} and {b.name!r}")
    width = max(len(a.params), len(b.params))

    def at(s: OwnershipSummary, i: int) -> str:
        return s.params[i] if i < len(s.params) else PARAM_ESCAPES

    params = tuple(
        at(a, i) if at(a, i) == at(b, i) else PARAM_ESCAPES
        for i in range(width)
    )
    owned = a.returns_owned and b.returns_owned and a.returns_kind == b.returns_kind
    return OwnershipSummary(
        name=a.name,
        params=params,
        returns_owned=owned,
        returns_kind=a.returns_kind if owned else "",
        file=a.file,
        line=a.line,
        col=a.col,
    )


# ---------------------------------------------------------------------------
# Parameter verdicts: an abstract walk over the lowered body.
# ---------------------------------------------------------------------------


@dataclass
class _WalkState:
    """Which parameters each variable must / may still hold, and which
    parameters are definitely freed on the path so far."""

    alias: dict[str, frozenset[str]] = field(default_factory=dict)
    may: dict[str, frozenset[str]] = field(default_factory=dict)
    freed: frozenset[str] = frozenset()
    terminated: bool = False

    def copy(self) -> "_WalkState":
        return _WalkState(dict(self.alias), dict(self.may), self.freed, self.terminated)


@dataclass
class _WalkFacts:
    """Path-insensitive accumulators across the whole walk."""

    escaped: set[str] = field(default_factory=set)
    may_freed: set[str] = field(default_factory=set)
    #: must-freed parameter snapshot at each reachable exit
    exits: list[frozenset[str]] = field(default_factory=list)
    #: parameters, declared locals, and lowering temps — anything else
    #: (a global) outlives the call, so writing a parameter into it is
    #: an escape.
    local_names: frozenset[str] = frozenset()

    def is_local(self, name: str) -> bool:
        return name in self.local_names or name.startswith("%")


def _expr_params(expr: FlowExpr, state: _WalkState) -> frozenset[str]:
    """Parameters an expression's value may carry (via VarRef reads)."""
    match expr:
        case VarRef(name=name):
            return state.alias.get(name, frozenset()) | state.may.get(
                name, frozenset()
            )
        case Join(left=left, right=right):
            return _expr_params(left, state) | _expr_params(right, state)
        case _:
            return frozenset()


def _merge(a: _WalkState, b: _WalkState) -> _WalkState:
    if a.terminated and b.terminated:
        out = a.copy()
        out.terminated = True
        return out
    if a.terminated:
        return b.copy()
    if b.terminated:
        return a.copy()
    out = _WalkState()
    for var in set(a.alias) | set(b.alias):
        out.alias[var] = a.alias.get(var, frozenset()) & b.alias.get(
            var, frozenset()
        )
    for var in set(a.may) | set(b.may):
        out.may[var] = a.may.get(var, frozenset()) | b.may.get(var, frozenset())
    out.freed = a.freed & b.freed
    return out


def _walk(block: Block, state: _WalkState, facts: _WalkFacts) -> _WalkState:
    for stmt in block:
        if state.terminated:
            return state
        match stmt:
            case NewCell(target=t, site=site):
                if site == f"param:{t}":
                    state.alias[t] = frozenset((t,))
                    state.may[t] = frozenset((t,))
                else:
                    state.alias[t] = frozenset()
                    state.may[t] = frozenset()
            case CopyPtr(target=t, source=s):
                state.alias[t] = state.alias.get(s, frozenset())
                state.may[t] = state.may.get(s, frozenset())
                if not facts.is_local(t):
                    # Copied into a global: the parameter outlives us.
                    facts.escaped |= state.alias[t] | state.may[t]
            case Assign(target=t, value=v):
                carried = _expr_params(v, state)
                state.alias[t] = frozenset()
                state.may[t] = carried
                if not facts.is_local(t):
                    facts.escaped |= carried
            case LoadCell(target=t):
                # Stored pointers were already escaped at the store, so
                # a loaded value cannot resurrect a parameter claim.
                state.alias[t] = frozenset()
                state.may[t] = frozenset()
            case StoreCell(value=v):
                facts.escaped |= _expr_params(v, state)
            case Havoc(target=t):
                facts.escaped |= state.alias.get(t, frozenset())
                facts.escaped |= state.may.get(t, frozenset())
                state.alias[t] = frozenset()
                state.may[t] = frozenset()
            case FreeCell(pointer=p):
                must = state.alias.get(p, frozenset())
                state.freed |= must
                facts.may_freed |= must | state.may.get(p, frozenset())
            case ExitPoint():
                facts.exits.append(state.freed)
                state.terminated = True
            case If(then=then, else_=else_):
                s_then = _walk(then, state.copy(), facts)
                s_else = _walk(else_, state.copy(), facts)
                state = _merge(s_then, s_else)
            case Refine(body=body):
                s_body = _walk(body, state.copy(), facts)
                state = _merge(state, s_body)
            case While(body=body):
                s_body = _walk(body, state.copy(), facts)
                after = _WalkState()
                if not s_body.terminated:
                    for var in set(state.alias) | set(s_body.alias):
                        after.alias[var] = state.alias.get(
                            var, frozenset()
                        ) & s_body.alias.get(var, frozenset())
                    for var in set(state.may) | set(s_body.may):
                        after.may[var] = state.may.get(
                            var, frozenset()
                        ) | s_body.may.get(var, frozenset())
                else:
                    after.alias = dict(state.alias)
                    after.may = dict(state.may)
                # The loop may run zero times: only pre-loop frees are must.
                after.freed = state.freed
                state = after
            case _:
                pass
    return state


def _param_verdicts(
    fdef: FuncDef, fn: LoweredFunction
) -> tuple[str, ...]:
    local_names = {p.name for p in fdef.params if p.name is not None}
    for stmt in statements(fdef.body):
        if isinstance(stmt, DeclStmt):
            local_names.update(decl.name for decl in stmt.decls)
    facts = _WalkFacts(local_names=frozenset(local_names))
    final = _walk(fn.body, _WalkState(), facts)
    if not final.terminated:
        # Fell off the end without an ExitPoint (shouldn't happen for
        # structured lowerings, which always append one) — treat the
        # fall-through as an exit with the current must-freed set.
        facts.exits.append(final.freed)
    verdicts: list[str] = []
    for param in fdef.params:
        name = param.name
        if name is None or name not in fn.pointer_vars:
            # Unnamed or non-pointer parameters cannot carry the
            # caller's resource: observing them is a borrow.
            verdicts.append(PARAM_BORROWS)
            continue
        if name in facts.escaped:
            verdicts.append(PARAM_ESCAPES)
        elif name in facts.may_freed:
            if facts.exits and all(name in snap for snap in facts.exits):
                verdicts.append(PARAM_FREES)
            else:
                # Freed on some path only: the caller cannot tell
                # whether its obligation was discharged.
                verdicts.append(PARAM_ESCAPES)
        else:
            verdicts.append(PARAM_BORROWS)
    return tuple(verdicts)


# ---------------------------------------------------------------------------
# Owned returns: a conservative scan over the C AST.
# ---------------------------------------------------------------------------


def _owned_call_kind(
    e: CExpr, policy: LowerPolicy
) -> Optional[str]:
    """Resource kind when ``e`` is a fresh-allocation call, else None."""
    e = _strip(e)
    if isinstance(e, Call) and isinstance(e.func, Ident):
        callee = e.func.name
        kind = policy.allocators.get(callee)
        if kind is not None:
            return kind
        summary = policy.summaries.get(callee)
        if summary is not None and summary.returns_owned:
            return summary.returns_kind
    return None


def _mentions(e: CExpr, name: str) -> bool:
    return name in _idents_in(e)


class _LocalScan:
    """Decides whether a local always holds a value the function owns.

    A local qualifies when every definition is NULL or a fresh owned
    allocation, and no occurrence lets the value leave through another
    door: its address is never taken, it is never stored into memory or
    copied into another variable, and it is only passed to callees that
    demonstrably borrow.  Plain reads (conditions, arithmetic, loads
    and stores *through* it) are fine.
    """

    def __init__(self, name: str, policy: LowerPolicy) -> None:
        self.name = name
        self.policy = policy
        self.ok = True
        self.kinds: set[str] = set()
        self.defs = 0

    def note_def(self, value: CExpr) -> None:
        self.defs += 1
        if _is_null(value):
            return
        kind = _owned_call_kind(value, self.policy)
        if kind is None:
            self.ok = False
            return
        self.kinds.add(kind)
        # The defining call's own arguments may still mention the local
        # (e.g. realloc); scan them like any other expression.
        inner = _strip(value)
        if isinstance(inner, Call):
            self.check(inner)

    def _call_arg_ok(self, callee: Optional[str], index: int) -> bool:
        if callee is None:
            return False
        if callee in self.policy.releasers or callee in self.policy.allocators:
            return False
        if callee in self.policy.borrowers:
            return True
        summary = self.policy.summaries.get(callee)
        if summary is not None:
            if index < len(summary.params):
                return summary.params[index] == PARAM_BORROWS
            return False
        return False

    def check(self, e: CExpr) -> None:
        """Recursively flag disqualifying occurrences of the local."""
        if not self.ok:
            return
        match e:
            case Unary(op="&", operand=operand):
                target = _strip(operand)
                if isinstance(target, Ident) and target.name == self.name:
                    self.ok = False
                    return
                self.check(operand)
            case Unary(op=op, operand=operand):
                if op in ("++", "--"):
                    target = _strip(operand)
                    if isinstance(target, Ident) and target.name == self.name:
                        self.ok = False
                        return
                self.check(operand)
            case Call(func=func, args=args):
                callee = func.name if isinstance(func, Ident) else None
                if not isinstance(func, Ident):
                    self.check(func)
                for i, arg in enumerate(args):
                    if _mentions(arg, self.name) and not self._call_arg_ok(
                        callee, i
                    ):
                        self.ok = False
                        return
                    self.check(arg)
            case Assignment(op=op, target=target, value=value):
                t = _strip(target)
                if isinstance(t, Ident) and t.name == self.name:
                    if op != "=":
                        self.ok = False
                        return
                    self.note_def(value)
                    return
                # Writing the local's value anywhere else (another
                # variable, memory) hands the ownership away.
                if _mentions(value, self.name):
                    self.ok = False
                    return
                self.check(target)
                self.check(value)
            case Binary(left=left, right=right) | Comma(left=left, right=right):
                self.check(left)
                self.check(right)
            case Conditional(cond=cond, then=then, other=other):
                self.check(cond)
                self.check(then)
                self.check(other)
            case Member(base=base):
                self.check(base)
            case Index(base=base, index=index):
                self.check(base)
                self.check(index)
            case Cast(operand=operand):
                self.check(operand)
            case InitList(items=items):
                for item in items:
                    if _mentions(item, self.name):
                        self.ok = False
                        return
                    self.check(item)
            case _:
                pass


def _scan_local(
    name: str, fdef: FuncDef, policy: LowerPolicy
) -> Optional[str]:
    """Kind of the owned value ``name`` always holds, or None."""
    scan = _LocalScan(name, policy)
    declared = False
    for stmt in statements(fdef.body):
        if isinstance(stmt, DeclStmt):
            for decl in stmt.decls:
                if decl.name == name:
                    declared = True
                    if decl.init is not None:
                        scan.note_def(decl.init)
            continue
        if isinstance(stmt, ReturnStmt):
            if stmt.value is not None:
                returned = _strip(stmt.value)
                if isinstance(returned, Ident) and returned.name == name:
                    continue  # the sanctioned exit
                if _mentions(stmt.value, name):
                    return None
            continue
        for expr in statement_expressions(stmt):
            scan.check(expr)
            if not scan.ok:
                return None
    if not declared or not scan.ok or scan.defs == 0:
        return None
    if len(scan.kinds) != 1:
        return None
    return next(iter(scan.kinds))


def _infer_returns_owned(
    fdef: FuncDef, policy: LowerPolicy
) -> tuple[bool, str]:
    if not isinstance(fdef.ret, CPointer):
        return False, ""
    param_names = {p.name for p in fdef.params if p.name is not None}
    returns = [
        s
        for s in statements(fdef.body)
        if isinstance(s, ReturnStmt) and s.value is not None
    ]
    if not returns:
        return False, ""
    kinds: set[str] = set()
    local_kinds: dict[str, Optional[str]] = {}
    for ret in returns:
        value = _strip(ret.value) if ret.value is not None else None
        assert value is not None
        if _is_null(value):
            continue
        kind = _owned_call_kind(value, policy)
        if kind is not None:
            kinds.add(kind)
            continue
        if isinstance(value, Ident) and value.name not in param_names:
            if value.name not in local_kinds:
                local_kinds[value.name] = _scan_local(
                    value.name, fdef, policy
                )
            local_kind = local_kinds[value.name]
            if local_kind is None:
                return False, ""
            kinds.add(local_kind)
            continue
        return False, ""
    if len(kinds) != 1:
        return False, ""
    return True, next(iter(kinds))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def infer_function_ownership(
    fdef: FuncDef,
    lattice: Optional[QualifierLattice] = None,
    policy: Optional[LowerPolicy] = None,
) -> Optional[OwnershipSummary]:
    """Summarise one function, or None when it cannot be summarised
    (unstructured control flow, lowering failure) — callers then keep
    the unknown-callee havoc.

    ``policy.summaries`` carries the already-computed summaries of this
    function's callees; the whole-program driver supplies them in
    bottom-up SCC order so helper chains compose.
    """
    from .lower import DEFAULT_POLICY

    pol = policy if policy is not None else DEFAULT_POLICY
    lat = lattice if lattice is not None else resource_lattice()
    try:
        fn = lower_function(fdef, lat, pol)
    except Exception:
        return None
    if fn.unstructured:
        return None
    owned, kind = _infer_returns_owned(fdef, pol)
    return OwnershipSummary(
        name=fdef.name,
        params=_param_verdicts(fdef, fn),
        returns_owned=owned,
        returns_kind=kind,
        file=fdef.file,
        line=fdef.line,
        col=fdef.col,
    )


def with_summaries(
    policy: LowerPolicy, summaries: Mapping[str, OwnershipSummary]
) -> LowerPolicy:
    """A policy whose call-site substitution consults ``summaries``."""
    return replace(policy, summaries=dict(summaries))
