"""The cross-TU call graph, with function-pointer resolution.

Direct calls give exact edges.  Calls through function pointers are
resolved conservatively: a site ``(*fp)(a, b)`` may target any defined
function whose **address is taken** somewhere in the program and whose
**type shape** is compatible with the site — matching arity (or varargs)
and, when the callee expression's static type is apparent, the same
per-parameter pointer depths.  This is the classic address-taken +
type-filter resolution; it over-approximates targets, which is the safe
direction for both scheduling and reporting.

The resolution edges feed two consumers:

* :meth:`WholeProgramCallGraph.function_graph` — the cross-TU function
  dependence graph (Definition 4 occurrence edges plus resolution
  edges) the whole-program engine condenses.  Extra edges only coarsen
  the schedule; they never change the inference result, because an
  indirect call constrains the *pointer cell*, which the address-taking
  assignment already connected to the target's signature.
* diagnostics/CLI — per-site target lists for the ``whole`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfront import cast as ast
from ..cfront.cast import Call, FuncDef
from ..cfront.ctypes import CArray, CFunc, CPointer, CType, pointer_depth
from ..cfront.sema import Program, local_declarations
from ..constinfer.fdg import FunctionDependenceGraph


@dataclass(frozen=True)
class IndirectCallSite:
    """One call through a function-pointer value, with its resolved
    candidate targets (program-level function names, sorted)."""

    caller: str
    file: str
    line: int
    column: int
    arg_count: int
    targets: tuple[str, ...]


@dataclass
class WholeProgramCallGraph:
    """Call edges over a linked program's defined functions."""

    #: caller -> directly-called defined functions
    direct: dict[str, set[str]] = field(default_factory=dict)
    #: defined functions whose address is taken anywhere
    address_taken: set[str] = field(default_factory=set)
    #: resolved indirect call sites, in (caller, line, column) order
    indirect_sites: list[IndirectCallSite] = field(default_factory=list)
    #: caller -> resolved indirect targets (union over the caller's sites)
    indirect: dict[str, set[str]] = field(default_factory=dict)
    #: caller -> Definition 4 occurrence edges (defined names only)
    occurrence: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, program: Program) -> "WholeProgramCallGraph":
        defined = program.defined_function_names()
        occurrences = program.occurrences()
        graph = cls()

        for name in sorted(defined):
            occ = occurrences[name]
            graph.direct[name] = occ.callees & defined
            graph.occurrence[name] = occ.names & defined
            graph.address_taken.update(occ.values & defined)
        # Global initializers take addresses too (function-pointer tables).
        graph.address_taken.update(program.initializer_names() & defined)

        candidates = sorted(graph.address_taken)
        for name in sorted(defined):
            sites = occurrences[name].indirect_calls
            if not sites:
                continue
            fdef = program.functions[name]
            env = _declared_types(fdef, program)
            resolved: set[str] = set()
            for site in sorted(sites, key=lambda s: (s.line, s.col)):
                targets = _resolve_site(site, env, program, candidates)
                resolved.update(targets)
                graph.indirect_sites.append(
                    IndirectCallSite(
                        caller=name,
                        file=fdef.file,
                        line=site.line,
                        column=site.col,
                        arg_count=len(site.args),
                        targets=tuple(targets),
                    )
                )
            graph.indirect[name] = resolved
        return graph

    def edges(self) -> dict[str, set[str]]:
        """Occurrence edges plus indirect-resolution edges — the edge set
        of the cross-TU function dependence graph."""
        out: dict[str, set[str]] = {}
        for name in self.occurrence:
            out[name] = set(self.occurrence[name]) | self.indirect.get(name, set())
        return out

    def function_graph(self) -> FunctionDependenceGraph:
        return FunctionDependenceGraph.from_edges(
            set(self.occurrence), self.edges()
        )

    def stats(self) -> dict[str, int]:
        return {
            "functions": len(self.occurrence),
            "direct_edges": sum(len(v) for v in self.direct.values()),
            "occurrence_edges": sum(len(v) for v in self.occurrence.values()),
            "address_taken": len(self.address_taken),
            "indirect_sites": len(self.indirect_sites),
            "indirect_edges": sum(len(v) for v in self.indirect.values()),
        }


# ---------------------------------------------------------------------------
# Type-shape filtering
# ---------------------------------------------------------------------------


def _shape_of_func(ret: CType, param_types: tuple[CType, ...]) -> tuple:
    return (
        pointer_depth(ret),
        tuple(pointer_depth(p) for p in param_types),
    )


def _declared_types(fdef: FuncDef, program: Program) -> dict[str, CType]:
    """Flat name -> declared C type environment for one function: its
    parameters and every local declaration (innermost last wins), plus
    globals as the fallback.  Coarse — it ignores block scoping — but a
    wrong entry can only *widen* a site's target set via the arity
    filter, never hide a real target."""
    env: dict[str, CType] = {}
    for decl in program.globals.values():
        env[decl.name] = decl.type
    for param in fdef.params:
        if param.name:
            env[param.name] = param.type
    for decl in local_declarations(fdef):
        env[decl.name] = decl.type
    return env


def _callee_ctype(e: ast.CExpr, env: dict[str, CType]) -> CFunc | None:
    """Best-effort static function type of an indirect callee
    expression; ``None`` when not apparent (the site then falls back to
    the arity-only filter)."""
    t = _callee_value_type(e, env)
    while isinstance(t, (CPointer, CArray)):
        t = t.target if isinstance(t, CPointer) else t.element
    return t if isinstance(t, CFunc) else None


def _callee_value_type(e: ast.CExpr, env: dict[str, CType]) -> CType | None:
    match e:
        case ast.Ident(name=n):
            return env.get(n)
        case ast.Unary(op="*", operand=inner, postfix=False):
            t = _callee_value_type(inner, env)
            if isinstance(t, CPointer):
                return t.target
            if isinstance(t, CArray):
                return t.element
            return t
        case ast.Index(base=b):
            t = _callee_value_type(b, env)
            if isinstance(t, CPointer):
                return t.target
            if isinstance(t, CArray):
                return t.element
            return None
        case ast.Cast(target_type=t):
            return t
        case ast.Comma(right=r):
            return _callee_value_type(r, env)
        case ast.Conditional(then=t):
            return _callee_value_type(t, env)
        case _:
            return None


def _arity_compatible(fdef: FuncDef, arg_count: int) -> bool:
    if fdef.varargs:
        return len(fdef.params) <= arg_count
    return len(fdef.params) == arg_count


def _resolve_site(
    site: Call,
    env: dict[str, CType],
    program: Program,
    candidates: list[str],
) -> list[str]:
    """Candidate targets for one indirect call: address-taken, defined,
    arity-compatible, and — when the callee's static type is apparent —
    matching per-parameter pointer depths."""
    arg_count = len(site.args)
    callee_type = _callee_ctype(site.func, env)
    want_shape = (
        _shape_of_func(callee_type.ret, callee_type.params)
        if callee_type is not None
        else None
    )
    out: list[str] = []
    for name in candidates:
        fdef = program.functions[name]
        if not _arity_compatible(fdef, arg_count):
            continue
        if want_shape is not None:
            have_shape = _shape_of_func(
                fdef.ret, tuple(p.type for p in fdef.params)
            )
            if have_shape != want_shape:
                continue
        out.append(name)
    return out
