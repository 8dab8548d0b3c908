"""Linearity / resource-tracking pack over the flow-sensitive engine.

This is the use-exactly-once qualifier instance the paper's Section 6
machinery was built to support: allocations incur an obligation
(``alloc``), frees discharge it (``released``) and poison the variable
(``freed``), and three checks fall out of the least solution:

* **double-free** — a :class:`FreeCell` whose operand may already be
  ``freed``;
* **use-after-free** — a :class:`UseCell` whose operand may be
  ``freed``;
* **resource-leak** — an :class:`ExitPoint` where some local may still
  hold ``alloc`` without being definitely ``released`` (the negative
  polarity of ``released`` makes the must-information die at merges,
  which is exactly leak-*on-this-exit-path* detection).

Strong updates do the heavy lifting: ``free(p)`` replaces ``p``'s
qualifier variable outright (the paper's flow-sensitive proposal), while
may-aliases discovered through the points-to map receive weak updates
(``freed`` joins in, the old value survives).

Everything here is engine-side: findings are plain data with source
spans and shortest-flow-path steps; :mod:`repro.checker` adapts them to
diagnostics.  This module must not import the checker.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..qual.constraints import QualConstraint
from ..qual.lattice import LatticeElement, QualifierLattice
from ..qual.qtypes import Qual, QualVar, fresh_qual_var
from ..qual.qualifiers import resource_lattice
from ..qual.solver import Solution, shortest_flow_path, solve
from .analysis import FlowAnalysis, FlowError, _State
from .language import (
    CallVia,
    CopyPtr,
    ExitPoint,
    FlowStmt,
    FreeCell,
    Havoc,
    NewCell,
    UseCell,
)
from .lower import LoweredFunction


def _via_stmt(via: CallVia) -> FlowStmt:
    """A synthetic statement carrying the callee's definition span, so
    summary-substituted events anchor one flow step in the defining
    unit (the cross-file half of a cross-TU finding)."""
    return FlowStmt(line=via.line, col=via.col, file=via.file)

#: check names, shared with the checker's registry
DOUBLE_FREE = "double-free"
USE_AFTER_FREE = "use-after-free"
RESOURCE_LEAK = "resource-leak"


@dataclass(frozen=True)
class FlowPathStep:
    """One step of a finding's flow path (engine-side, checker-free)."""

    note: str
    file: str
    line: int
    col: int


@dataclass(frozen=True)
class ResourceFinding:
    """One resource-safety violation in a lowered function."""

    kind: str
    variable: str
    function: str
    file: str
    line: int
    col: int
    #: shortest constraint path from the violating event to the site,
    #: ending with the site itself.
    flow: tuple[FlowPathStep, ...]


@dataclass(frozen=True)
class ResourceEvidence:
    """Why the suggestion mode believes a variable deserves ``alloc``."""

    variable: str
    qualifier: str
    #: steps in the shortest flow path from the allocation event
    path_length: int
    #: number of constraints flowing into the variable's qualifier vars
    fan_in: int
    file: str
    line: int
    col: int


@dataclass
class ResourceReport:
    """Findings plus per-variable evidence for one lowered function."""

    function: LoweredFunction
    findings: list[ResourceFinding]
    #: joined element over every value each variable held
    var_elements: dict[str, LatticeElement]
    evidence: dict[str, ResourceEvidence]


_Obligation = tuple[str, str, Qual, FlowStmt]


class ResourceAnalysis(FlowAnalysis):
    """The flow analysis plus resource-event semantics.

    ``NewCell`` at a recorded allocation site seeds ``alloc``;
    ``FreeCell`` records a double-free obligation, then strongly
    updates the operand (and weakly updates may-aliases); ``UseCell``
    and ``ExitPoint`` record use-after-free and leak obligations.
    Obligations are checked against the least solution *after* the
    one solver pass, like every other check in the framework.
    """

    def __init__(
        self, fn: LoweredFunction, lattice: QualifierLattice | None = None
    ) -> None:
        super().__init__(lattice or resource_lattice())
        self.fn = fn
        self._alloc_el = self.lattice.element("alloc")
        self._freed_strong = self.lattice.element("freed", "released")
        self._freed_weak = self.lattice.element("freed")
        self.obligations: list[_Obligation] = []
        #: every qualifier variable each source variable ever held
        self.history: dict[str, list[Qual]] = {}
        #: (file, line, col) of each variable's first allocation, in
        #: program order (loop trials record nothing)
        self.first_alloc: dict[str, tuple[str, int, int]] = {}

    def _remember(self, var: str, qual: Qual) -> None:
        if self._recording:
            self.history.setdefault(var, []).append(qual)

    def _oblige(self, kind: str, var: str, qual: Qual, at: FlowStmt) -> None:
        if self._recording:
            self.obligations.append((kind, var, qual, at))

    def _stmt(self, stmt: FlowStmt, state: _State) -> _State:
        match stmt:
            case NewCell(target=p, site=site):
                state = super()._stmt(stmt, state)
                info = self.fn.alloc_sites.get(site)
                if info is not None:
                    if self._recording and p not in self.first_alloc:
                        self.first_alloc[p] = (info.file, info.line, info.col)
                    seeded = fresh_qual_var(f"{p}_alloc")
                    if stmt.via is not None:
                        # Substituted from an ownership summary: chain
                        # through the callee's definition so the flow
                        # path steps into the defining unit.
                        mid = fresh_qual_var(f"{p}_viaalloc")
                        self._emit(
                            self._alloc_el,
                            mid,
                            f"{stmt.via.callee} returns a fresh allocation",
                            _via_stmt(stmt.via),
                        )
                        self._emit(
                            mid,
                            seeded,
                            f"{p} receives allocation from {info.callee}",
                            stmt,
                        )
                    else:
                        self._emit(
                            self._alloc_el,
                            seeded,
                            f"{p} receives allocation from {info.callee}",
                            stmt,
                        )
                    state.vals[p] = seeded
                    self._remember(p, seeded)
                return state

            case CopyPtr(target=q):
                state = super()._stmt(stmt, state)
                copied = state.vals.get(q)
                if copied is not None:
                    self._remember(q, copied)
                return state

            case FreeCell(pointer=p):
                current = state.vals.get(p)
                if current is not None:
                    self._oblige(DOUBLE_FREE, p, current, stmt)
                # Strong update: p definitely holds the freed value now.
                freed = fresh_qual_var(f"{p}_freed")
                if stmt.via is not None:
                    mid = fresh_qual_var(f"{p}_viafree")
                    self._emit(
                        self._freed_strong,
                        mid,
                        f"{stmt.via.callee} frees its argument",
                        _via_stmt(stmt.via),
                    )
                    self._emit(
                        mid,
                        freed,
                        f"{p} is passed to {stmt.via.callee} here",
                        stmt,
                    )
                else:
                    self._emit(
                        self._freed_strong, freed, f"{p} is freed here", stmt
                    )
                state.vals[p] = freed
                self._remember(p, freed)
                # Aliases: a pointer sharing exactly p's one points-to
                # site must alias it (strong update); overlapping sets
                # only may alias (weak update: freed joins the old
                # value, read before it is overwritten).
                sites = state.ptrs.get(p, frozenset())
                if sites:
                    for q2, qsites in state.ptrs.items():
                        if q2 == p or not (qsites & sites):
                            continue
                        if qsites == sites and len(sites) == 1:
                            state.vals[q2] = freed
                        else:
                            weak = fresh_qual_var(f"{q2}_mayfreed")
                            old = state.vals.get(q2)
                            if old is not None:
                                self._emit(
                                    old, weak, f"{q2} may survive free", stmt
                                )
                            self._emit(
                                self._freed_weak,
                                weak,
                                f"{q2} may alias freed {p}",
                                stmt,
                            )
                            state.vals[q2] = weak
                        self._remember(q2, state.vals[q2])
                return state

            case UseCell(pointer=p):
                current = state.vals.get(p)
                if current is not None:
                    self._oblige(USE_AFTER_FREE, p, current, stmt)
                return state

            case ExitPoint():
                for var in sorted(self.fn.pointer_vars):
                    current = state.vals.get(var)
                    if current is not None:
                        self._oblige(RESOURCE_LEAK, var, current, stmt)
                return state

            case Havoc(target=x):
                # An escape also covers copies sharing the same value:
                # if x's allocation is now owned elsewhere, so is the
                # identical value held by any CopyPtr'd alias.
                shared = state.vals.get(x)
                state = super()._stmt(stmt, state)
                if shared is not None and isinstance(shared, QualVar):
                    for y, v in list(state.vals.items()):
                        if y != x and v is shared:
                            state.vals[y] = fresh_qual_var(f"{y}_any")
                return state

            case _:
                return super()._stmt(stmt, state)


def _final_note(kind: str, var: str) -> str:
    if kind == DOUBLE_FREE:
        return f"{var} freed again here"
    if kind == USE_AFTER_FREE:
        return f"{var} used here"
    return f"function exits with {var} still holding the allocation"


def _violates(kind: str, least: LatticeElement) -> bool:
    if kind == RESOURCE_LEAK:
        return least.has("alloc") and not least.has("released")
    return least.has("freed")


def analyze_lowered(
    fn: LoweredFunction, lattice: QualifierLattice | None = None
) -> ResourceReport:
    """Run the resource pack over one lowered function."""
    analysis = ResourceAnalysis(fn, lattice)
    final = analysis._block(fn.body, _State())
    del final

    extra: list[QualVar] = [
        q for (_k, _v, q, _a) in analysis.obligations if isinstance(q, QualVar)
    ]
    for quals in analysis.history.values():
        extra.extend(q for q in quals if isinstance(q, QualVar))
    extra.extend(analysis.cell_vars.values())
    solution = solve(analysis.constraints, analysis.lattice, extra_vars=extra)

    findings = _evaluate(analysis, solution)
    var_elements, evidence = _evidence(analysis, solution)
    return ResourceReport(
        function=fn,
        findings=findings,
        var_elements=var_elements,
        evidence=evidence,
    )


def _least(solution: Solution, qual: Qual) -> LatticeElement:
    if isinstance(qual, QualVar):
        return solution.least_of(qual)
    assert isinstance(qual, LatticeElement)
    return qual


def _evaluate(
    analysis: ResourceAnalysis, solution: Solution
) -> list[ResourceFinding]:
    lattice = analysis.lattice
    bounds = {
        DOUBLE_FREE: lattice.top.without_qualifier("freed"),
        USE_AFTER_FREE: lattice.top.without_qualifier("freed"),
        RESOURCE_LEAK: lattice.top.without_qualifier("alloc"),
    }
    findings: list[ResourceFinding] = []
    seen: set[tuple[str, str, int, int]] = set()
    for kind, var, qual, at in analysis.obligations:
        least = _least(solution, qual)
        if not _violates(kind, least):
            continue
        key = (kind, var, at.line, at.col)
        if key in seen:
            continue
        seen.add(key)
        flow: list[FlowPathStep] = []
        if isinstance(qual, QualVar):
            path = shortest_flow_path(
                analysis.constraints, lattice, qual, bounds[kind]
            )
            if path:
                flow = [_path_step(c) for c in path]
        flow.append(
            FlowPathStep(
                _final_note(kind, var),
                at.file or analysis.fn.file,
                at.line,
                at.col,
            )
        )
        findings.append(
            ResourceFinding(
                kind=kind,
                variable=var,
                function=analysis.fn.name,
                file=at.file or analysis.fn.file,
                line=at.line,
                col=at.col,
                flow=tuple(flow),
            )
        )
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.kind, f.variable))
    return findings


def _path_step(constraint: QualConstraint) -> FlowPathStep:
    origin = constraint.origin
    return FlowPathStep(
        origin.reason,
        origin.filename or "",
        origin.line or 0,
        origin.column or 0,
    )


def _evidence(
    analysis: ResourceAnalysis, solution: Solution
) -> tuple[dict[str, LatticeElement], dict[str, ResourceEvidence]]:
    lattice = analysis.lattice
    fn = analysis.fn
    alloc_bound = lattice.top.without_qualifier("alloc")
    var_elements: dict[str, LatticeElement] = {}
    evidence: dict[str, ResourceEvidence] = {}
    fan_in: dict[Qual, int] = {}
    for c in analysis.constraints:
        fan_in[c.rhs] = fan_in.get(c.rhs, 0) + 1
    for var, quals in analysis.history.items():
        joined = lattice.bottom
        best_path: int | None = None
        total_fan_in = 0
        for q in quals:
            least = _least(solution, q)
            joined = lattice.join(joined, least)
            total_fan_in += fan_in.get(q, 0)
            if least.has("alloc") and isinstance(q, QualVar):
                path = shortest_flow_path(
                    analysis.constraints, lattice, q, alloc_bound
                )
                if path is not None and (
                    best_path is None or len(path) < best_path
                ):
                    best_path = len(path)
        var_elements[var] = joined
        if joined.has("alloc"):
            site = analysis.first_alloc.get(var, (fn.file, fn.line, fn.col))
            evidence[var] = ResourceEvidence(
                variable=var,
                qualifier="alloc",
                path_length=best_path if best_path is not None else 1,
                fan_in=total_fan_in,
                file=site[0],
                line=site[1],
                col=site[2],
            )
    return var_elements, evidence


def analyze_function_resources(
    fn: LoweredFunction, lattice: QualifierLattice | None = None
) -> list[ResourceFinding]:
    """Findings for one lowered function; empty when unstructured."""
    if fn.unstructured:
        return []
    try:
        return analyze_lowered(fn, lattice).findings
    except FlowError:
        # A lowering shape the engine cannot analyze: best-effort means
        # we skip the function rather than fail the unit.
        return []
