"""Flow-sensitive qualifier inference (the Section 6 proposal).

Every variable gets a *distinct* qualifier variable at every program
point.  Statements relate adjacent points:

* a statement that does not strongly update ``x`` links ``x``'s types
  with ``before <= after``;
* a strong update (assignment, havoc, refinement) starts a fresh
  variable with no inflow from the old one;
* control-flow merges join (``<=`` into a fresh merge variable), and
  loop back edges flow into the loop-head variable — the atomic solver's
  fixpoint handles the cycle directly.

Heap cells, reached through pointers that may alias, get the dual
treatment the sketch prescribes for non-strong updates: each allocation
*site* has **one** flow-insensitive qualifier variable, stores join
values in (``value <= cell``), and loads read the accumulated contents
out.  A small flow-sensitive points-to map tracks which sites each
pointer variable may reference (strong updates on the pointer variables
themselves, set-union at merges, fixpoint over loop back edges).
Programs mix strongly-updated locals and weakly-updated cells, which is
exactly the shape of the lclint workloads the paper discusses.

The result is a classic forward dataflow analysis, obtained purely by
constraint generation over the existing :mod:`repro.qual.solver` — no
new solving machinery, which is the point of the paper's sketch.

Assertions are evaluated as a *linter*: the system is solved without
them and every check is then reported against the least solution (the
join of the values actually flowing to that point), so a single run
reports all violations instead of stopping at the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..qual.constraints import Origin, QualConstraint
from ..qual.lattice import LatticeElement, QualifierLattice
from ..qual.qtypes import Qual, QualVar, fresh_qual_var
from ..qual.solver import Solution, solve
from .language import (
    AnnotStmt,
    Assign,
    AssertStmt,
    Block,
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
    Refine,
    StoreCell,
    UseCell,
    VarRef,
    While,
)


class FlowError(Exception):
    """Malformed flow program (e.g. use of an undefined variable)."""


@dataclass(frozen=True)
class CheckFailure:
    """One assertion that does not hold at its program point."""

    kind: str  # "assert" or "annot"
    variable: str
    required: LatticeElement
    actual: LatticeElement
    label: str

    def __str__(self) -> str:
        where = f" [{self.label}]" if self.label else ""
        return (
            f"{self.kind} on {self.variable}{where}: value {self.actual} "
            f"is not below {self.required}"
        )


@dataclass
class FlowResult:
    """Solved flow-sensitive analysis of one program."""

    lattice: QualifierLattice
    solution: Solution
    failures: list[CheckFailure]
    final_env: dict[str, Qual]
    #: the qualifier variable checked by each assert, in program order,
    #: keyed by (kind, label) for inspection in tests.
    check_points: list[tuple[str, str, str, Qual]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def value_of(self, qual: Qual) -> LatticeElement:
        if isinstance(qual, QualVar):
            return self.solution.least_of(qual)
        return qual

    def final_value(self, variable: str) -> LatticeElement:
        """Least solution of a variable's type at program exit."""
        if variable not in self.final_env:
            raise FlowError(f"unknown variable {variable!r}")
        return self.value_of(self.final_env[variable])


PointsTo = dict[str, frozenset[str]]


@dataclass
class _State:
    """Per-program-point environment: scalar types + points-to sets."""

    vals: dict[str, Qual] = field(default_factory=dict)
    ptrs: PointsTo = field(default_factory=dict)

    def copy(self) -> "_State":
        return _State(dict(self.vals), dict(self.ptrs))


class FlowAnalysis:
    """Flow-sensitive scalars + flow-insensitive heap cells over a fixed
    lattice: the one transfer function of the flow language."""

    def __init__(self, lattice: QualifierLattice):
        self.lattice = lattice
        self.constraints: list[QualConstraint] = []
        #: (kind, variable, label, qual at the point, required bound)
        self.checks: list[tuple[str, str, str, Qual, LatticeElement]] = []
        self.cell_vars: dict[str, QualVar] = {}
        #: off during loop points-to trials, so each constraint, check
        #: (and each event a subclass records) is recorded once, by the
        #: exit pass, whose site sets contain every trial's
        self._recording = True

    # -- plumbing --------------------------------------------------------
    def _emit(
        self, lhs: Qual, rhs: Qual, reason: str, at: FlowStmt | None = None
    ) -> None:
        if self._recording:
            self.constraints.append(
                QualConstraint(lhs, rhs, self._origin(reason, at))
            )

    @staticmethod
    def _origin(reason: str, at: FlowStmt | None = None) -> Origin:
        """Origin for one constraint; statements lowered from C carry a
        span, so flow paths through lowered programs name file:line:col."""
        if at is not None and at.line:
            return Origin(reason, at.file or None, at.line, at.col or None)
        return Origin(reason)

    def cell(self, site: str) -> QualVar:
        if site not in self.cell_vars:
            self.cell_vars[site] = fresh_qual_var(f"cell_{site}_")
        return self.cell_vars[site]

    def _check(self, kind: str, stmt: AnnotStmt | AssertStmt, state: _State) -> None:
        x = stmt.target
        if x not in state.vals:
            raise FlowError(f"{kind} of undefined variable {x!r}")
        if self._recording:
            self.checks.append((kind, x, stmt.label, state.vals[x], stmt.level))

    def _eval(self, expr: FlowExpr, state: _State) -> Qual:
        match expr:
            case VarRef(name=name):
                if name not in state.vals:
                    raise FlowError(f"use of undefined variable {name!r}")
                return state.vals[name]
            case Literal(qual=q):
                if q.lattice != self.lattice:
                    raise FlowError(f"literal {q} is not from lattice {self.lattice}")
                return q
            case Join(left=left, right=right):
                out = fresh_qual_var("join")
                self._emit(self._eval(left, state), out, "join-left")
                self._emit(self._eval(right, state), out, "join-right")
                return out
            case _:
                raise FlowError(f"unknown expression {expr!r}")

    def _sites_of(self, state: _State, pointer: str) -> frozenset[str]:
        if pointer not in state.ptrs:
            raise FlowError(f"{pointer!r} is not a pointer variable here")
        return state.ptrs[pointer]

    def _merge(self, a: _State, b: _State, reason: str) -> _State:
        """Join two states: fresh merge variables where the values
        differ, set-union of the points-to sets."""
        out = _State()
        for name in set(a.vals) | set(b.vals):
            qa, qb = a.vals.get(name), b.vals.get(name)
            if qa is None or qb is None:
                # defined on one path only: conservative, keep the one
                # that exists (uses on the other path would be errors).
                out.vals[name] = qa if qa is not None else qb  # type: ignore[assignment]
            elif qa == qb:
                out.vals[name] = qa
            else:
                merged = fresh_qual_var("merge")
                self._emit(qa, merged, f"{reason}-left")
                self._emit(qb, merged, f"{reason}-right")
                out.vals[name] = merged
        for name in set(a.ptrs) | set(b.ptrs):
            out.ptrs[name] = a.ptrs.get(name, frozenset()) | b.ptrs.get(
                name, frozenset()
            )
        return out

    # -- transfer ---------------------------------------------------------
    def _stmt(self, stmt: FlowStmt, state: _State) -> _State:
        match stmt:
            case NewCell(target=p, site=site):
                self.cell(site)
                out = state.copy()
                out.ptrs[p] = frozenset({site})
                # The pointer variable's own value (the pointer itself)
                # is fresh and unconstrained — defined, so value packs
                # can mention p without tripping the undefined-use check.
                out.vals[p] = fresh_qual_var(f"{p}_ptr")
                return out

            case CopyPtr(target=q, source=p):
                sites = self._sites_of(state, p)
                out = state.copy()
                out.ptrs[q] = sites
                # q's value IS p's value (the copied pointer), so value
                # qualifiers riding the pointer itself follow the copy.
                copied = state.vals.get(p)
                out.vals[q] = (
                    copied if copied is not None else fresh_qual_var(f"{q}_ptr")
                )
                return out

            case StoreCell(pointer=p, value=value):
                stored = self._eval(value, state)
                for site in self._sites_of(state, p):
                    # weak update: the value joins the cell's contents
                    self._emit(stored, self.cell(site), f"store into {site}", stmt)
                return state

            case LoadCell(target=x, pointer=p):
                loaded = fresh_qual_var(f"{x}_load")
                for site in self._sites_of(state, p):
                    self._emit(self.cell(site), loaded, f"load from {site}", stmt)
                out = state.copy()
                out.vals[x] = loaded
                out.ptrs.pop(x, None)
                return out

            case Assign(target=x, value=value):
                rhs = self._eval(value, state)
                after = fresh_qual_var(f"{x}_")
                self._emit(rhs, after, f"assign {x}", stmt)
                out = state.copy()
                out.vals[x] = after  # strong update: no old inflow
                out.ptrs.pop(x, None)
                return out

            case FreeCell() | UseCell() | ExitPoint():
                # Resource events: meaningful only to the linearity pack
                # (:class:`repro.flowsens.linear.ResourceAnalysis`), which
                # overrides them.  Generic qualifier packs flow straight
                # through, so any pack can analyze lowered C programs.
                return state

            case Havoc(target=x):
                out = state.copy()
                out.vals[x] = fresh_qual_var(f"{x}_any")
                return out

            case AnnotStmt(target=x, level=level):
                self._check("annot", stmt, state)
                # (Annot): the type at this point becomes exactly l.
                out = state.copy()
                out.vals[x] = level
                return out

            case AssertStmt():
                self._check("assert", stmt, state)
                return state

            case Refine(target=x, qualifier=q, body=body):
                if x not in state.vals:
                    raise FlowError(f"refinement of undefined variable {x!r}")
                # Branch entry strong-updates x to the join of all values
                # satisfying the test — sound, and exact on the tested
                # coordinate.  The not-taken path merges with the body exit.
                inner = state.copy()
                inner.vals[x] = self.lattice.assertion_bound(q)
                exit_state = self._block(body, inner)
                return self._merge(state, exit_state, f"refine-{x}-merge")

            case If(cond=cond, then=then, else_=else_):
                if cond not in state.vals and cond not in state.ptrs:
                    raise FlowError(f"branch on undefined variable {cond!r}")
                then_state = self._block(then, state.copy())
                else_state = self._block(else_, state.copy())
                return self._merge(then_state, else_state, "if-merge")

            case While(cond=cond, body=body):
                if cond not in state.vals and cond not in state.ptrs:
                    raise FlowError(f"loop on undefined variable {cond!r}")
                # Loop head: fresh variables receiving entry + back edge.
                head = state.copy()
                for name, qual in state.vals.items():
                    hv = fresh_qual_var(f"{name}_loop")
                    self._emit(qual, hv, "loop-entry", stmt)
                    head.vals[name] = hv
                # Points-to fixpoint: trial passes grow the head's sets
                # until the body adds no site (bounded by the number of
                # sites).  With no pointer in scope nothing can grow, so
                # there is no trial.  Trials record nothing; only the
                # exit pass emits constraints and observes checks and
                # events.
                was = self._recording
                self._recording = False
                try:
                    while head.ptrs:
                        trial = self._block(body, head.copy())
                        grown = False
                        for name, sites in trial.ptrs.items():
                            if name in head.ptrs and not sites <= head.ptrs[name]:
                                head.ptrs[name] |= sites
                                grown = True
                        if not grown:
                            break
                finally:
                    self._recording = was
                exit_state = self._block(body, head.copy())
                for name, hv in head.vals.items():
                    if name in exit_state.vals and exit_state.vals[name] != hv:
                        self._emit(exit_state.vals[name], hv, "loop-back-edge", stmt)
                # Variables first defined inside the loop body do not
                # escape (their scope is the body).
                return head

            case _:
                raise FlowError(f"unknown statement {stmt!r}")

    def _block(self, stmts: Block, state: _State) -> _State:
        for stmt in stmts:
            state = self._stmt(stmt, state)
        return state

    # -- entry point ------------------------------------------------------
    def analyze(
        self,
        program: Block,
        initial: dict[str, LatticeElement] | None = None,
    ) -> FlowResult:
        vals: dict[str, Qual] = dict(initial or {})
        final = self._block(program, _State(vals, {}))

        mentioned = [
            q for _k, _x, _l, q, _r in self.checks if isinstance(q, QualVar)
        ]
        mentioned.extend(self.cell_vars.values())
        solution = solve(self.constraints, self.lattice, extra_vars=mentioned)

        failures = []
        points = []
        for kind, variable, label, qual, required in self.checks:
            actual = (
                solution.least_of(qual) if isinstance(qual, QualVar) else qual
            )
            points.append((kind, label, variable, qual))
            if not self.lattice.leq(actual, required):
                failures.append(
                    CheckFailure(kind, variable, required, actual, label)
                )
        return FlowResult(self.lattice, solution, failures, final.vals, points)


def analyze_flow(
    program: Block,
    lattice: QualifierLattice,
    initial: dict[str, LatticeElement] | None = None,
) -> FlowResult:
    """Run the flow-sensitive analysis over a program."""
    return FlowAnalysis(lattice).analyze(program, initial)
