"""Atomic qualifier-constraint solver (paper Section 3.1).

After structural decomposition the constraint system consists solely of
atomic constraints of the forms::

    kappa <= kappa'      (variable/variable)
    l     <= kappa       (constant lower bound)
    kappa <= l           (constant upper bound)
    l     <= l'          (ground check)

over a fixed finite qualifier lattice.  Henglein and Rehof showed such
systems are solvable in linear time for a fixed lattice; this solver
realises that bound with a three-stage pipeline:

1. **Indexing** (:class:`IndexedSystem`) — constraints are categorised
   once into integer-indexed bound masks and a deduplicated
   variable/variable edge set.
2. **Condensation** — strongly connected components of the
   variable/variable graph are collapsed (:func:`repro.qual.flatcore._tarjan`,
   the one iterative Tarjan in the package — no recursion, constraint
   graphs of deep programs are deep) into representative nodes; all
   members of a ``<=``-cycle are equal in every solution.
3. **Propagation** — a single pass per direction over the condensation
   DAG in (reverse-)topological order, entirely on integer bitmasks,
   replaces the generic worklist fixpoint:

   * **least solution** — start every variable at lattice bottom and
     push constant *lower* bounds forward along ``kappa <= kappa'``
     edges, sources first;
   * **greatest solution** — dually, start at top and push constant
     *upper* bounds backward, sinks first.

Stages 2 and 3 run over flat integer arrays in
:mod:`repro.qual.flatcore`: a pure-stdlib kernel for small systems (and
for lattices too wide for int64 masks), and a numpy/scipy kernel,
imported on first use, for systems of at least ``_FLAT_FAST_MIN``
variables + edges.

The system is satisfiable iff the least solution satisfies every upper
bound; equivalently iff ``least(kappa) <= greatest(kappa)`` for all
``kappa``.  Both extreme solutions are exposed because qualifier
inference needs them to classify each position (Section 4.4):

* a variable **must** carry positive qualifier q if its least solution
  already contains q;
* it **cannot** carry q if its greatest solution lacks q;
* otherwise it **may** carry q — these are the "could be either"
  positions that the const experiment counts, and exactly the positions
  a polymorphic type leaves as unconstrained variables.

Provenance: every deduplicated edge keeps the constraint that created
it as a witness (including the intra-SCC edges of collapsed cycles), so
on unsatisfiability the solver re-runs the provenance-tracking worklist
(:func:`solve_reference`'s propagation) over the witness graph — the
error path is cold — and reconstructs a source-constant → ... →
sink-constant blame chain exactly as the naive solver would, cycles
included.  :class:`Solution` additionally carries :class:`SolverStats`
so benchmarks and diagnostics can report pipeline shape (variables,
SCCs, edge dedup, propagation steps).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .constraints import Origin, QualConstraint
from .lattice import LatticeElement, QualifierLattice
from .qtypes import QualVar


class UnsatisfiableError(Exception):
    """The constraint system has no solution.

    Carries the offending constraint, the conflicting bounds, and — when
    the solver tracked provenance — the *path* of constraints from the
    constant lower-bound source through the variable chain to the
    constant upper-bound sink, so callers can report the whole story:
    "const declared at a.c:3 flows through the call at a.c:9 into the
    assignment target at a.c:12".
    """

    def __init__(
        self,
        constraint: QualConstraint,
        lower: LatticeElement,
        upper: LatticeElement,
        path: list[QualConstraint] | None = None,
    ):
        self.constraint = constraint
        self.lower = lower
        self.upper = upper
        self.path = path or [constraint]
        super().__init__(
            f"unsatisfiable qualifier constraint: {constraint} "
            f"(forced lower bound {lower} exceeds upper bound {upper}; {constraint.origin})"
        )

    def explain(self) -> str:
        """Multi-line explanation following the conflicting flow."""
        lines = [
            f"conflict: lower bound {self.lower} cannot fit under "
            f"upper bound {self.upper}"
        ]
        for step in self.path:
            lines.append(f"  via {step}  ({step.origin})")
        return "\n".join(lines)


class Classification(enum.Enum):
    """Three-way outcome of inference for one qualifier at one position
    (Section 4.4: must be const / must not be const / could be either)."""

    MUST = "must"
    MUST_NOT = "must-not"
    EITHER = "either"


@dataclass(frozen=True)
class SolverStats:
    """Shape of one solver run, for benchmarks and diagnostics.

    ``edges_before`` counts raw variable/variable constraints,
    ``edges_after`` the surviving deduplicated edges, and ``dag_edges``
    the inter-component edges of the condensation actually propagated
    over.  ``propagation_steps`` sums the edge relaxations of both
    directional passes (least + greatest).
    """

    variables: int
    constraints: int
    ground_checks: int
    constant_bounds: int
    edges_before: int
    edges_after: int
    sccs: int
    collapsed_sccs: int
    largest_scc: int
    dag_edges: int
    propagation_steps: int

    def summary(self) -> str:
        """One-line rendering for benchmark reports."""
        return (
            f"{self.variables} vars, {self.constraints} constraints, "
            f"{self.sccs} SCCs ({self.collapsed_sccs} collapsed, "
            f"largest {self.largest_scc}), edges {self.edges_before}"
            f"->{self.edges_after} deduped ({self.dag_edges} DAG), "
            f"{self.propagation_steps} propagation steps"
        )


@dataclass
class Solution:
    """Extreme solutions of an atomic constraint system."""

    lattice: QualifierLattice
    least: dict[QualVar, LatticeElement]
    greatest: dict[QualVar, LatticeElement]
    stats: SolverStats | None = None

    def least_of(self, var: QualVar) -> LatticeElement:
        """Least solution of a variable (bottom if unmentioned)."""
        return self.least.get(var, self.lattice.bottom)

    def greatest_of(self, var: QualVar) -> LatticeElement:
        """Greatest solution of a variable (top if unmentioned)."""
        return self.greatest.get(var, self.lattice.top)

    def classify(self, var: QualVar, qualifier: str) -> Classification:
        """Classify a variable with respect to one qualifier by name.

        For a positive qualifier q: MUST if the least solution contains q,
        MUST_NOT if the greatest solution lacks it, EITHER otherwise.  For
        a negative qualifier the roles of the extremes swap (a negative
        qualifier present moves the element *down* the lattice).
        """
        q = self.lattice.qualifier(qualifier)
        lo, hi = self.least_of(var), self.greatest_of(var)
        if q.positive:
            if lo.has(q):
                return Classification.MUST
            if not hi.has(q):
                return Classification.MUST_NOT
        else:
            if hi.has(q):
                return Classification.MUST
            if not lo.has(q):
                return Classification.MUST_NOT
        return Classification.EITHER

    def is_unconstrained(self, var: QualVar) -> bool:
        """Whether the variable ranges over the whole lattice."""
        return (
            self.least_of(var) == self.lattice.bottom
            and self.greatest_of(var) == self.lattice.top
        )


def _as_element(q: QualVar | LatticeElement) -> LatticeElement | None:
    return q if isinstance(q, LatticeElement) else None


class IndexedSystem:
    """An atomic constraint system categorised into integer-indexed form.

    Adding constraints folds constant bounds into per-variable bitmasks
    and deduplicates variable/variable edges (keeping the first
    constraint per edge as the provenance witness).  :meth:`solve` runs
    the condensation pipeline over the indexed state.
    """

    def __init__(self, lattice: QualifierLattice):
        self.lattice = lattice
        self._var_index: dict[QualVar, int] = {}
        self._vars: list[QualVar] = []
        self._lower_mask: dict[int, int] = {}
        self._upper_mask: dict[int, int] = {}
        self._lower_origins: dict[int, QualConstraint] = {}
        self._upper_origins: dict[int, list[QualConstraint]] = {}
        #: (u, v) -> first constraint creating the edge u <= v.
        self._edges: dict[tuple[int, int], QualConstraint] = {}
        #: The same deduplicated edges as parallel int lists, maintained
        #: incrementally so the flat-array kernel (repro.qual.flatcore)
        #: can bulk-convert them without walking dict keys.
        self._edge_u: list[int] = []
        self._edge_v: list[int] = []
        self._edges_before = 0
        self._constraints = 0
        self._ground_checks = 0
        self._constant_bounds = 0
        self._ground_conflict: QualConstraint | None = None

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def _index(self, var: QualVar) -> int:
        i = self._var_index.get(var)
        if i is None:
            i = len(self._vars)
            self._var_index[var] = i
            self._vars.append(var)
        return i

    def add_var(self, var: QualVar) -> None:
        """Ensure a variable appears in the solution even if unmentioned."""
        self._index(var)

    def add(self, c: QualConstraint) -> None:
        """Categorise one atomic constraint into the indexed state."""
        self.add_many((c,))

    def add_many(self, constraints: Iterable[QualConstraint]) -> None:
        """Categorise a batch of constraints.

        This is the hot boundary between inference and solving — every
        generated constraint passes through exactly once — so the loop
        binds all lookup targets to locals.
        """
        lattice = self.lattice
        bottom_mask = lattice.bottom.mask
        top_mask = lattice.top.mask
        join_mask = lattice.join_mask
        meet_mask = lattice.meet_mask
        leq_mask = lattice.leq_mask
        var_index = self._var_index
        variables = self._vars
        lower_mask = self._lower_mask
        upper_mask = self._upper_mask
        lower_origins = self._lower_origins
        upper_origins = self._upper_origins
        edges = self._edges
        edge_u = self._edge_u
        edge_v = self._edge_v
        count = edges_before = ground_checks = constant_bounds = 0

        for c in constraints:
            count += 1
            lhs, rhs = c.lhs, c.rhs
            lhs_is_const = isinstance(lhs, LatticeElement)
            rhs_is_const = isinstance(rhs, LatticeElement)
            if lhs_is_const:
                if rhs_is_const:
                    ground_checks += 1
                    if self._ground_conflict is None and not leq_mask(
                        lhs.mask, rhs.mask
                    ):
                        self._ground_conflict = c
                    continue
                constant_bounds += 1
                i = var_index.get(rhs)
                if i is None:
                    i = var_index[rhs] = len(variables)
                    variables.append(rhs)
                prev = lower_mask.get(i, bottom_mask)
                joined = join_mask(prev, lhs.mask)
                if joined != prev:
                    lower_origins[i] = c
                    lower_mask[i] = joined
            elif rhs_is_const:
                constant_bounds += 1
                i = var_index.get(lhs)
                if i is None:
                    i = var_index[lhs] = len(variables)
                    variables.append(lhs)
                prev = upper_mask.get(i, top_mask)
                upper_mask[i] = meet_mask(prev, rhs.mask)
                bucket = upper_origins.get(i)
                if bucket is None:
                    upper_origins[i] = [c]
                else:
                    bucket.append(c)
            else:
                edges_before += 1
                u = var_index.get(lhs)
                if u is None:
                    u = var_index[lhs] = len(variables)
                    variables.append(lhs)
                v = var_index.get(rhs)
                if v is None:
                    v = var_index[rhs] = len(variables)
                    variables.append(rhs)
                if u != v:
                    key = (u, v)
                    if key not in edges:
                        edges[key] = c
                        edge_u.append(u)
                        edge_v.append(v)

        self._constraints += count
        self._edges_before += edges_before
        self._ground_checks += ground_checks
        self._constant_bounds += constant_bounds

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        extra_vars: Iterable[QualVar] = (),
        constraints: Iterable[QualConstraint] = (),
    ) -> Solution:
        """Categorise ``constraints`` into the system, then solve on the
        flat-array kernels of :mod:`repro.qual.flatcore` (see module
        docstring); indexing is timed as solver work, as in :func:`solve`."""
        from .flatcore import solve_indexed

        self.add_many(constraints)
        return solve_indexed(self, extra_vars)

    # ------------------------------------------------------------------
    # Failure explanation (cold path)
    # ------------------------------------------------------------------
    def _unsat_error(
        self, var: QualVar, lo_mask: int, hi_mask: int
    ) -> UnsatisfiableError:
        """Reconstruct a blame path by re-running the provenance-tracking
        worklist over the witness edges.  The fast path keeps no
        per-variable provenance; errors are rare enough that an O(system)
        re-propagation for a precise explanation is the right trade."""
        lattice = self.lattice
        succs: dict[QualVar, list[tuple[QualVar, QualConstraint]]] = {}
        preds: dict[QualVar, list[tuple[QualVar, QualConstraint]]] = {}
        for (u, v), c in self._edges.items():
            uv, vv = self._vars[u], self._vars[v]
            succs.setdefault(uv, []).append((vv, c))
            preds.setdefault(vv, []).append((uv, c))
        variables = self._vars  # insertion order: worklist + blame stay deterministic
        lower = {
            self._vars[i]: lattice.from_mask(m) for i, m in self._lower_mask.items()
        }
        upper = {
            self._vars[i]: lattice.from_mask(m) for i, m in self._upper_mask.items()
        }
        lower_origins = {self._vars[i]: c for i, c in self._lower_origins.items()}
        upper_origins = {self._vars[i]: list(v) for i, v in self._upper_origins.items()}

        least, lower_pred = _propagate(variables, succs, lower, lattice, up=True)
        _greatest, upper_pred = _propagate(variables, preds, upper, lattice, up=False)

        lo = lattice.from_mask(lo_mask)
        hi = lattice.from_mask(hi_mask)
        path = _explain_path(
            var, lower_pred, upper_pred, lower_origins, upper_origins, lattice, least
        )
        witness = (
            path[-1]
            if path
            else _violated_upper(var, lo, upper_origins, lattice)
            or QualConstraint(var, hi, Origin("derived bound"))
        )
        return UnsatisfiableError(witness, lo, hi, path)


def solve(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    extra_vars: Iterable[QualVar] = (),
) -> Solution:
    """Solve an atomic constraint system over ``lattice``.

    Returns the least and greatest solutions (with :class:`SolverStats`
    attached); raises :class:`UnsatisfiableError` if none exists.
    ``extra_vars`` names variables that should appear in the solution
    even if no constraint mentions them (they solve to [bottom, top]).
    """
    return IndexedSystem(lattice).solve(extra_vars, constraints)


def _violated_upper(
    var: QualVar,
    lo: LatticeElement,
    upper_origins: Mapping[QualVar, list[QualConstraint]],
    lattice: QualifierLattice,
) -> QualConstraint | None:
    """The recorded constant upper-bound constraint that ``lo`` actually
    violates — not merely the first recorded one, which may be a looser
    bound (e.g. ``kappa <= top``) that played no part in the conflict."""
    candidates = upper_origins.get(var)
    if not candidates:
        return None
    for c in candidates:
        rhs = _as_element(c.rhs)
        if rhs is not None and not lattice.leq(lo, rhs):
            return c
    return candidates[0]


def _explain_path(
    var: QualVar,
    lower_pred: Mapping[QualVar, tuple[QualVar, QualConstraint]],
    upper_pred: Mapping[QualVar, tuple[QualVar, QualConstraint]],
    lower_origins: Mapping[QualVar, QualConstraint],
    upper_origins: Mapping[QualVar, list[QualConstraint]],
    lattice: QualifierLattice | None = None,
    least: Mapping[QualVar, LatticeElement] | None = None,
) -> list[QualConstraint]:
    """Reconstruct source-constant -> ... -> var -> ... -> sink-constant.

    When ``lattice`` and ``least`` are given, the sink constraint is the
    recorded upper bound the variable's forced value actually violates
    (see :func:`_violated_upper`); otherwise the first recorded bound is
    used.  Cyclic provenance chains (through collapsed ``<=``-cycles)
    terminate at the first revisited variable.
    """
    down: list[QualConstraint] = []
    cursor = var
    seen = {cursor}
    while cursor in lower_pred:
        origin_var, constraint = lower_pred[cursor]
        down.append(constraint)
        cursor = origin_var
        if cursor in seen:
            break
        seen.add(cursor)
    if cursor in lower_origins:
        down.append(lower_origins[cursor])
    down.reverse()

    up: list[QualConstraint] = []
    cursor = var
    seen = {cursor}
    while cursor in upper_pred:
        origin_var, constraint = upper_pred[cursor]
        up.append(constraint)
        cursor = origin_var
        if cursor in seen:
            break
        seen.add(cursor)
    if upper_origins.get(cursor):
        chosen: QualConstraint | None = None
        if lattice is not None and least is not None:
            lo = least.get(cursor)
            if lo is not None:
                chosen = _violated_upper(cursor, lo, upper_origins, lattice)
        up.append(chosen if chosen is not None else upper_origins[cursor][0])
    return down + up


def _propagate(
    variables: Iterable[QualVar],
    edges: Mapping[QualVar, list[tuple[QualVar, QualConstraint]]],
    init: Mapping[QualVar, LatticeElement],
    lattice: QualifierLattice,
    up: bool,
) -> tuple[dict[QualVar, LatticeElement], dict[QualVar, tuple[QualVar, QualConstraint]]]:
    """Worklist fixpoint with provenance — the reference propagation.

    With ``up=True`` computes the least solution: values start at bottom
    (or the variable's constant lower bound) and flow along edges via join.
    With ``up=False`` computes the greatest solution dually via meet.
    Returns the values plus, per variable, the (predecessor, constraint)
    whose propagation last changed it — enough to walk a blame path.

    The condensation pipeline computes the same fixpoint without
    provenance; this worklist remains as the blame reconstructor on the
    unsatisfiable path, as the reference for differential tests, and as
    the baseline for the condensation-vs-worklist microbenchmarks.
    """
    default = lattice.bottom if up else lattice.top
    combine = lattice.join if up else lattice.meet
    values: dict[QualVar, LatticeElement] = {
        v: init.get(v, default) for v in variables
    }
    provenance: dict[QualVar, tuple[QualVar, QualConstraint]] = {}
    work = deque(v for v in variables if values[v] != default)
    queued = set(work)
    while work:
        v = work.popleft()
        queued.discard(v)
        value = values[v]
        for w, constraint in edges.get(v, ()):
            merged = combine(values[w], value)
            if merged != values[w]:
                values[w] = merged
                provenance[w] = (v, constraint)
                if w not in queued:
                    work.append(w)
                    queued.add(w)
    return values, provenance


def shortest_flow_path(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    target: QualVar,
    bound: LatticeElement,
) -> list[QualConstraint] | None:
    """Shortest qualifier-flow path explaining why ``target``'s least
    solution violates the upper bound ``bound``.

    In a product of two-point lattices the least solution decomposes per
    coordinate, so whenever ``least(target) <= bound`` fails there is a
    *single* seeding constraint — a constant lower bound ``l <= kappa``
    with ``not (l <= bound)`` — from which the offending qualifier flows
    to ``target`` through variable-to-variable edges.  A multi-source BFS
    from every such seed therefore finds a minimum-length witness:
    ``[seed, edge, edge, ...]`` ending in a constraint whose right side
    is ``target`` (or just ``[seed]`` when ``target`` is seeded
    directly).  Returns ``None`` when no violating seed reaches
    ``target`` — i.e. the bound is actually satisfied.

    Ties break deterministically by origin span, then variable uid —
    *not* by constraint emission order — so the witness is stable no
    matter how the constraint list was assembled (cache-restored
    summaries, concatenated TUs).
    """

    def origin_rank(c: QualConstraint) -> tuple[str, int, int, str]:
        o = c.origin
        return (o.filename or "", o.line or 0, o.column or 0, o.reason)

    best_edge: dict[tuple[QualVar, QualVar], QualConstraint] = {}
    best_seed: dict[QualVar, QualConstraint] = {}

    for c in constraints:
        lhs, rhs = c.lhs, c.rhs
        if isinstance(lhs, QualVar) and isinstance(rhs, QualVar):
            key = (lhs, rhs)
            held = best_edge.get(key)
            if held is None or origin_rank(c) < origin_rank(held):
                best_edge[key] = c
        elif isinstance(rhs, QualVar):
            elem = _as_element(lhs)
            if elem is not None and not lattice.leq(elem, bound):
                held = best_seed.get(rhs)
                if held is None or origin_rank(c) < origin_rank(held):
                    best_seed[rhs] = c

    edges: dict[QualVar, list[tuple[QualVar, QualConstraint]]] = {}
    for (lhs, rhs), c in best_edge.items():
        edges.setdefault(lhs, []).append((rhs, c))
    for out in edges.values():
        out.sort(key=lambda e: (origin_rank(e[1]), e[0].uid, e[0].name))

    parent: dict[QualVar, tuple[QualVar | None, QualConstraint]] = {}
    queue: deque[QualVar] = deque()
    for var, seed in sorted(
        best_seed.items(), key=lambda s: (origin_rank(s[1]), s[0].uid, s[0].name)
    ):
        parent[var] = (None, seed)
        queue.append(var)

    while queue:
        v = queue.popleft()
        if v == target:
            break
        for w, constraint in edges.get(v, ()):
            if w not in parent:
                parent[w] = (v, constraint)
                queue.append(w)

    if target not in parent:
        return None
    path: list[QualConstraint] = []
    cursor: QualVar | None = target
    while cursor is not None:
        prev, constraint = parent[cursor]
        path.append(constraint)
        cursor = prev
    path.reverse()
    return path


def solve_reference(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    extra_vars: Iterable[QualVar] = (),
) -> Solution:
    """The pre-condensation solver: categorise, then run the generic
    worklist fixpoint in both directions.

    Kept verbatim as the differential-testing oracle and the baseline
    for ``benchmarks/test_solver_kernel.py``; :func:`solve` must agree
    with it on every satisfiable system.
    """
    constraint_list = list(constraints)

    succs: dict[QualVar, list[tuple[QualVar, QualConstraint]]] = {}
    preds: dict[QualVar, list[tuple[QualVar, QualConstraint]]] = {}
    lower: dict[QualVar, LatticeElement] = {}
    upper: dict[QualVar, LatticeElement] = {}
    lower_origins: dict[QualVar, QualConstraint] = {}
    upper_origins: dict[QualVar, list[QualConstraint]] = {}
    # First-encounter order (constraint variables, then the extras), so
    # the violation scan below blames the same variable as the indexed
    # pipeline's scan over ``self._vars``.  A set here would make the
    # blame among simultaneously violated variables depend on string
    # hash randomisation.
    variables: dict[QualVar, None] = {}

    for c in constraint_list:
        lhs_const, rhs_const = _as_element(c.lhs), _as_element(c.rhs)
        if lhs_const is not None and rhs_const is not None:
            if not lattice.leq(lhs_const, rhs_const):
                raise UnsatisfiableError(c, lhs_const, rhs_const)
        elif lhs_const is not None:
            assert isinstance(c.rhs, QualVar)
            variables[c.rhs] = None
            joined = lattice.join(lower.get(c.rhs, lattice.bottom), lhs_const)
            if joined != lower.get(c.rhs, lattice.bottom):
                lower_origins[c.rhs] = c
            lower[c.rhs] = joined
        elif rhs_const is not None:
            assert isinstance(c.lhs, QualVar)
            variables[c.lhs] = None
            upper[c.lhs] = lattice.meet(upper.get(c.lhs, lattice.top), rhs_const)
            upper_origins.setdefault(c.lhs, []).append(c)
        else:
            assert isinstance(c.lhs, QualVar) and isinstance(c.rhs, QualVar)
            variables[c.lhs] = None
            variables[c.rhs] = None
            succs.setdefault(c.lhs, []).append((c.rhs, c))
            preds.setdefault(c.rhs, []).append((c.lhs, c))
    for var in extra_vars:
        variables.setdefault(var, None)

    least, lower_pred = _propagate(variables, succs, lower, lattice, up=True)
    greatest, upper_pred = _propagate(variables, preds, upper, lattice, up=False)

    for var in variables:
        lo = least.get(var, lattice.bottom)
        hi = greatest.get(var, lattice.top)
        if not lattice.leq(lo, hi):
            path = _explain_path(
                var, lower_pred, upper_pred, lower_origins, upper_origins, lattice, least
            )
            witness = (
                path[-1]
                if path
                else _violated_upper(var, lo, upper_origins, lattice)
                or QualConstraint(var, hi, Origin("derived bound"))
            )
            raise UnsatisfiableError(witness, lo, hi, path)

    return Solution(lattice, least, greatest)


def satisfiable(
    constraints: Iterable[QualConstraint], lattice: QualifierLattice
) -> bool:
    """Whether the atomic system has any solution."""
    try:
        solve(constraints, lattice)
    except UnsatisfiableError:
        return False
    return True


def check_ground(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    assignment: Mapping[QualVar, LatticeElement],
) -> QualConstraint | None:
    """Check a candidate assignment; return the first violated constraint.

    Used by property-based tests to validate that solver solutions really
    satisfy the system, and by the checking (non-inference) pipeline.
    """
    def value(q: QualVar | LatticeElement) -> LatticeElement:
        if isinstance(q, LatticeElement):
            return q
        return assignment.get(q, lattice.bottom)

    for c in constraints:
        if not lattice.leq(value(c.lhs), value(c.rhs)):
            return c
    return None
