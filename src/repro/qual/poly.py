"""Polymorphic constrained qualifier types (paper Section 3.2).

A polymorphic type ``forall kappa_vec. rho \\ C`` stands for every
instantiation ``rho[kappa_vec -> Q_vec]`` under constraints
``C[kappa_vec -> Q_vec]``.  Polymorphism applies only to qualifiers —
the underlying type structure stays monomorphic — so generalisation and
instantiation are pure renamings of qualifier variables.

Following the paper we use let-style polymorphism restricted to syntactic
values, with the rules:

* **(Letv)** — generalise the qualifier variables of a value's type that
  are not free in the environment; the generalised variables become
  existentially quantified in the residual constraint system (they are
  purely local and may be renamed freely).
* **(Var')** — instantiate a polymorphic type at a use site by renaming
  its bound variables to fresh ones and re-emitting its constraints under
  the renaming.

This module supplies the scheme representation plus generalisation,
instantiation, and the constraint-restriction step that keeps each scheme
carrying only the constraints that actually mention its bound variables
(everything else remains once in the global system).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Sequence

from .constraints import QualConstraint
from .flatcore import sccs_of
from .qtypes import (
    QType,
    Qual,
    QualVar,
    apply_qual_subst,
    format_qtype,
    fresh_qual_var,
    qual_vars,
)


def _subst_qual(q: Qual, subst: dict[QualVar, Qual]) -> Qual:
    if isinstance(q, QualVar):
        return subst.get(q, q)
    return q


def rename_constraints(
    constraints: Iterable[QualConstraint], subst: dict[QualVar, Qual]
) -> list[QualConstraint]:
    """Apply a qualifier-variable substitution to a list of constraints."""
    return [
        QualConstraint(_subst_qual(c.lhs, subst), _subst_qual(c.rhs, subst), c.origin)
        for c in constraints
    ]


def restrict_constraints(
    constraints: Iterable[QualConstraint], variables: set[QualVar]
) -> list[QualConstraint]:
    """Keep the constraints that mention at least one of ``variables``.

    These are the constraints a scheme must carry: at instantiation they
    are re-emitted under the renaming, while constraints purely between
    free variables stay (once) in the enclosing system.
    """
    out = []
    for c in constraints:
        if (isinstance(c.lhs, QualVar) and c.lhs in variables) or (
            isinstance(c.rhs, QualVar) and c.rhs in variables
        ):
            out.append(c)
    return out


@dataclass(frozen=True)
class QualScheme:
    """``forall quantified. body \\ constraints``.

    A monomorphic type is the degenerate scheme with no quantified
    variables and no carried constraints.
    """

    quantified: tuple[QualVar, ...]
    body: QType
    constraints: tuple[QualConstraint, ...] = ()

    @property
    def is_monomorphic(self) -> bool:
        return not self.quantified

    def instantiate(
        self, fresh: Callable[[], QualVar] = fresh_qual_var
    ) -> tuple[QType, list[QualConstraint]]:
        """(Var'): rename bound variables fresh; return body and constraints."""
        if not self.quantified:
            return self.body, list(self.constraints)
        subst: dict[QualVar, Qual] = {v: fresh() for v in self.quantified}
        return (
            apply_qual_subst(self.body, subst),
            rename_constraints(self.constraints, subst),
        )

    def free_qual_vars(self) -> set[QualVar]:
        """Qualifier variables free in the scheme (not bound by forall)."""
        bound = set(self.quantified)
        out = qual_vars(self.body) - bound
        for c in self.constraints:
            for q in (c.lhs, c.rhs):
                if isinstance(q, QualVar) and q not in bound:
                    out.add(q)
        return out

    def __str__(self) -> str:
        if not self.quantified:
            return format_qtype(self.body)
        names = " ".join(v.name for v in self.quantified)
        base = f"forall {names}. {format_qtype(self.body)}"
        if self.constraints:
            cs = ", ".join(str(c) for c in self.constraints)
            base += f" \\ {{{cs}}}"
        return base


def monomorphic(body: QType) -> QualScheme:
    """The trivial scheme of a monomorphic type."""
    return QualScheme((), body)


def generalize(
    bodies: Sequence[QType],
    constraints: Sequence[QualConstraint],
    env: AbstractSet[QualVar] | int,
    lattice=None,
    compress: bool = False,
) -> list[QualScheme]:
    """(Letv) for one binding group: quantify each body's qualifier
    variables not free in the environment, carrying along the
    constraints that mention them.  Returns one scheme per body.

    ``env`` is the environment's variables: a set of them, or an int uid
    watermark below which every variable is free (the engines' form:
    everything created before the group belongs to the environment).

    Each scheme's constraint set is first *closed*: starting from the
    body's generalisable variables, any variable connected to them
    through a constraint is swept in (if it is not free in the
    environment), so instantiation reproduces the full local subsystem.
    The group's constraints are indexed by variable once, so each body
    costs the size of its own closure, not of the whole group.

    With ``compress=True`` the carried system is then shrunk by
    *transitive bound compression*: quantified variables that do not occur
    in the body (pure interior plumbing of the generalised function) are
    projected out by resolution — every lower bound composed with every
    upper bound — which is exact for atomic constraints in any lattice.
    Every later instantiation then copies only constraints between
    interface variables and constants.  Pass the ``lattice`` so ground
    by-products that already hold can be dropped (unsatisfiable ground
    by-products are always kept, preserving error reporting).
    """
    # Variables are keyed by uid (fresh_qual_var numbers them uniquely):
    # an int hashes in C, a QualVar through a Python-level __hash__.
    if isinstance(env, int):
        boundary, env_uids = env, frozenset()
    else:
        boundary, env_uids = -math.inf, {v.uid for v in env}

    # Which constraints mention each generalisable variable.
    uses: dict[int, list[int]] = {}
    for index, c in enumerate(constraints):
        for q in (c.lhs, c.rhs):
            if q.__class__ is QualVar:
                uid = q.uid
                if uid >= boundary and uid not in env_uids:
                    if uid in uses:
                        uses[uid].append(index)
                    else:
                        uses[uid] = [index]

    schemes = []
    for body in bodies:
        body_vars = qual_vars(body)
        quantified = {
            v.uid: v
            for v in body_vars
            if v.uid >= boundary and v.uid not in env_uids
        }
        interface = set(quantified)
        # Close over constraint connectivity so chains like k1 <= k2 <= k3
        # are carried whole even when only k1 appears in the body; the
        # constraints met on the way are exactly those to carry.
        picked: set[int] = set()
        frontier = list(quantified)
        while frontier:
            for index in uses.get(frontier.pop(), ()):
                if index in picked:
                    continue
                picked.add(index)
                c = constraints[index]
                for w in (c.lhs, c.rhs):
                    if w.__class__ is QualVar:
                        uid = w.uid
                        if uid in uses and uid not in quantified:
                            quantified[uid] = w
                            frontier.append(uid)
        # Restrict and deduplicate in one pass, in the original order;
        # variables are keyed by uid, so ``a == b`` is ``c.is_trivial``.
        carried: dict[tuple, QualConstraint] = {}
        for index in sorted(picked):
            c = constraints[index]
            a, b = c.lhs, c.rhs
            if a.__class__ is QualVar:
                a = a.uid
            if b.__class__ is QualVar:
                b = b.uid
            if a != b and (a, b) not in carried:
                carried[a, b] = c
        if compress and len(quantified) > len(interface):
            _compress_interior(carried, quantified.keys() - interface, lattice)
            # A variable eliminated by compression no longer needs a
            # binder; one kept only as plumbing between survivors still
            # does.
            mentioned = {k for key in carried for k in key}
            for uid in quantified.keys() - interface - mentioned:
                del quantified[uid]
        ordered = tuple(quantified[uid] for uid in sorted(quantified))
        schemes.append(QualScheme(ordered, body, tuple(carried.values())))
    return schemes


def _compress_interior(
    work: dict[tuple, QualConstraint],
    interior: AbstractSet[int],
    lattice,
) -> None:
    """Project the ``interior`` variables (uids) out of a deduplicated
    atomic system by resolution, in place.  ``work`` maps each
    constraint's ``(lhs, rhs)``, variables as uids, to the constraint.

    For each eliminated variable ``v`` with lower bounds ``L`` and upper
    bounds ``U``, the system minus ``v`` plus ``{l <= u | l in L, u in U}``
    has exactly the same solutions over the remaining variables (the
    classic exactness of resolution for atomic subtyping).  The victim
    is always the least ``(|L|·|U|, uid)``; a variable whose product
    exceeds ``|L|+|U|`` would *grow* the system and is kept, since
    compression must never make instantiation more expensive.  A
    victim's resolvents go after the surviving constraints, which keep
    their order.  Bounds are kept per variable in insertion-ordered dicts
    updated in place, and a heap re-entered whenever a variable's bounds
    change picks the victims.
    """
    from .lattice import LatticeElement

    lowers: dict[int, dict] = {v: {} for v in interior}
    uppers: dict[int, dict] = {v: {} for v in interior}
    for key, c in work.items():
        a, b = key
        if b in lowers:
            lowers[b][key] = c
        if a in uppers:
            uppers[a][key] = c

    heap = [(len(lowers[v]) * len(uppers[v]), v) for v in interior]
    heapq.heapify(heap)
    touched: set[int] = set()
    while heap:
        fan, victim = heapq.heappop(heap)
        if victim not in lowers:
            continue  # already eliminated
        lo = lowers[victim]
        up = uppers[victim]
        if fan != len(lo) * len(up):
            continue  # stale: a fresher entry is queued
        if fan > len(lo) + len(up):
            continue  # fan-out would grow the system; re-queued on change
        del lowers[victim], uppers[victim]
        touched.clear()
        for key in lo:
            del work[key]
            if key[0] in uppers:
                del uppers[key[0]][key]
                touched.add(key[0])
        for key in up:
            del work[key]
            if key[1] in lowers:
                del lowers[key[1]][key]
                touched.add(key[1])
        for (a, _), low in lo.items():
            for (_, b), high in up.items():
                key = (a, b)
                if a == b or key in work:
                    continue
                if (
                    lattice is not None
                    and isinstance(low.lhs, LatticeElement)
                    and isinstance(high.rhs, LatticeElement)
                    and lattice.leq(low.lhs, high.rhs)
                ):
                    continue  # ground and already true: no information
                # blame the upper-bound half: that is the constraint a
                # violation of the composed bound would trip
                c = work[key] = QualConstraint(low.lhs, high.rhs, high.origin)
                if a in uppers:
                    uppers[a][key] = c
                    touched.add(a)
                if b in lowers:
                    lowers[b][key] = c
                    touched.add(b)
        for v in touched:
            heapq.heappush(heap, (len(lowers[v]) * len(uppers[v]), v))


def _dedupe(constraints: Iterable[QualConstraint]) -> list[QualConstraint]:
    seen: set[tuple[Qual, Qual]] = set()
    out = []
    for c in constraints:
        key = (c.lhs, c.rhs)
        if key not in seen and not c.is_trivial:
            seen.add(key)
            out.append(c)
    return out


def minimize_scheme(scheme: QualScheme, lattice=None) -> QualScheme:
    """Aggressively simplify a scheme for presentation (Section 6 raises
    this as an open problem; this implements the exact core of it for
    atomic constraints).

    Three solution-set-preserving transformations, in order:

    1. **Cycle collapse** — quantified variables in a ``<=`` cycle are
       equal in every solution; they are merged into one representative
       (rewriting the body).
    2. **Interior elimination** — a quantified variable not occurring in
       the body is projected out by resolution: every lower bound is
       composed with every upper bound.  For atomic constraints this is
       *exact*: ``join(lowers) <= meet(uppers)`` holds iff every
       lower/upper pair is ordered, in any lattice.
    3. **Transitive reduction** — edges implied by other edges (or by a
       constant chain ``upper(a) <= lower(b)``, when a lattice is given)
       are dropped, and trivial bottom-lower / top-upper constant bounds
       disappear.

    The property tests validate preservation by brute force: the
    projection of the solution set onto the body's variables is
    identical before and after.
    """
    from .lattice import LatticeElement

    body_vars = qual_vars(scheme.body)
    bound = set(scheme.quantified)
    constraints = _dedupe(scheme.constraints)

    # -- 1. collapse <=-cycles among quantified variables ---------------
    adjacency: dict[QualVar, set[QualVar]] = {}
    for c in constraints:
        if isinstance(c.lhs, QualVar) and isinstance(c.rhs, QualVar):
            if c.lhs in bound and c.rhs in bound:
                adjacency.setdefault(c.lhs, set()).add(c.rhs)
    vertices = sorted(
        set(adjacency) | {w for ws in adjacency.values() for w in ws},
        key=lambda v: v.uid,
    )
    representative: dict[QualVar, QualVar] = {}
    for component in sccs_of(vertices, lambda v: adjacency.get(v, ())):
        if len(component) > 1:
            # prefer a body-occurring representative for readability
            rep = next((v for v in component if v in body_vars), component[0])
            for member in component:
                representative[member] = rep
    if representative:
        subst: dict[QualVar, Qual] = dict(representative)
        constraints = _dedupe(rename_constraints(constraints, subst))
        body = apply_qual_subst(scheme.body, subst)
        body_vars = qual_vars(body)
        bound = {representative.get(v, v) for v in bound}
    else:
        body = scheme.body

    # -- 2. eliminate quantified interior variables ---------------------
    changed = True
    while changed:
        changed = False
        for victim in sorted(bound - body_vars, key=lambda v: v.uid):
            lowers = [c.lhs for c in constraints if c.rhs == victim]
            uppers = [c.rhs for c in constraints if c.lhs == victim]
            keep = [c for c in constraints if victim not in (c.lhs, c.rhs)]
            for low in lowers:
                for up in uppers:
                    keep.append(QualConstraint(low, up))
            constraints = _dedupe(keep)
            bound.discard(victim)
            changed = True
            break

    # -- 3. transitive reduction and trivia removal ----------------------
    def ground_holds(a: Qual, b: Qual) -> bool:
        if (
            lattice is not None
            and isinstance(a, LatticeElement)
            and isinstance(b, LatticeElement)
        ):
            return lattice.leq(a, b)
        return a == b

    kept = list(constraints)
    position = 0
    while position < len(kept):
        c = kept[position]
        trivial = (
            ground_holds(c.lhs, c.rhs)
            or (
                lattice is not None
                and isinstance(c.rhs, LatticeElement)
                and c.rhs == lattice.top
            )
            or (
                lattice is not None
                and isinstance(c.lhs, LatticeElement)
                and c.lhs == lattice.bottom
            )
        )
        if trivial:
            kept.pop(position)
            continue
        others = kept[:position] + kept[position + 1 :]
        if _derivable(c.lhs, c.rhs, others, lattice):
            kept.pop(position)
            continue
        position += 1
    constraints = _dedupe(kept)

    kept_vars = set(body_vars)
    for c in constraints:
        for q in (c.lhs, c.rhs):
            if isinstance(q, QualVar):
                kept_vars.add(q)
    quantified = tuple(sorted(bound & kept_vars, key=lambda v: v.uid))
    return QualScheme(quantified, body, tuple(constraints))


def _derivable(
    lhs: Qual, rhs: Qual, constraints: list[QualConstraint], lattice
) -> bool:
    """Whether ``lhs <= rhs`` follows from ``constraints`` by chaining
    (and, when a lattice is given, ground comparisons at the endpoints)."""
    from .lattice import LatticeElement

    def below(a: Qual, b: Qual) -> bool:
        if a == b:
            return True
        if (
            lattice is not None
            and isinstance(a, LatticeElement)
            and isinstance(b, LatticeElement)
        ):
            return lattice.leq(a, b)
        return False

    reachable: set[Qual] = {lhs}
    frontier = [lhs]
    while frontier:
        current = frontier.pop()
        if below(current, rhs):
            return True
        for c in constraints:
            if below(current, c.lhs) and c.rhs not in reachable:
                reachable.add(c.rhs)
                frontier.append(c.rhs)
    return any(below(q, rhs) for q in reachable)


def simplify_scheme(scheme: QualScheme) -> QualScheme:
    """Drop quantified variables that no constraint and no body position
    mentions, and deduplicate constraints — a light version of the
    constraint-simplification problem the paper's future-work section
    raises (full simplification is open; this handles the easy cases).
    """
    mentioned = qual_vars(scheme.body)
    for c in scheme.constraints:
        for q in (c.lhs, c.rhs):
            if isinstance(q, QualVar):
                mentioned.add(q)
    kept = tuple(v for v in scheme.quantified if v in mentioned)
    return QualScheme(kept, scheme.body, tuple(_dedupe(scheme.constraints)))
