"""The reference generalisation: (Letv) one body at a time, by rescans.

:func:`repro.qual.poly.generalize` indexes a binding group's constraints
once and keeps each interior variable's bounds up to date while it
compresses.  This is the plain form it must agree with, scheme for
scheme: close each body's variables over every constraint, restrict,
then compress by restarting a full rescan after every elimination.
Test-only; nothing in the engines calls it.
"""

from __future__ import annotations

from typing import Sequence

from ..qual.constraints import QualConstraint
from ..qual.lattice import LatticeElement
from ..qual.poly import QualScheme, _dedupe, restrict_constraints
from ..qual.qtypes import QType, QualVar, qual_vars


def generalize_reference(
    body: QType,
    constraints: Sequence[QualConstraint],
    env_vars: set[QualVar],
    lattice=None,
    compress: bool = False,
) -> QualScheme:
    """(Letv) for one body, with ``env_vars`` free in the environment."""
    candidate = qual_vars(body) - env_vars
    adjacency: dict[QualVar, set[QualVar]] = {}
    for c in constraints:
        if isinstance(c.lhs, QualVar) and isinstance(c.rhs, QualVar):
            adjacency.setdefault(c.lhs, set()).add(c.rhs)
            adjacency.setdefault(c.rhs, set()).add(c.lhs)
    frontier = list(candidate)
    quantified = set(candidate)
    while frontier:
        v = frontier.pop()
        for w in adjacency.get(v, ()):
            if w not in quantified and w not in env_vars:
                quantified.add(w)
                frontier.append(w)

    carried = _dedupe(restrict_constraints(constraints, quantified))
    if compress:
        interior = quantified - qual_vars(body)
        carried = _compress_by_rescans(carried, interior, lattice)
        mentioned: set[QualVar] = set()
        for c in carried:
            if isinstance(c.lhs, QualVar):
                mentioned.add(c.lhs)
            if isinstance(c.rhs, QualVar):
                mentioned.add(c.rhs)
        quantified = (quantified - interior) | (quantified & mentioned)
    ordered = tuple(sorted(quantified, key=lambda v: v.uid))
    return QualScheme(ordered, body, tuple(carried))


def _compress_by_rescans(
    constraints: list[QualConstraint],
    interior: set[QualVar],
    lattice,
) -> list[QualConstraint]:
    """Eliminate the least ``(|L|·|U|, uid)`` interior variable whose
    product does not exceed ``|L|+|U|``, rebuilding every bound list
    from scratch before each choice."""
    if not interior:
        return constraints

    work = list(constraints)
    eliminated: set[QualVar] = set()
    changed = True
    while changed:
        changed = False
        lowers: dict[QualVar, list[QualConstraint]] = {}
        uppers: dict[QualVar, list[QualConstraint]] = {}
        for c in work:
            if isinstance(c.rhs, QualVar) and c.rhs in interior:
                lowers.setdefault(c.rhs, []).append(c)
            if isinstance(c.lhs, QualVar) and c.lhs in interior:
                uppers.setdefault(c.lhs, []).append(c)
        candidates = sorted(
            (v for v in interior if v not in eliminated),
            key=lambda v: (
                len(lowers.get(v, ())) * len(uppers.get(v, ())),
                v.uid,
            ),
        )
        for victim in candidates:
            lo = lowers.get(victim, [])
            up = uppers.get(victim, [])
            if len(lo) * len(up) > len(lo) + len(up):
                continue
            keep = [c for c in work if victim != c.lhs and victim != c.rhs]
            for low in lo:
                for high in up:
                    if low.lhs == high.rhs:
                        continue
                    if (
                        lattice is not None
                        and isinstance(low.lhs, LatticeElement)
                        and isinstance(high.rhs, LatticeElement)
                        and lattice.leq(low.lhs, high.rhs)
                    ):
                        continue
                    keep.append(QualConstraint(low.lhs, high.rhs, high.origin))
            work = _dedupe(keep)
            eliminated.add(victim)
            changed = True
            break
    return work
