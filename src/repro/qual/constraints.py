"""Constraint language for qualifier inference (paper Section 3.1).

Qualifier inference generates two kinds of constraints:

* **Subtype constraints** ``rho <= rho'`` between qualified types, produced
  by the subsumption rule and by the equalities of the original type rules
  (``rho = rho'`` abbreviates the pair ``rho <= rho'``, ``rho' <= rho``).
* **Atomic qualifier constraints** ``Q <= Q'`` between qualifiers (lattice
  elements or qualifier variables), produced by decomposing subtype
  constraints through the structural subtyping rules.

Solving proceeds in two stages (Section 3.1): first the structural rules
rewrite every subtype constraint into atomic constraints (see
``repro.qual.subtype``), then the atomic system — which is an *atomic
subtyping* system over a fixed finite lattice — is solved in effectively
linear time (see ``repro.qual.solver``).

Every constraint carries an :class:`Origin` describing where in the source
program it arose, so that unsatisfiable systems produce actionable error
messages (e.g. "assignment to const l-value at foo.c:12").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .lattice import LatticeElement
from .qtypes import QType, Qual, QualVar, format_qual, format_qtype


@dataclass(slots=True, unsafe_hash=True)
class Origin:
    """Provenance of a constraint, for diagnostics.

    A value: nothing assigns its fields after construction.  Slotted
    and plainly built, not frozen, since every engine run builds one per
    distinct source span; ``==`` and ``hash`` cover every field.
    """

    reason: str
    filename: str | None = None
    line: int | None = None
    column: int | None = None

    def __str__(self) -> str:
        loc = self.location()
        if loc is not None:
            return f"{self.reason} at {loc}"
        if self.line is not None:
            return f"{self.reason} at line {self.line}"
        return self.reason

    def location(self) -> str | None:
        """The clickable ``file:line[:col]`` form, or ``None`` when the
        origin has no file (pure synthetic constraints)."""
        if self.filename is None:
            return None
        loc = self.filename
        if self.line is not None:
            loc += f":{self.line}"
            if self.column is not None:
                loc += f":{self.column}"
        return loc

    @property
    def has_span(self) -> bool:
        """True when the origin pins a real source location."""
        return self.filename is not None and self.line is not None


#: Origin used when no better provenance is available.
UNKNOWN_ORIGIN = Origin("constraint")


@dataclass(slots=True, unsafe_hash=True)
class SubtypeConstraint:
    """A structural constraint ``lhs <= rhs`` between qualified types."""

    lhs: QType
    rhs: QType
    origin: Origin = UNKNOWN_ORIGIN

    def __str__(self) -> str:
        return f"{format_qtype(self.lhs)} <= {format_qtype(self.rhs)}"


class QualConstraint:
    """An atomic constraint ``lhs <= rhs`` between qualifiers.

    Hand-slotted rather than a frozen dataclass: inference emits one per
    qualifier flow and the solver re-reads them in bulk, so construction
    cost is on the hot path.
    """

    __slots__ = ("lhs", "rhs", "origin")

    def __init__(self, lhs: Qual, rhs: Qual, origin: Origin = UNKNOWN_ORIGIN) -> None:
        self.lhs = lhs
        self.rhs = rhs
        self.origin = origin

    def __repr__(self) -> str:
        return f"QualConstraint({self.lhs!r}, {self.rhs!r}, {self.origin!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QualConstraint):
            return NotImplemented
        return (
            self.lhs == other.lhs
            and self.rhs == other.rhs
            and self.origin == other.origin
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((self.lhs, self.rhs, self.origin))

    def __str__(self) -> str:
        return f"{format_qual(self.lhs) or '<none>'} <= {format_qual(self.rhs) or '<none>'}"

    @property
    def is_trivial(self) -> bool:
        """Constraints of the form ``q <= q`` carry no information."""
        return self.lhs == self.rhs

    @property
    def is_ground(self) -> bool:
        """Both sides are lattice constants."""
        return isinstance(self.lhs, LatticeElement) and isinstance(self.rhs, LatticeElement)


Constraint = SubtypeConstraint | QualConstraint


class ConstraintSet:
    """A mutable accumulator of constraints with existential bookkeeping.

    The polymorphic system (Section 3.2) existentially quantifies the
    qualifier variables that are purely local to a ``let`` body; since our
    variables are globally fresh, quantification reduces to *recording*
    which variables are local so that generalisation does not capture them
    in an outer scope.  :meth:`quantify` records such variables.
    """

    def __init__(self, constraints: Iterable[Constraint] = ()) -> None:
        self._subtype: list[SubtypeConstraint] = []
        self._atomic: list[QualConstraint] = []
        self._quantified: set[QualVar] = set()
        for c in constraints:
            self.add(c)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def add(self, constraint: Constraint) -> None:
        if isinstance(constraint, SubtypeConstraint):
            self._subtype.append(constraint)
        elif isinstance(constraint, QualConstraint):
            if not constraint.is_trivial:
                self._atomic.append(constraint)
        else:
            raise TypeError(f"not a constraint: {constraint!r}")

    def add_subtype(self, lhs: QType, rhs: QType, origin: Origin = UNKNOWN_ORIGIN) -> None:
        """Record ``lhs <= rhs``."""
        self.add(SubtypeConstraint(lhs, rhs, origin))

    def add_equal(self, lhs: QType, rhs: QType, origin: Origin = UNKNOWN_ORIGIN) -> None:
        """Record ``lhs = rhs`` as the pair of subtype constraints."""
        self.add(SubtypeConstraint(lhs, rhs, origin))
        self.add(SubtypeConstraint(rhs, lhs, origin))

    def add_qual(self, lhs: Qual, rhs: Qual, origin: Origin = UNKNOWN_ORIGIN) -> None:
        """Record the atomic constraint ``lhs <= rhs``."""
        self.add(QualConstraint(lhs, rhs, origin))

    def add_qual_equal(self, lhs: Qual, rhs: Qual, origin: Origin = UNKNOWN_ORIGIN) -> None:
        """Record ``lhs = rhs`` as two atomic constraints."""
        self.add(QualConstraint(lhs, rhs, origin))
        self.add(QualConstraint(rhs, lhs, origin))

    def merge(self, other: "ConstraintSet") -> None:
        """Union another constraint set into this one (``C1 u C2``)."""
        self._subtype.extend(other._subtype)
        self._atomic.extend(other._atomic)
        self._quantified |= other._quantified

    def quantify(self, variables: Iterable[QualVar]) -> None:
        """Existentially quantify variables (``exists kappa. C``)."""
        self._quantified |= set(variables)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def subtype_constraints(self) -> tuple[SubtypeConstraint, ...]:
        return tuple(self._subtype)

    @property
    def atomic_constraints(self) -> tuple[QualConstraint, ...]:
        return tuple(self._atomic)

    @property
    def quantified(self) -> frozenset[QualVar]:
        return frozenset(self._quantified)

    def variables(self) -> set[QualVar]:
        """All qualifier variables mentioned by any constraint."""
        out: set[QualVar] = set()
        for sc in self._subtype:
            for t in (sc.lhs, sc.rhs):
                from .qtypes import qual_vars

                out |= qual_vars(t)
        for qc in self._atomic:
            for q in (qc.lhs, qc.rhs):
                if isinstance(q, QualVar):
                    out.add(q)
        return out

    def __len__(self) -> int:
        return len(self._subtype) + len(self._atomic)

    def __iter__(self) -> Iterator[Constraint]:
        yield from self._subtype
        yield from self._atomic

    def __str__(self) -> str:
        lines = [str(c) for c in self]
        if self._quantified:
            names = ", ".join(sorted(v.name for v in self._quantified))
            lines.insert(0, f"exists {names}.")
        return "\n".join(lines) if lines else "<empty>"

    def copy(self) -> "ConstraintSet":
        out = ConstraintSet()
        out._subtype = list(self._subtype)
        out._atomic = list(self._atomic)
        out._quantified = set(self._quantified)
        return out
