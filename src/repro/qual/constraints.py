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
linear time (see ``repro.qual.solver``).  A system is a plain
``list[QualConstraint]``; the solver's ``SolverStats`` counts its shape.
The existential ``exists kappa. C`` of the polymorphic system lives in
``repro.qual.poly`` (``QualScheme``, ``generalize``).

Every constraint carries an :class:`Origin` describing where in the source
program it arose, so that unsatisfiable systems produce actionable error
messages (e.g. "assignment to const l-value at foo.c:12").
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import LatticeElement
from .qtypes import QType, Qual, format_qual, format_qtype


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
