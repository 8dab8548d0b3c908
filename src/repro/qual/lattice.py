"""Qualifier lattices (paper Section 2, Definitions 1 and 2).

A *type qualifier* ``q`` is **positive** if ``tau <= q tau`` for every
standard type ``tau`` (e.g. ``const``: a non-const l-value may be promoted to
a const l-value) and **negative** if ``q tau <= tau`` (e.g. ``nonzero``: a
known-nonzero integer may be used wherever any integer is expected).

Each positive qualifier ``q`` induces the two-point lattice
``absent(q) <= q`` and each negative qualifier the two-point lattice
``q <= absent(q)``.  A *qualifier lattice* over qualifiers ``q1 .. qn`` is
the product ``L = L_q1 x ... x L_qn``; its elements are the sets of
qualifiers that may decorate a single level of a type.  Moving *up* the
lattice adds positive qualifiers and removes negative ones (Figure 2).

This module implements:

* :class:`Qualifier` — a named qualifier with a polarity.
* :class:`QualifierLattice` — the product lattice with ``leq``, ``meet``,
  ``join``, ``bottom``, ``top``, the ``not q`` element :meth:`QualifierLattice.negate`
  used by rules such as (Assign'), and enumeration/pretty-printing helpers.
* :class:`LatticeElement` — an immutable, *interned* element of a
  particular lattice.

The lattice is deliberately independent of any type structure: the rest of
the framework (``repro.qual.qtypes``, ``repro.qual.solver``) treats lattice
elements as opaque constants ordered by :meth:`QualifierLattice.leq`.

Performance architecture
------------------------

Solving is linear time only if the per-constraint lattice operations are
O(1), so internally every element is an integer **bitmask** over the
lattice's canonical qualifier ordering (sorted names).  With ``pos`` and
``neg`` the masks of the positive/negative qualifiers:

* ``a <= b``    iff  ``(a & ~b & pos) | (b & ~a & neg) == 0``
* ``join(a,b)``  =   ``((a | b) & pos) | (a & b & neg)``
* ``meet(a,b)``  =   ``((a & b) & pos) | ((a | b) & neg)``

Elements are **hash-consed** per lattice: constructing an element with a
mask that already exists returns the existing object, so equality between
elements of the same lattice is identity, hashes are computed once, and
``__post_init__``-style validation runs once per distinct element.  The
public frozenset-based API (``present``, ``has``, construction from
names) is unchanged.  The mask-level entry points (:meth:`QualifierLattice.join_mask`,
:meth:`QualifierLattice.meet_mask`, :meth:`QualifierLattice.leq_mask`,
:meth:`QualifierLattice.from_mask`) let the constraint solver propagate
over plain integers and only rebuild elements at the boundary.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator


class Polarity(enum.Enum):
    """Whether a qualifier sits above or below the unqualified type.

    ``POSITIVE``: ``tau <= q tau`` (const, dynamic, tainted, ...).
    ``NEGATIVE``: ``q tau <= tau`` (nonzero, nonnull, sorted, local, ...).
    """

    POSITIVE = "positive"
    NEGATIVE = "negative"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Polarity.{self.name}"


@dataclass(frozen=True, order=True)
class Qualifier:
    """A single user-defined type qualifier.

    Attributes:
        name: the surface syntax of the qualifier (e.g. ``"const"``).
        polarity: whether the qualifier is positive or negative.
    """

    name: str
    polarity: Polarity

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid qualifier name: {self.name!r}")

    @property
    def positive(self) -> bool:
        return self.polarity is Polarity.POSITIVE

    @property
    def negative(self) -> bool:
        return self.polarity is Polarity.NEGATIVE

    def __str__(self) -> str:
        return self.name


def positive(name: str) -> Qualifier:
    """Construct a positive qualifier (``tau <= q tau``)."""
    return Qualifier(name, Polarity.POSITIVE)


def negative(name: str) -> Qualifier:
    """Construct a negative qualifier (``q tau <= tau``)."""
    return Qualifier(name, Polarity.NEGATIVE)


class LatticeError(Exception):
    """Raised for ill-formed lattice operations (unknown qualifiers, or
    mixing elements of different lattices)."""


class LatticeElement:
    """An element of a :class:`QualifierLattice`.

    The element is represented by the *present* qualifiers: the set of
    qualifier names whose two-point lattice coordinate is the named point
    (rather than the anonymous ``absent`` point).  So for the lattice over
    ``{const (+), nonzero (-)}``:

    * ``{}`` is the element with no const and no nonzero,
    * ``{"const", "nonzero"}`` has both.

    Ordering: a positive qualifier present moves the element *up*; a
    negative qualifier present moves it *down*.  Bottom therefore has no
    positive qualifiers and all negative ones; top has all positive
    qualifiers and no negative ones.

    Elements are immutable and hashable so they can be used as constraint
    constants and dictionary keys.  They are also *interned* per lattice:
    ``LatticeElement(lat, s)`` returns the one canonical object for the
    bitmask of ``s``, so elements of the same lattice compare equal iff
    they are the same object and validation runs once per distinct
    element.
    """

    __slots__ = ("lattice", "present", "mask", "_hash")

    lattice: "QualifierLattice"
    present: frozenset[str]
    #: Bitmask of ``present`` in the lattice's canonical qualifier order.
    mask: int

    def __new__(
        cls, lattice: "QualifierLattice", present: Iterable[str] = frozenset()
    ) -> "LatticeElement":
        if not isinstance(present, frozenset):
            present = frozenset(present)
        mask = lattice._mask_of(present)
        cached = lattice._interned.get(mask)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "present", present)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "_hash", hash((lattice, present)))
        lattice._interned[mask] = self
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"LatticeElement is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LatticeElement is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, LatticeElement):
            return NotImplemented
        # Distinct-but-equal lattices (structural lattice equality) keep
        # separate intern tables, so fall back to structural comparison.
        return self.mask == other.mask and self.lattice == other.lattice

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Re-intern on unpickle so the identity invariant survives.
        return (LatticeElement, (self.lattice, self.present))

    def has(self, qualifier: str | Qualifier) -> bool:
        """Whether the named qualifier is present on this element."""
        name = qualifier.name if isinstance(qualifier, Qualifier) else qualifier
        bit = self.lattice._bit.get(name)
        if bit is None:
            raise LatticeError(f"unknown qualifier {name!r} for lattice {self.lattice}")
        return bool(self.mask & bit)

    def with_qualifier(self, qualifier: str | Qualifier) -> "LatticeElement":
        """This element with the named qualifier added (present)."""
        name = qualifier.name if isinstance(qualifier, Qualifier) else qualifier
        bit = self.lattice._bit.get(name)
        if bit is None:
            raise LatticeError(f"unknown qualifier {name!r} for lattice {self.lattice}")
        return self.lattice.from_mask(self.mask | bit)

    def without_qualifier(self, qualifier: str | Qualifier) -> "LatticeElement":
        """This element with the named qualifier removed (absent)."""
        name = qualifier.name if isinstance(qualifier, Qualifier) else qualifier
        bit = self.lattice._bit.get(name)
        if bit is None:
            raise LatticeError(f"unknown qualifier {name!r} for lattice {self.lattice}")
        return self.lattice.from_mask(self.mask & ~bit)

    def __str__(self) -> str:
        if not self.present:
            return "<none>"
        return " ".join(sorted(self.present))

    def __repr__(self) -> str:
        return f"LatticeElement({sorted(self.present)})"

    # Convenience operator aliases.  These require both operands to belong
    # to the same lattice; mixing lattices raises LatticeError.
    def __le__(self, other: "LatticeElement") -> bool:
        return self.lattice.leq(self, other)

    def __ge__(self, other: "LatticeElement") -> bool:
        return self.lattice.leq(other, self)

    def __lt__(self, other: "LatticeElement") -> bool:
        return self != other and self.lattice.leq(self, other)

    def __gt__(self, other: "LatticeElement") -> bool:
        return self != other and self.lattice.leq(other, self)

    def __and__(self, other: "LatticeElement") -> "LatticeElement":
        return self.lattice.meet(self, other)

    def __or__(self, other: "LatticeElement") -> "LatticeElement":
        return self.lattice.join(self, other)


class QualifierLattice:
    """The product lattice ``L = L_q1 x ... x L_qn`` of Definition 2.

    Construct one from an iterable of :class:`Qualifier`; qualifier names
    must be distinct.  The lattice exposes the standard order-theoretic
    operations plus :meth:`negate`, the ``not q`` element used by type rules
    such as (Assign') to say "definitely lacks positive qualifier q".
    """

    def __init__(self, qualifiers: Iterable[Qualifier]):
        quals = list(qualifiers)
        names = [q.name for q in quals]
        if len(set(names)) != len(names):
            raise LatticeError(f"duplicate qualifier names in {names}")
        self._qualifiers: dict[str, Qualifier] = {q.name: q for q in quals}
        self.names: frozenset[str] = frozenset(names)

        # Canonical qualifier ordering (sorted names) and the bitmask
        # tables of the integer kernel.  Masks are comparable across
        # structurally-equal lattices because the ordering is canonical.
        self._order: tuple[str, ...] = tuple(sorted(names))
        self._bit: dict[str, int] = {n: 1 << i for i, n in enumerate(self._order)}
        pos = neg = 0
        for name, bit in self._bit.items():
            if self._qualifiers[name].positive:
                pos |= bit
            else:
                neg |= bit
        self._pos_mask: int = pos
        self._neg_mask: int = neg
        self._full_mask: int = pos | neg
        self._hash: int = hash(frozenset(self._qualifiers.values()))
        self._sorted_qualifiers: tuple[Qualifier, ...] = tuple(
            self._qualifiers[n] for n in self._order
        )
        # Hash-consing table: bitmask -> the unique LatticeElement.
        self._interned: dict[int, LatticeElement] = {}
        self.bottom: LatticeElement = self.from_mask(neg)
        self.top: LatticeElement = self.from_mask(pos)

    def __reduce__(self):
        # Rebuild through __init__ on unpickle: the lattice's state holds
        # interned elements that reference the lattice itself, and the
        # default dict-restoring protocol would hand LatticeElement's
        # reconstructor a half-restored lattice mid-cycle.
        return (QualifierLattice, (tuple(self._sorted_qualifiers),))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def qualifiers(self) -> tuple[Qualifier, ...]:
        """All qualifiers, sorted by name for determinism."""
        return self._sorted_qualifiers

    def qualifier(self, name: str) -> Qualifier:
        """Look up a qualifier by name."""
        try:
            return self._qualifiers[name]
        except KeyError:
            raise LatticeError(f"unknown qualifier {name!r}; have {sorted(self.names)}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._qualifiers

    def __len__(self) -> int:
        return len(self._qualifiers)

    def __str__(self) -> str:
        parts = [f"{q.name}{'+' if q.positive else '-'}" for q in self.qualifiers]
        return "L(" + ", ".join(parts) + ")"

    __repr__ = __str__

    def __eq__(self, other: object) -> bool:
        # Structural equality: two lattices over the same qualifiers are the
        # same lattice, so elements built from independently-constructed but
        # identical lattices compare equal.
        if not isinstance(other, QualifierLattice):
            return NotImplemented
        return self._qualifiers == other._qualifiers

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Element construction
    # ------------------------------------------------------------------
    def _mask_of(self, present: frozenset[str]) -> int:
        """Bitmask of a set of qualifier names (validating membership)."""
        mask = 0
        bit = self._bit
        for name in present:
            b = bit.get(name)
            if b is None:
                unknown = sorted(set(present) - self.names)
                raise LatticeError(f"unknown qualifiers {unknown} for lattice {self}")
            mask |= b
        return mask

    def from_mask(self, mask: int) -> LatticeElement:
        """The interned element for a bitmask in canonical qualifier order."""
        cached = self._interned.get(mask)
        if cached is not None:
            return cached
        if mask & ~self._full_mask:
            raise LatticeError(f"mask {mask:#x} has bits outside lattice {self}")
        bit = self._bit
        return LatticeElement(
            self, frozenset(n for n in self._order if bit[n] & mask)
        )

    def element(self, *names: str) -> LatticeElement:
        """The element with exactly the given qualifiers present."""
        return LatticeElement(self, frozenset(names))

    def negate(self, name: str) -> LatticeElement:
        """The element ``not q`` from Section 2: the extremal element on
        which ``q`` is absent.

        For positive ``q`` this is the *maximal* element lacking ``q`` (all
        other coordinates at their tops), used as an upper bound — rules
        like (Assign') demand ``Q <= negate("const")`` to force ``Q`` to
        definitely lack ``const``.  For negative ``q`` it is the *minimal*
        element lacking ``q``, used as a lower bound — ``negate(q) <= Q``
        forces ``Q`` to definitely lack ``q``.
        """
        q = self.qualifier(name)
        if q.positive:
            return self.top.without_qualifier(name)
        return self.bottom.without_qualifier(name)

    def atom(self, name: str) -> LatticeElement:
        """The least annotation constant that *mentions* qualifier ``name``.

        Annotations raise the top-level qualifier monotonically from bottom
        (Section 2.2).  For a positive qualifier the atom is bottom plus the
        qualifier — the least element on which ``q`` holds.  For a negative
        qualifier, where presence is *low*, annotation can only remove it:
        the atom is the least element lacking ``q`` (e.g. annotating a list
        as possibly-unsorted removes ``sorted``).
        """
        q = self.qualifier(name)
        if q.positive:
            return self.bottom.with_qualifier(name)
        return self.bottom.without_qualifier(name)

    def assertion_bound(self, name: str) -> LatticeElement:
        """The upper bound an assertion ``e|l`` uses to check ``name``'s
        restrictive direction.

        Assertions check ``Q <= l`` (Section 2.2).  For a positive
        qualifier the restrictive check is *absence* (``e|not-const`` on
        assignment targets): the bound is :meth:`negate`.  For a negative
        qualifier the restrictive check is *presence* (asserting a list is
        ``sorted`` before merging): the bound is the maximal element on
        which the qualifier is still present.
        """
        q = self.qualifier(name)
        if q.positive:
            return self.negate(name)
        return self.top.with_qualifier(name)

    # ------------------------------------------------------------------
    # Order-theoretic operations
    # ------------------------------------------------------------------
    def _check(self, *elements: LatticeElement) -> None:
        for element in elements:
            if element.lattice is not self and element.lattice != self:
                raise LatticeError(f"element {element!r} does not belong to lattice {self}")

    def leq_mask(self, a: int, b: int) -> bool:
        """The partial order over raw bitmasks (see module docstring)."""
        return not ((a & ~b & self._pos_mask) | (b & ~a & self._neg_mask))

    def meet_mask(self, a: int, b: int) -> int:
        """Greatest lower bound over raw bitmasks."""
        return (a & b & self._pos_mask) | ((a | b) & self._neg_mask)

    def join_mask(self, a: int, b: int) -> int:
        """Least upper bound over raw bitmasks."""
        return ((a | b) & self._pos_mask) | (a & b & self._neg_mask)

    def leq(self, a: LatticeElement, b: LatticeElement) -> bool:
        """The partial order: pointwise over each qualifier coordinate."""
        self._check(a, b)
        return not (
            (a.mask & ~b.mask & self._pos_mask) | (b.mask & ~a.mask & self._neg_mask)
        )

    def meet(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Greatest lower bound."""
        self._check(a, b)
        return self.from_mask(self.meet_mask(a.mask, b.mask))

    def join(self, a: LatticeElement, b: LatticeElement) -> LatticeElement:
        """Least upper bound."""
        self._check(a, b)
        return self.from_mask(self.join_mask(a.mask, b.mask))

    def meet_all(self, elements: Iterable[LatticeElement]) -> LatticeElement:
        """Meet of a collection; the meet of nothing is top."""
        result = self.top
        for element in elements:
            result = self.meet(result, element)
        return result

    def join_all(self, elements: Iterable[LatticeElement]) -> LatticeElement:
        """Join of a collection; the join of nothing is bottom."""
        result = self.bottom
        for element in elements:
            result = self.join(result, element)
        return result

    # ------------------------------------------------------------------
    # Enumeration and display
    # ------------------------------------------------------------------
    def elements(self) -> Iterator[LatticeElement]:
        """Enumerate all 2^n lattice elements (for small lattices/tests)."""
        names = sorted(self.names)
        for mask in itertools.product((False, True), repeat=len(names)):
            chosen = frozenset(n for n, keep in zip(names, mask) if keep)
            yield LatticeElement(self, chosen)

    def covers(self, a: LatticeElement, b: LatticeElement) -> bool:
        """Whether ``b`` covers ``a``: a < b with nothing strictly between.

        In the product of two-point lattices, cover pairs differ in exactly
        one coordinate, which makes Hasse-diagram rendering straightforward.
        """
        self._check(a, b)
        if not (self.leq(a, b) and a != b):
            return False
        return len(a.present ^ b.present) == 1

    def hasse_levels(self) -> list[list[LatticeElement]]:
        """Group all elements by height (number of up-steps from bottom).

        Used to render Figure 2-style diagrams of the lattice.
        """
        def height(e: LatticeElement) -> int:
            h = 0
            for q in self.qualifiers:
                has = q.name in e.present
                if q.positive and has:
                    h += 1
                if q.negative and not has:
                    h += 1
            return h

        levels: dict[int, list[LatticeElement]] = {}
        for e in self.elements():
            levels.setdefault(height(e), []).append(e)
        return [sorted(levels[h], key=str) for h in sorted(levels)]

    def render_hasse(self) -> str:
        """Render the lattice as ASCII art, one height level per line,
        bottom-most level last (as Figure 2 draws it)."""
        levels = self.hasse_levels()
        width = max(
            (sum(len(str(e)) + 3 for e in level) for level in levels), default=0
        )
        lines = []
        for level in reversed(levels):
            label = "   ".join(str(e) for e in level)
            lines.append(label.center(width))
        return "\n".join(lines)


def two_point(qualifier: Qualifier) -> QualifierLattice:
    """The lattice ``L_q`` of a single qualifier (Definition 2)."""
    return QualifierLattice([qualifier])


def product(*lattices: QualifierLattice) -> QualifierLattice:
    """Product of qualifier lattices; qualifier names must stay distinct."""
    quals: list[Qualifier] = []
    for lattice in lattices:
        quals.extend(lattice.qualifiers)
    return QualifierLattice(quals)
