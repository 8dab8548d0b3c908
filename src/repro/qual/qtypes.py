"""Standard and qualified types (paper Sections 2 and 2.1).

Standard types are terms over a set of type constructors and type
variables::

    Typ  ::= alpha | c(Typ_1, ..., Typ_arity(c))

Qualified types annotate *every* constructor level with a qualifier — a
lattice element or a qualifier variable::

    QTyp ::= Q sigma
    sigma ::= alpha | c(QTyp_1, ..., QTyp_arity(c))
    Q    ::= kappa | l

This module defines both type languages, the type constructors of the
paper's example language (``int``, ``unit``, ``->``, ``ref``), and the
translation functions of Section 2.3:

* :func:`strip` — erase all qualifiers from a qualified type.
* :func:`embed_bottom` — the ``bottom(tau)`` embedding: same structure with
  all qualifiers at lattice bottom.
* :func:`spread` — the ``sp`` operator of Section 3.1: rewrite a standard
  type into a qualified type with *fresh qualifier variables* at every
  constructor, consistently mapping standard type variables.

Constructor variance drives the generic subtype decomposition rule
(Section 2.1): function types are contravariant in their domain and
covariant in their range, while ``ref`` is *invariant* in its contents —
the (SubRef) rule of Section 2.4, required for soundness with updateable
references.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Union

from .lattice import LatticeElement, QualifierLattice


class Variance(enum.Enum):
    """How a constructor argument participates in subtyping."""

    COVARIANT = "+"
    CONTRAVARIANT = "-"
    INVARIANT = "="

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Variance.{self.name}"


@dataclass(frozen=True)
class TypeConstructor:
    """A type constructor ``c`` with its arity and per-argument variance.

    Constructors are compared by identity on hot paths (``constructor is
    REF``), so every constructor must be interned: construct them through
    :func:`intern_constructor`, and pickling resolves back to the
    canonical instance rather than materialising an equal-but-distinct
    copy (cache-loaded TU summaries carry whole ``QType`` schemes).
    """

    name: str
    variances: tuple[Variance, ...]

    @property
    def arity(self) -> int:
        return len(self.variances)

    def __str__(self) -> str:
        return self.name

    def __reduce__(self):
        return (intern_constructor, (self.name, self.variances))


_CONSTRUCTOR_INTERN: dict[tuple[str, tuple[Variance, ...]], TypeConstructor] = {}


def intern_constructor(
    name: str, variances: tuple[Variance, ...]
) -> TypeConstructor:
    """The canonical constructor for ``(name, variances)``.

    All constructor creation (and unpickling) funnels through here so
    ``is``-comparisons stay valid across cache loads and process pools.
    """
    key = (name, tuple(variances))
    con = _CONSTRUCTOR_INTERN.get(key)
    if con is None:
        con = TypeConstructor(key[0], key[1])
        _CONSTRUCTOR_INTERN[key] = con
    return con


#: The constructors of the paper's example language (Sections 2 and 2.4).
INT = intern_constructor("int", ())
UNIT = intern_constructor("unit", ())
FUN = intern_constructor("->", (Variance.CONTRAVARIANT, Variance.COVARIANT))
REF = intern_constructor("ref", (Variance.INVARIANT,))

#: Extra constructors used by application instances and the C front end.
PAIR = intern_constructor("pair", (Variance.COVARIANT, Variance.COVARIANT))
LIST = intern_constructor("list", (Variance.COVARIANT,))


# ---------------------------------------------------------------------------
# Standard types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StdVar:
    """A standard type variable ``alpha``."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StdCon:
    """A constructed standard type ``c(tau_1, ..., tau_n)``."""

    con: TypeConstructor
    args: tuple["StdType", ...] = ()

    def __post_init__(self) -> None:
        if len(self.args) != self.con.arity:
            raise TypeError(
                f"constructor {self.con.name} expects {self.con.arity} "
                f"arguments, got {len(self.args)}"
            )

    def __str__(self) -> str:
        if self.con is FUN:
            dom, rng = self.args
            return f"({dom} -> {rng})"
        if not self.args:
            return self.con.name
        return f"{self.con.name}({', '.join(map(str, self.args))})"


StdType = Union[StdVar, StdCon]

STD_INT = StdCon(INT)
STD_UNIT = StdCon(UNIT)


def std_fun(dom: StdType, rng: StdType) -> StdCon:
    """Standard function type ``dom -> rng``."""
    return StdCon(FUN, (dom, rng))


def std_ref(contents: StdType) -> StdCon:
    """Standard reference type ``ref(contents)``."""
    return StdCon(REF, (contents,))


def std_type_vars(t: StdType) -> set[str]:
    """The free type variables of a standard type."""
    if isinstance(t, StdVar):
        return {t.name}
    out: set[str] = set()
    for arg in t.args:
        out |= std_type_vars(arg)
    return out


# ---------------------------------------------------------------------------
# Qualifiers on types: variables or lattice constants
# ---------------------------------------------------------------------------


_fresh_counter = itertools.count()


class QualVar:
    """A qualifier variable ``kappa`` ranging over lattice elements.

    A plain ``__slots__`` class rather than a dataclass: inference
    allocates one per qualifier position and the solver keys every
    dictionary on them, so construction and hashing are hot.
    """

    __slots__ = ("name", "uid")

    def __init__(self, name: str, uid: int = -1) -> None:
        self.name = name
        self.uid = uid

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"QualVar({self.name!r}, uid={self.uid})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QualVar):
            return NotImplemented
        return self.uid == other.uid and self.name == other.name

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        # CPython caches str hashes, so this avoids the tuple allocation
        # of a generated dataclass hash on every dictionary lookup.
        return self.uid ^ hash(self.name)


class UidBandExhausted(RuntimeError):
    """A reserved uid band overflowed."""


class UidBand:
    """A half-open uid range ``[next, end)`` serving one task's fresh
    variables.  Bands make numbering *absolute*: the variables a task
    allocates are a pure function of the task and its band start, not of
    what ran before it — so a cached result's variables are value-equal
    to the ones a live run would allocate."""

    __slots__ = ("start", "next", "end")

    def __init__(self, start: int, size: int) -> None:
        self.start = start
        self.next = start
        self.end = start + size

    def take(self) -> int:
        uid = self.next
        if uid >= self.end:
            raise UidBandExhausted(
                f"uid band [{self.start}, {self.end}) exhausted"
            )
        self.next = uid + 1
        return uid


#: The band :func:`fresh_qual_var` draws from, or ``None`` for the
#: global counter; set by :class:`use_uid_band`.
_current_band: UidBand | None = None


def fresh_qual_var(hint: str = "k") -> QualVar:
    """Allocate a globally fresh qualifier variable — from the band of
    the enclosing :class:`use_uid_band`, if any, else the global
    counter."""
    band = _current_band
    if band is not None:
        uid = band.take()
    else:
        uid = next(_fresh_counter)
    return QualVar(f"{hint}{uid}", uid)


class use_uid_band:
    """Context manager routing :func:`fresh_qual_var` calls to ``band``
    — a :class:`UidBand`, or ``None`` for the global counter.  Bands
    nest: the previous routing is restored on exit."""

    def __init__(self, band: UidBand | None) -> None:
        self._band = band
        self._prev: UidBand | None = None

    def __enter__(self) -> UidBand | None:
        global _current_band
        self._prev = _current_band
        _current_band = self._band
        return self._band

    def __exit__(self, *exc: object) -> None:
        global _current_band
        _current_band = self._prev


Qual = Union[QualVar, LatticeElement]


# ---------------------------------------------------------------------------
# Qualified types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShapeVar:
    """A qualified-type structure variable ``alpha`` (paired with a
    qualifier, ``kappa alpha`` plays the role of a qualified type variable)."""

    name: str

    def __str__(self) -> str:
        return self.name


class QCon:
    """A constructed shape ``c(rho_1, ..., rho_n)`` with qualified children.

    Slotted by hand for the same reason as :class:`QualVar`: the C front
    end builds one per constructor level of every translated type.
    """

    __slots__ = ("con", "args")

    def __init__(self, con: TypeConstructor, args: tuple["QType", ...] = ()) -> None:
        if len(args) != con.arity:
            raise TypeError(
                f"constructor {con.name} expects {con.arity} "
                f"arguments, got {len(args)}"
            )
        self.con = con
        self.args = args

    def __repr__(self) -> str:
        return f"QCon({self.con!r}, {self.args!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QCon):
            return NotImplemented
        return self.con == other.con and self.args == other.args

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((self.con, self.args))


QShape = Union[ShapeVar, QCon]


class QType:
    """A qualified type ``Q sigma``: a qualifier atop a shape."""

    __slots__ = ("qual", "shape")

    def __init__(self, qual: Qual, shape: QShape) -> None:
        self.qual = qual
        self.shape = shape

    def __repr__(self) -> str:
        return f"QType({self.qual!r}, {self.shape!r})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, QType):
            return NotImplemented
        return self.qual == other.qual and self.shape == other.shape

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return hash((self.qual, self.shape))

    def __str__(self) -> str:
        return format_qtype(self)

    @property
    def constructor(self) -> TypeConstructor | None:
        """The outermost constructor, or None for a shape variable."""
        return self.shape.con if isinstance(self.shape, QCon) else None

    @property
    def args(self) -> tuple["QType", ...]:
        """Children of the outermost constructor (empty for variables)."""
        return self.shape.args if isinstance(self.shape, QCon) else ()

    def with_qual(self, qual: Qual) -> "QType":
        """This type with its top-level qualifier replaced."""
        return QType(qual, self.shape)


def qt(qual: Qual, con: TypeConstructor, *args: QType) -> QType:
    """Convenience constructor for a qualified constructed type."""
    return QType(qual, QCon(con, tuple(args)))


def q_int(qual: Qual) -> QType:
    return qt(qual, INT)


def q_unit(qual: Qual) -> QType:
    return qt(qual, UNIT)


def q_fun(qual: Qual, dom: QType, rng: QType) -> QType:
    return qt(qual, FUN, dom, rng)


def q_ref(qual: Qual, contents: QType) -> QType:
    return qt(qual, REF, contents)


def q_var(qual: Qual, name: str) -> QType:
    """A qualified type variable ``Q alpha``."""
    return QType(qual, ShapeVar(name))


def format_qual(q: Qual) -> str:
    """Render a qualifier variable or lattice element for display."""
    if isinstance(q, QualVar):
        return q.name
    if not q.present:
        return ""
    return " ".join(sorted(q.present))


def format_qtype(t: QType) -> str:
    """Pretty-print a qualified type in the paper's prefix notation."""
    prefix = format_qual(t.qual)
    prefix = prefix + " " if prefix else ""
    shape = t.shape
    if isinstance(shape, ShapeVar):
        return f"{prefix}{shape.name}"
    if shape.con is FUN:
        dom, rng = shape.args
        return f"{prefix}({format_qtype(dom)} -> {format_qtype(rng)})"
    if not shape.args:
        return f"{prefix}{shape.con.name}"
    inner = ", ".join(format_qtype(a) for a in shape.args)
    return f"{prefix}{shape.con.name}({inner})"


# ---------------------------------------------------------------------------
# Traversals
# ---------------------------------------------------------------------------


def qual_vars(t: QType) -> set[QualVar]:
    """All qualifier variables occurring anywhere in a qualified type."""
    out: set[QualVar] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur.qual, QualVar):
            out.add(cur.qual)
        if isinstance(cur.shape, QCon):
            stack.extend(cur.shape.args)
    return out


def shape_vars(t: QType) -> set[str]:
    """All shape (structure) variables occurring in a qualified type."""
    out: set[str] = set()
    stack = [t]
    while stack:
        cur = stack.pop()
        if isinstance(cur.shape, ShapeVar):
            out.add(cur.shape.name)
        else:
            stack.extend(cur.shape.args)
    return out


def quals_of(t: QType) -> Iterator[Qual]:
    """Iterate over every qualifier position in the type, outermost first."""
    yield t.qual
    if isinstance(t.shape, QCon):
        for arg in t.shape.args:
            yield from quals_of(arg)


def map_quals(t: QType, f: Callable[[Qual], Qual]) -> QType:
    """Rebuild a qualified type applying ``f`` to every qualifier position."""
    shape: QShape = t.shape
    if isinstance(shape, QCon):
        shape = QCon(shape.con, tuple(map_quals(a, f) for a in shape.args))
    return QType(f(t.qual), shape)


def apply_qual_subst(t: QType, subst: Mapping[QualVar, Qual]) -> QType:
    """Substitute qualifier variables throughout a qualified type."""
    return map_quals(t, lambda q: subst.get(q, q) if isinstance(q, QualVar) else q)


def apply_shape_subst(t: QType, subst: Mapping[str, QType]) -> QType:
    """Substitute shape variables by qualified types.

    When a shape variable ``alpha`` carrying qualifier ``Q`` is replaced by a
    qualified type ``Q' sigma``, the result keeps the *outer* qualifier
    ``Q`` only if the replacement's own qualifier is a variable that is
    itself being eliminated; otherwise the replacement's qualifier stands.
    In this framework shape substitutions arise only from standard-type
    unification, where the replacement carries the canonical qualifier for
    that node, so the replacement's qualifier always wins.
    """
    shape = t.shape
    if isinstance(shape, ShapeVar):
        replacement = subst.get(shape.name)
        return replacement if replacement is not None else t
    return QType(
        t.qual, QCon(shape.con, tuple(apply_shape_subst(a, subst) for a in shape.args))
    )


def same_shape(a: QType, b: QType) -> bool:
    """Whether two qualified types have identical underlying structure."""
    return strip(a) == strip(b)


# ---------------------------------------------------------------------------
# The Section 2.3 translations
# ---------------------------------------------------------------------------


def strip(t: QType) -> StdType:
    """``strip(rho)``: the standard type obtained by erasing all qualifiers."""
    shape = t.shape
    if isinstance(shape, ShapeVar):
        return StdVar(shape.name)
    return StdCon(shape.con, tuple(strip(a) for a in shape.args))


def embed_bottom(t: StdType, lattice: QualifierLattice) -> QType:
    """``bottom(tau)``: same structure as ``tau``, all qualifiers at bottom."""
    return embed_const(t, lattice.bottom)


def embed_const(t: StdType, qual: Qual) -> QType:
    """Embed a standard type with the same qualifier at every level."""
    if isinstance(t, StdVar):
        return QType(qual, ShapeVar(t.name))
    return QType(qual, QCon(t.con, tuple(embed_const(a, qual) for a in t.args)))


def spread(
    t: StdType,
    var_map: dict[str, QType] | None = None,
    fresh: Callable[[], Qual] | None = None,
) -> QType:
    """The ``sp`` operator of Section 3.1.

    Rewrites a standard type into a qualified type, placing a fresh
    qualifier variable on every constructor and consistently mapping each
    standard type variable ``alpha`` to a fixed ``kappa alpha`` (recorded in
    ``var_map`` so repeated occurrences agree, as the paper requires).
    """
    if fresh is None:
        fresh = fresh_qual_var
    if var_map is None:
        var_map = {}
    if isinstance(t, StdVar):
        if t.name not in var_map:
            var_map[t.name] = QType(fresh(), ShapeVar(t.name))
        return var_map[t.name]
    return QType(fresh(), QCon(t.con, tuple(spread(a, var_map, fresh) for a in t.args)))
