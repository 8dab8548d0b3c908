"""C type representation and the Section 4.1 translation to ref types.

C types (for the analysed subset)::

    CTyp ::= quals base                    -- int/char/.../void/float kinds
           | quals ptr(CTyp)
           | quals array(CTyp, size)
           | quals struct/union tag
           | quals enum tag
           | func(ret, params, varargs)

``quals`` records the source-level ``const`` (and ``volatile``, which the
analysis carries but ignores).  Array types behave like pointers for
qualifier purposes; functions never carry qualifiers.

The paper's translation ``l`` maps a C type to the qualified ref type of
an *l-value* of that type: every C variable denotes an updateable cell,
so the qualified type gains one outer ``ref``, and each C qualifier
shifts up one level to sit on the ref of the cell it actually protects::

    l(CTyp)           = Q' ref(rho)     where (Q', rho) = l'(CTyp)
    l'(Q int)         = (Q, bottom int)
    l'(Q ptr(CTyp))   = (Q, Q'' ref(rho''))  where (Q'', rho'') = l'(CTyp)

:func:`lvalue_qtype` implements ``l`` over the full subset, generating a
fresh qualifier variable at every level and recording, per level, whether
the source declared ``const`` there (the inference adds the corresponding
lower bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

from ..qual.qtypes import (
    QCon,
    QType,
    Qual,
    REF,
    TypeConstructor,
    Variance,
    fresh_qual_var,
    intern_constructor,
)


# ---------------------------------------------------------------------------
# C types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CBase:
    """An arithmetic or void base type (int, char, double, void, ...)."""

    kind: str  # normalised: "void", "char", "int", "long", "double", ...
    quals: frozenset[str] = frozenset()

    def __str__(self) -> str:
        prefix = " ".join(sorted(self.quals)) + " " if self.quals else ""
        return f"{prefix}{self.kind}"


@dataclass(frozen=True)
class CPointer:
    target: "CType"
    quals: frozenset[str] = frozenset()

    def __str__(self) -> str:
        suffix = " " + " ".join(sorted(self.quals)) if self.quals else ""
        return f"{self.target} *{suffix}"


@dataclass(frozen=True)
class CArray:
    element: "CType"
    size: int | None = None
    quals: frozenset[str] = frozenset()

    def __str__(self) -> str:
        dim = "" if self.size is None else str(self.size)
        return f"{self.element} [{dim}]"


@dataclass(frozen=True)
class CStruct:
    """Reference to a struct/union type by tag.  Field layouts live in the
    translation unit's struct table (fields are shared per definition,
    Section 4.2)."""

    tag: str
    is_union: bool = False
    quals: frozenset[str] = frozenset()

    def __str__(self) -> str:
        kw = "union" if self.is_union else "struct"
        prefix = " ".join(sorted(self.quals)) + " " if self.quals else ""
        return f"{prefix}{kw} {self.tag}"


@dataclass(frozen=True)
class CEnum:
    tag: str
    quals: frozenset[str] = frozenset()

    def __str__(self) -> str:
        prefix = " ".join(sorted(self.quals)) + " " if self.quals else ""
        return f"{prefix}enum {self.tag}"


@dataclass(frozen=True)
class CFunc:
    ret: "CType"
    params: tuple["CType", ...]
    varargs: bool = False

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        if self.varargs:
            params = f"{params}, ..." if params else "..."
        return f"{self.ret} (*)({params})"


CType = Union[CBase, CPointer, CArray, CStruct, CEnum, CFunc]

VOID = CBase("void")
INT = CBase("int")
CHAR = CBase("char")
DOUBLE = CBase("double")


def with_quals(t: CType, quals: frozenset[str]) -> CType:
    """Return ``t`` with its qualifier set replaced."""
    if isinstance(t, CFunc):
        return t
    return type(t)(**{**t.__dict__, "quals": quals})


def add_qual(t: CType, name: str) -> CType:
    if isinstance(t, CFunc):
        return t
    return with_quals(t, t.quals | {name})


def is_const(t: CType) -> bool:
    return not isinstance(t, CFunc) and "const" in t.quals


def is_pointerish(t: CType) -> bool:
    """Pointers and arrays, which decay to pointers."""
    return isinstance(t, (CPointer, CArray))


def pointee(t: CType) -> CType:
    if isinstance(t, CPointer):
        return t.target
    if isinstance(t, CArray):
        return t.element
    raise TypeError(f"not a pointer type: {t}")


def is_arithmetic(t: CType) -> bool:
    return isinstance(t, (CBase, CEnum)) and not (
        isinstance(t, CBase) and t.kind == "void"
    )


def decay(t: CType) -> CType:
    """Array-to-pointer and function-to-pointer decay."""
    if isinstance(t, CArray):
        return CPointer(t.element, t.quals)
    if isinstance(t, CFunc):
        return CPointer(t)
    return t


def pointer_depth(t: CType) -> int:
    """Number of pointer/array levels in a type."""
    depth = 0
    cur = t
    while is_pointerish(cur):
        depth += 1
        cur = pointee(cur)
    return depth


def pointer_levels(t: CType) -> Iterator[CType]:
    """Yield the successive pointee types of a pointer chain."""
    cur = t
    while is_pointerish(cur):
        cur = pointee(cur)
        yield cur


# ---------------------------------------------------------------------------
# Qualified-type constructors for C shapes
# ---------------------------------------------------------------------------

def base_con(name: str) -> TypeConstructor:
    """A nullary constructor for an opaque C base shape (interned)."""
    return intern_constructor(name, ())


def fun_con(arity: int) -> TypeConstructor:
    """Function-shape constructor with ``arity`` parameters plus a result.

    Parameters are contravariant, the result covariant — the (SubFun)
    rule generalised to n-ary functions.
    """
    variances = tuple([Variance.CONTRAVARIANT] * arity) + (Variance.COVARIANT,)
    return intern_constructor(f"cfun{arity}", variances)


@dataclass
class LevelInfo:
    """Metadata for one qualifier position produced by the translation."""

    var: Qual
    declared_const: bool
    #: depth 0 is the variable's own cell; depth k>0 is the cell reached
    #: through k pointer dereferences.
    depth: int


@dataclass
class TranslatedType:
    """Result of :func:`lvalue_qtype`: the qualified l-value type plus the
    per-level metadata the const counter needs."""

    qtype: QType
    levels: list[LevelInfo] = field(default_factory=list)

    @property
    def rvalue(self) -> QType:
        """Drop the outer ref: the type of the cell's contents."""
        if self.qtype.constructor is not REF:
            raise TypeError(f"not an l-value type: {self.qtype}")
        return self.qtype.args[0]


def lvalue_qtype(
    ct: CType,
    fresh: Callable[[], Qual] = fresh_qual_var,
    struct_shape: Callable[[CStruct], QType] | None = None,
) -> TranslatedType:
    """The ``l`` translation: qualified l-value type of a cell of C type
    ``ct``, with a fresh qualifier variable per level.

    ``struct_shape`` supplies the (shared) qualified shape of struct
    r-values; by default structs become opaque nullary constructors.
    """
    info: list[LevelInfo] = []
    return TranslatedType(_cell(ct, 0, info, fresh, struct_shape), info)


# Module-level rather than nested in ``lvalue_qtype``: two closures that
# call each other form a reference cycle, which every translation would
# leave for the cyclic collector to free.
def _cell(
    t: CType,
    depth: int,
    info: list[LevelInfo],
    fresh: Callable[[], Qual],
    struct_shape: Callable[[CStruct], QType] | None,
) -> QType:
    """Qualified type of a *cell* holding a value of C type ``t``:
    ``Q ref(rvalue)`` where Q is fresh and records declared const."""
    var = fresh()
    info.append(LevelInfo(var, is_const(t) if not isinstance(t, CFunc) else False, depth))
    return QType(var, QCon(REF, (_rvalue(t, depth, info, fresh, struct_shape),)))


def _rvalue(
    t: CType,
    depth: int,
    info: list[LevelInfo],
    fresh: Callable[[], Qual],
    struct_shape: Callable[[CStruct], QType] | None,
) -> QType:
    """Qualified r-value type of contents with C type ``t``.  The C
    qualifiers of ``t`` belong to the *cell* holding it, so they are
    consumed by the caller; here we only build the value shape."""
    if isinstance(t, CFunc):
        # Handled before decay: function-to-pointer decay would loop,
        # and the contents of a function cell is the function shape.
        args = [_rvalue(p, depth, info, fresh, struct_shape) for p in t.params]
        args.append(_rvalue(t.ret, depth, info, fresh, struct_shape))
        return QType(fresh(), QCon(fun_con(len(t.params)), tuple(args)))
    t = decay(t)
    if isinstance(t, CPointer):
        # A pointer value is a reference to the pointed-to cell.
        return _cell(t.target, depth + 1, info, fresh, struct_shape)
    if isinstance(t, CStruct) and struct_shape is not None:
        return struct_shape(t)
    if isinstance(t, CStruct):
        kw = "union" if t.is_union else "struct"
        return QType(fresh(), QCon(base_con(f"{kw} {t.tag}")))
    if isinstance(t, CEnum):
        return QType(fresh(), QCon(base_con("int")))
    assert isinstance(t, CBase)
    return QType(fresh(), QCon(base_con(t.kind)))


def format_ctype(t: CType, name: str = "") -> str:
    """Render a C type in (approximately) declaration syntax."""
    return _format(t, name).strip()


def _format(t: CType, inner: str) -> str:
    if isinstance(t, CBase):
        prefix = " ".join(sorted(t.quals)) + " " if t.quals else ""
        return f"{prefix}{t.kind} {inner}".rstrip() + ("" if not inner else "")
    if isinstance(t, (CStruct, CEnum)):
        return f"{t} {inner}".rstrip()
    if isinstance(t, CPointer):
        quals = " ".join(sorted(t.quals))
        star = "*" + (quals + " " if quals else "")
        if isinstance(t.target, (CArray, CFunc)):
            return _format(t.target, f"({star}{inner})")
        return _format(t.target, f"{star}{inner}")
    if isinstance(t, CArray):
        dim = "" if t.size is None else str(t.size)
        return _format(t.element, f"{inner}[{dim}]")
    if isinstance(t, CFunc):
        params = ", ".join(format_ctype(p) for p in t.params)
        if t.varargs:
            params = f"{params}, ..." if params else "..."
        return _format(t.ret, f"{inner}({params})")
    raise TypeError(f"unknown C type {t!r}")
