"""A small imperative language for flow-sensitive qualifiers (Section 6).

The paper's framework is flow-*insensitive*: a location has one
qualified type for the whole program, which is why lclint-style
"annotations on a given location may vary at each program point" cannot
be expressed (Section 6).  The paper sketches the fix:

    "One solution we are investigating is to assign each location a
    distinct type at every program point and to add subtyping
    constraints between the different types.  [...] if s does not
    perform a strong update of x we add the constraint tau1 <= tau2; if
    s does strongly update x then we do not add this constraint."

This package prototypes exactly that proposal over a deliberately small
imperative language of qualified scalar cells:

* ``Assign(x, rhs)`` — **strong update**: x's type after the statement
  comes from the right-hand side alone;
* ``Touch(x)`` / any statement not updating x — **weak**: the type flows
  through (``before <= after``);
* ``AnnotStmt(x, l)`` — raise x's qualifier (checked, like ``l e``);
* ``AssertStmt(x, l)`` — check x's qualifier at this point (``e|l``);
* ``Refine(x, q, body)`` — a *conditional refinement*: inside ``body``,
  x is known to satisfy qualifier ``q``'s restrictive reading (the
  lclint null-test pattern: ``if (x != NULL) { ... }``).  This is a
  strong update at the branch entry;
* ``If(cond_var, then, else_)`` — both branch-exit types flow into the
  merge point (weak);
* ``While(cond_var, body)`` — body-exit types flow back to the loop
  head (weak, a fixpoint the atomic solver handles natively);
* ``Havoc(x)`` — x receives an arbitrary (unconstrained) value, e.g. an
  external input.

Expressions are variables, qualified literals, or ``Join(a, b)`` (a
value that may be either operand, e.g. the result of a binary op).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from ..qual.lattice import LatticeElement


# Slotted value classes like the C AST (see the note in
# repro/cfront/cast.py): hashed by field, spans and labels excluded, and
# never mutated once built.


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class VarRef:
    """The current value of a variable."""

    name: str


@dataclass(slots=True, unsafe_hash=True)
class Literal:
    """A constant with a known qualifier."""

    qual: LatticeElement


@dataclass(slots=True, unsafe_hash=True)
class Join:
    """A value that may come from either operand (binary operations,
    conditional expressions)."""

    left: "FlowExpr"
    right: "FlowExpr"


FlowExpr = Union[VarRef, Literal, Join]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class FlowStmt:
    label: str = field(default="", kw_only=True, compare=False)
    #: Optional source span for statements lowered from real C
    #: (:mod:`repro.flowsens.lower`); zero/empty when hand-written.
    #: Carried into constraint origins so flow paths name file:line:col.
    line: int = field(default=0, kw_only=True, compare=False)
    col: int = field(default=0, kw_only=True, compare=False)
    file: str = field(default="", kw_only=True, compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Assign(FlowStmt):
    """``x = e`` — a strong update of x."""

    target: str
    value: FlowExpr


@dataclass(slots=True, unsafe_hash=True)
class AnnotStmt(FlowStmt):
    """Raise x's qualifier to at least ``level`` (checked monotone)."""

    target: str
    level: LatticeElement


@dataclass(slots=True, unsafe_hash=True)
class AssertStmt(FlowStmt):
    """Check x's qualifier is at most ``level`` at this point."""

    target: str
    level: LatticeElement


@dataclass(slots=True, unsafe_hash=True)
class Refine(FlowStmt):
    """Run ``body`` under the assumption that ``target`` satisfies
    qualifier ``qualifier``'s restrictive reading — the null-check /
    zero-check conditional pattern.  Strong update at branch entry;
    the refined type does NOT survive past the body (the general value
    flows to the merge like an else-branch would)."""

    target: str
    qualifier: str
    body: tuple[FlowStmt, ...]


@dataclass(slots=True, unsafe_hash=True)
class If(FlowStmt):
    """Branch on ``cond`` (no refinement); merge joins both sides."""

    cond: str
    then: tuple[FlowStmt, ...]
    else_: tuple[FlowStmt, ...] = ()


@dataclass(slots=True, unsafe_hash=True)
class While(FlowStmt):
    """Loop on ``cond``; the body's exit state flows back to the head."""

    cond: str
    body: tuple[FlowStmt, ...]


@dataclass(slots=True, unsafe_hash=True)
class Havoc(FlowStmt):
    """``x`` receives an unknown value (external input)."""

    target: str


# ---------------------------------------------------------------------------
# Heap cells: the weak-update half of the Section 6 sketch.
#
# Locals are strongly updated (each assignment starts a fresh type); heap
# cells reached through pointers may be aliased, so stores are *weak*:
# the stored value joins into the cell's single, flow-insensitive type.
# This is exactly the paper's distinction — "if s does not perform a
# strong update of x we add the constraint tau1 <= tau2".
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class NewCell(FlowStmt):
    """``p = alloc(site)``: p points to the (one) cell of this site."""

    target: str
    site: str
    #: Set when the allocation was substituted from a callee's
    #: "returns owned" ownership summary (:mod:`repro.flowsens.ownership`).
    via: "CallVia | None" = field(default=None, kw_only=True)


@dataclass(slots=True, unsafe_hash=True)
class StoreCell(FlowStmt):
    """``*p = e`` — weak update: the value joins the cell's contents."""

    pointer: str
    value: FlowExpr


@dataclass(slots=True, unsafe_hash=True)
class LoadCell(FlowStmt):
    """``x = *p`` — strong update of x with the cell's contents."""

    target: str
    pointer: str


@dataclass(slots=True, unsafe_hash=True)
class CopyPtr(FlowStmt):
    """``q = p`` — q aliases whatever p points to."""

    target: str
    source: str


# ---------------------------------------------------------------------------
# Resource events: interpreted by the linearity pack
# (:mod:`repro.flowsens.linear`); the generic analyses treat them as
# no-ops so any qualifier pack can run over lowered C programs.
# ---------------------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class CallVia:
    """Provenance of a resource event that was *substituted* from a
    callee's ownership summary (:mod:`repro.flowsens.ownership`): the
    callee's name and definition span.  The linearity pack threads it
    into the flow path so a cross-TU finding names both the call site
    and the callee's defining unit."""

    callee: str
    file: str
    line: int
    col: int


@dataclass(slots=True, unsafe_hash=True)
class FreeCell(FlowStmt):
    """``free(p)`` — the resource held by ``p`` (and its must-aliases)
    is released.  Generic analyses ignore it."""

    pointer: str
    #: Set when the free was substituted from a callee's ownership
    #: summary rather than a direct releaser call.
    via: "CallVia | None" = field(default=None, kw_only=True)


@dataclass(slots=True, unsafe_hash=True)
class UseCell(FlowStmt):
    """``p`` is observed (dereferenced, passed to a borrowing callee,
    returned).  The linearity pack checks use-after-free here; generic
    analyses ignore it."""

    pointer: str


@dataclass(slots=True, unsafe_hash=True)
class ExitPoint(FlowStmt):
    """A function exit (``return`` or falling off the end).  The
    linearity pack checks leak obligations for every live local here;
    generic analyses ignore it."""


Block = tuple[FlowStmt, ...]


def block(*stmts: FlowStmt) -> Block:
    return tuple(stmts)
