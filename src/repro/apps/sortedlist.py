"""The sorted-list qualifier of Section 2.3.

"Perhaps the most obvious kind of type qualifier to add is one that
captures a property of a data structure."  ``sorted`` is a negative
qualifier on list values: sorted lists are a subset of all lists.  Sort
functions are *trusted* to return sorted lists (the paper: "We do not
attempt to verify that sorted is placed correctly — we simply assume
it is"), and consumers such as ``merge`` assert their inputs sorted.

Our lambda language has no built-in lists, so this instance encodes a
list as a reference-chained structure built by library combinators whose
qualified types are *given*, exactly as a user of the framework would
annotate a list library:

* ``nil  : sorted list``  (the empty list is vacuously sorted)
* ``cons : int -> list -> list``  (consing forgets sortedness)
* ``sort : list -> sorted list``  (trusted)
* ``merge : sorted list -> sorted list -> sorted list`` (checked inputs)

The checking happens entirely in the qualifier system: passing an
unsorted list where a sorted one is asserted is a type error.
"""

from __future__ import annotations

from ..lam.infer import QualifiedLanguage
from ..qual.qtypes import (
    LIST,
    QCon,
    QType,
    q_fun,
    q_int,
    qt,
)
from ..qual.qualifiers import sorted_lattice


def sorted_language() -> QualifiedLanguage:
    return QualifiedLanguage(sorted_lattice())


def list_type(qual, element: QType | None = None) -> QType:
    """A qualified list type; elements default to unqualified ints."""
    lattice = sorted_lattice()
    if element is None:
        element = q_int(lattice.bottom)
    return qt(qual, LIST, element)


def library_env() -> dict[str, QType]:
    """Qualified types for the trusted list library.

    ``sorted`` is present at lattice bottom (negative qualifier), so the
    sorted list type is the *bottom*-qualified list and the
    possibly-unsorted type is the top (qualifier removed).
    """
    lattice = sorted_lattice()
    sorted_q = lattice.bottom  # {sorted}
    any_q = lattice.top  # absence of sorted

    def lst(q) -> QType:
        return list_type(q)

    bot = lattice.bottom
    return {
        # nil : sorted list
        "nil": lst(sorted_q),
        # cons : int -> list -> list   (result possibly unsorted)
        "cons": q_fun(bot, q_int(bot), q_fun(bot, lst(any_q), lst(any_q))),
        # sort : list -> sorted list   (trusted annotation)
        "sort": q_fun(bot, lst(any_q), lst(sorted_q)),
        # merge : sorted -> sorted -> sorted  (inputs checked)
        "merge": q_fun(bot, lst(sorted_q), q_fun(bot, lst(sorted_q), lst(sorted_q))),
        # head : list -> int  (works on any list)
        "head": q_fun(bot, lst(any_q), q_int(bot)),
    }
