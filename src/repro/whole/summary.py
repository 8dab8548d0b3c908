"""Per-TU polymorphic summaries and their cache serialization.

Each TU group (one translation unit, or one cycle of mutually-dependent
units) is analysed to a :class:`TUSummary`: the constraints and const
positions its functions generated, plus one generalized scheme
(``forall kappa. rho \\ C``) per function it defines.  Summaries are
stored in the content-addressed :class:`~repro.constinfer.cache.AnalysisCache`
so a warm rebuild loads them and goes straight to re-linking and the
solve — constraint generation is skipped per TU, and editing one unit
only re-analyses that unit and its (transitive) dependents.

Soundness of the partial-warm mix rests on two invariants:

* **value-equal variables** — :class:`~repro.qual.qtypes.QualVar`
  compares by ``(uid, name)``, and the whole-program engine allocates
  every variable from absolute, schedule-derived uid bands, so a cached
  blob's variables coincide exactly with the live run's for the same
  inputs;
* **interned constructors** — :class:`~repro.qual.qtypes.TypeConstructor`
  re-interns on unpickle, so cached schemes keep satisfying the
  ``constructor is REF`` identity checks in the analysis.

The cache key for a group covers the group's own sources, the sources
of every group it transitively depends on (their schemes shape this
group's constraints), the shared symbol layout (globals, struct fields,
and library prototypes — these determine the shared uid band's
contents), the group's band base, the lattice, the inference options,
and the analyser code fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from ..cfront.sema import Program
from ..constinfer.analysis import ConstPosition
from ..constinfer.cache import AnalysisCache
from ..constinfer.fdg import FunctionDependenceGraph
from ..qual.constraints import QualConstraint
from ..qual.lattice import QualifierLattice
from ..qual.poly import QualScheme

#: Cache entry kind for per-TU-group summary blobs.
SUMMARY_KIND = "tu-summary"

#: Cache entry kind for per-unit ownership-summary maps
#: (:mod:`repro.whole.ownership`).  Keyed exactly like qualifier
#: summaries — a unit's ownership facts depend on the same dependency
#: closure, so one edit invalidates both kinds together.
OWNERSHIP_KIND = "tu-ownership"


@dataclass
class TUSummary:
    """One TU group's analysis output, ready to re-link."""

    group: tuple[str, ...]  # unit filenames in this group, sorted
    functions: tuple[str, ...]  # program-level function names, in order
    constraints: list[QualConstraint]
    positions: list[ConstPosition]
    schemes: dict[str, QualScheme]
    band_base: int


def shared_layout_digest(program: Program) -> str:
    """Digest of everything the shared uid band's contents depend on:
    global declarations, struct/union layouts, and undefined (library)
    prototypes, in creation order.  Editing a function body elsewhere
    keeps this stable (upstream summaries stay warm); adding a global or
    a struct field shifts the shared uids and correctly invalidates
    every summary."""
    digest = hashlib.sha256()
    for name, decl in program.globals.items():
        digest.update(f"g:{name}:{decl.type!r}\n".encode())
    for tag, struct in program.structs.items():
        digest.update(f"s:{tag}:{int(struct.is_union)}\n".encode())
        for field_decl in struct.fields:
            digest.update(f"f:{field_decl.name}:{field_decl.type!r}\n".encode())
    for name, proto in program.prototypes.items():
        if name not in program.functions:
            digest.update(
                f"p:{name}:{proto.ret!r}:"
                f"{tuple(p.type for p in proto.params)!r}:{proto.varargs}\n".encode()
            )
    return digest.hexdigest()


def dependency_closure(
    group: tuple[str, ...],
    tu_graph: FunctionDependenceGraph,
) -> tuple[str, ...]:
    """All units ``group``'s analysis depends on, itself included,
    sorted — the source set of its cache key."""
    out: set[str] = set()
    work = list(group)
    while work:
        unit = work.pop()
        if unit in out:
            continue
        out.add(unit)
        work.extend(tu_graph.edges.get(unit, ()))
    return tuple(sorted(out))


def summary_source_key(
    group: tuple[str, ...],
    closure_units: tuple[str, ...],
    sources: dict[str, str],
    layout_digest: str,
    band_base: int,
) -> str:
    """The ``source`` component of a summary's cache key: the group's
    and its dependency closure's unit texts (labelled, in deterministic
    order) plus the shared layout digest and the band base."""
    parts = [f"group:{','.join(group)}", f"layout:{layout_digest}", f"band:{band_base}"]
    for unit in closure_units:
        parts.append(f"unit:{unit}")
        parts.append(sources.get(unit, ""))
    return "\x00".join(parts)


def load_summary(
    cache: AnalysisCache,
    *,
    source_key: str,
    lattice: QualifierLattice | None,
    options: dict[str, Any],
) -> TUSummary | None:
    key = cache.key(
        SUMMARY_KIND, source=source_key, lattice=lattice, mode="whole", options=options
    )
    cached = cache.get(key)
    return cached if isinstance(cached, TUSummary) else None


def store_summary(
    cache: AnalysisCache,
    summary: TUSummary,
    *,
    source_key: str,
    lattice: QualifierLattice | None,
    options: dict[str, Any],
) -> None:
    key = cache.key(
        SUMMARY_KIND, source=source_key, lattice=lattice, mode="whole", options=options
    )
    cache.put(key, summary)


def ownership_cache_key(cache: AnalysisCache, source_key: str) -> str:
    """Cache key of one unit's ownership-summary map.  Exposed (rather
    than inlined into load/store) so tests can pin the invalidation
    invariant: editing a unit must move exactly the keys of its
    dependents' closures."""
    return cache.key(
        OWNERSHIP_KIND,
        source=source_key,
        lattice=None,
        mode="whole",
        options={"pack": "ownership"},
    )


def load_ownership(
    cache: AnalysisCache, *, source_key: str
) -> dict[str, Any] | None:
    cached = cache.get(ownership_cache_key(cache, source_key))
    return cached if isinstance(cached, dict) else None


def store_ownership(
    cache: AnalysisCache,
    summaries: dict[str, Any],
    *,
    source_key: str,
) -> None:
    cache.put(ownership_cache_key(cache, source_key), summaries)
