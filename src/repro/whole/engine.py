"""Whole-program polymorphic inference: the SCC traversal lifted to TUs.

The cross-TU function dependence graph (occurrence edges plus
function-pointer resolution edges) is projected onto translation units,
and the TU-level condensation is walked callees-first.  Each TU group —
one unit, or one cycle of mutually-dependent units — is analysed with
the per-unit engine's per-SCC traversal and is one cacheable work item:
the content-addressed cache stores one summary per TU group.

Agreement across cold/warm cache mixes comes from **absolute** uid
banding: the shared symbol layer (globals, struct fields, library
prototypes) always occupies ``[WHOLE_UID_BASE, WHOLE_UID_BASE + band)``,
and TU group *k* of the schedule always draws from band ``k + 1``.
Variable numbering is a pure function of the linked program, never of
which groups were served from the cache — so a cached summary's
variables are value-equal (:class:`~repro.qual.qtypes.QualVar` compares
by uid and name) to the ones a live run would allocate, and summaries
re-link exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from ..constinfer.analysis import ConstInference
from ..constinfer.cache import AnalysisCache
from ..constinfer.engine import (
    InferenceRun,
    _analyze_component,
    _create_shared_cells,
    _solved_run,
)
from ..constinfer.fdg import FunctionDependenceGraph
from ..qual.lattice import QualifierLattice
from ..qual.qtypes import UidBand, use_uid_band
from .callgraph import WholeProgramCallGraph
from .linker import LinkedProgram
from .summary import (
    TUSummary,
    dependency_closure,
    load_summary,
    shared_layout_digest,
    store_summary,
    summary_source_key,
)

#: Base uid of the whole-program band space.  Far above anything the
#: per-unit engines allocate, and constant across processes, so cached
#: summary blobs and live runs agree on every shared variable's uid.
WHOLE_UID_BASE = 1 << 40

#: Uid range reserved for the shared layer and for each TU group.
#: Deliberately generous: the largest suite benchmark allocates tens of
#: thousands of variables *in total*, so one group can never exhaust
#: 2**20 uids in practice; if one somehow does,
#: :class:`~repro.qual.qtypes.UidBandExhausted` aborts the run loudly
#: rather than silently colliding.
_UID_BAND_SIZE = 1 << 20


@dataclass
class WholeProgramRun:
    """Outcome of one whole-program inference."""

    linked: LinkedProgram
    run: InferenceRun
    callgraph: WholeProgramCallGraph
    #: The TU-group schedule, level-major: each entry is the sorted tuple
    #: of unit filenames forming one group.
    schedule: list[tuple[str, ...]] = field(default_factory=list)
    summary_hits: int = 0
    summary_misses: int = 0
    link_seconds: float = 0.0


@dataclass
class _GroupTask:
    """One TU group of the schedule with its precomputed identity."""

    units: tuple[str, ...]
    functions: tuple[str, ...]  # FDG order within the group
    band_base: int
    source_key: str


def _tu_graph(
    linked: LinkedProgram, fdg: FunctionDependenceGraph
) -> FunctionDependenceGraph:
    """Project the cross-TU function dependence graph onto units: an
    edge A -> B whenever some function homed in A depends on one homed
    in B.  Units with no functions still appear (isolated vertices) so
    their globals participate in the shared layer like everyone else."""
    tu_of = linked.tu_of_function
    vertices = set(linked.unit_names)
    edges: dict[str, set[str]] = {name: set() for name in vertices}
    for caller, callees in fdg.edges.items():
        caller_tu = tu_of.get(caller)
        if caller_tu is None:
            continue
        for callee in callees:
            callee_tu = tu_of.get(callee)
            if callee_tu is not None and callee_tu != caller_tu:
                edges[caller_tu].add(callee_tu)
    return FunctionDependenceGraph.from_edges(vertices, edges)


def tu_dependence_graph(linked: LinkedProgram) -> FunctionDependenceGraph:
    """The cross-TU dependence graph of a linked program, projected onto
    translation units — the public entry for the incremental re-link
    machinery (the private callers thread intermediate products)."""
    callgraph = WholeProgramCallGraph.build(linked.program)
    return _tu_graph(linked, callgraph.function_graph())


def affected_units(
    tu_graph: FunctionDependenceGraph, changed: set[str]
) -> tuple[str, ...]:
    """The units a re-link must re-analyse after ``changed`` units were
    edited: the changed units plus every transitive *dependent* (the
    inverse of :func:`~repro.whole.summary.dependency_closure`), sorted.
    Units outside this set keep their summaries byte-for-byte."""
    dependents: dict[str, set[str]] = {unit: set() for unit in tu_graph.vertices}
    for unit, deps in tu_graph.edges.items():
        for dep in deps:
            if dep in dependents:
                dependents[dep].add(unit)
    out: set[str] = set()
    work = [unit for unit in changed if unit in dependents]
    while work:
        unit = work.pop()
        if unit in out:
            continue
        out.add(unit)
        work.extend(dependents[unit])
    return tuple(sorted(out))


def _analyze_group(
    inference: ConstInference,
    task: _GroupTask,
    fdg: FunctionDependenceGraph,
    cache: AnalysisCache | None,
    lattice: QualifierLattice | None,
    options: dict[str, Any],
) -> tuple[bool, float]:
    """Add one group's constraints, positions and schemes to
    ``inference`` — from its cached summary when warm, by banded
    per-SCC analysis when cold.  Returns ``(from_cache, seconds spent
    generalising)``."""
    if cache is not None:
        cached = load_summary(
            cache, source_key=task.source_key, lattice=lattice, options=options
        )
        if cached is not None and cached.band_base == task.band_base:
            inference.constraints.extend(cached.constraints)
            inference.positions.extend(cached.positions)
            inference.schemes.update(cached.schemes)
            return True, 0.0

    mark = len(inference.constraints)
    position_mark = len(inference.positions)
    generalize_seconds = 0.0
    band = UidBand(task.band_base, _UID_BAND_SIZE)
    with use_uid_band(band):
        for component in fdg.restricted(set(task.functions)).sccs():
            generalize_seconds += _analyze_component(inference, component, band.next)

    if cache is not None:
        summary = TUSummary(
            group=task.units,
            functions=task.functions,
            constraints=inference.constraints[mark:],
            positions=inference.positions[position_mark:],
            schemes={name: inference.schemes[name] for name in task.functions},
            band_base=task.band_base,
        )
        store_summary(
            cache, summary, source_key=task.source_key, lattice=lattice, options=options
        )
    return False, generalize_seconds


def run_whole_poly(
    linked: LinkedProgram,
    lattice: QualifierLattice | None = None,
    cache: AnalysisCache | None = None,
    **inference_options: Any,
) -> WholeProgramRun:
    """Polymorphic inference over a linked program, scheduled per TU.

    The output — constraints, positions, schemes, classifications — is
    bit-identical for any cold/warm cache mix.  ``cache`` enables
    per-TU-group summary memoisation.
    """
    start = time.perf_counter()
    program = linked.program
    inference = ConstInference(program, lattice, **inference_options)

    # Shared cells (eager pass and any stragglers the pass cannot see)
    # all draw from one absolute band below every group band.  Assign
    # ``_shared_band`` before the eager pass — global/field cells route
    # through ``use_uid_band(inference._shared_band)`` themselves, and
    # with it unset they would fall back to the global counter.  The
    # enclosing ``with`` covers prototype signatures, which band only
    # through the caller.
    shared_band = UidBand(WHOLE_UID_BASE, _UID_BAND_SIZE)
    inference._shared_band = shared_band
    with use_uid_band(shared_band):
        _create_shared_cells(inference)

    callgraph = WholeProgramCallGraph.build(program)
    fdg = callgraph.function_graph()
    tu_graph = _tu_graph(linked, fdg)

    tu_of = linked.tu_of_function
    layout = shared_layout_digest(program) if cache is not None else ""

    # Groups in level-major condensation order (callees first); group k
    # draws from band k + 1.
    tasks: list[_GroupTask] = []
    for level in tu_graph.wavefronts():
        for component in level:
            units = tuple(sorted(component))
            unit_set = set(units)
            functions = tuple(
                name for name in fdg.vertices if tu_of.get(name) in unit_set
            )
            if not functions:
                continue  # nothing to analyse; globals are shared-layer
            band_base = WHOLE_UID_BASE + (len(tasks) + 1) * _UID_BAND_SIZE
            source_key = ""
            if cache is not None:
                source_key = summary_source_key(
                    units,
                    dependency_closure(units, tu_graph),
                    linked.sources,
                    layout,
                    band_base,
                )
            tasks.append(
                _GroupTask(
                    units=units,
                    functions=functions,
                    band_base=band_base,
                    source_key=source_key,
                )
            )

    hits = misses = 0
    generalize_seconds = 0.0
    for task in tasks:
        from_cache, seconds = _analyze_group(
            inference, task, fdg, cache, lattice, inference_options
        )
        hits += from_cache
        misses += not from_cache
        generalize_seconds += seconds

    # Global initializers run last (Section 4.3), in their own
    # deterministic band just past every group band.
    final_band = UidBand(
        WHOLE_UID_BASE + (len(tasks) + 1) * _UID_BAND_SIZE, _UID_BAND_SIZE
    )
    with use_uid_band(final_band):
        inference.analyze_global_initializers()
    inference._shared_band = None

    run = _solved_run(
        "whole-poly",
        inference,
        start,
        generalize_seconds,
        from_cache=misses == 0 and hits > 0,
    )
    return WholeProgramRun(
        linked=linked,
        run=run,
        callgraph=callgraph,
        schedule=[task.units for task in tasks],
        summary_hits=hits,
        summary_misses=misses,
        link_seconds=run.elapsed_seconds,
    )
