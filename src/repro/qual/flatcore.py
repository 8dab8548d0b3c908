"""Flat-array solver core: arrays in, masks out.

Every solve of :mod:`repro.qual.solver` runs here.  The solver's
``IndexedSystem`` has already categorised the atomic constraints into a
deduplicated edge list (parallel lists of dense variable indices) and
sparse per-variable bound masks (:mod:`repro.qual.lattice`'s integer
kernel).  :func:`solve_masks` condenses that graph and runs the two
topological propagation passes over flat integer arrays, returning one
least and one greatest mask per variable as plain-int lists plus the
pipeline-shape counters (:class:`KernelResult`).  This module knows
nothing of variables, constraints or solutions.  Two kernels implement
the same pipeline:

* a **stdlib kernel** (:func:`_kernel_slow`): iterative Tarjan and
  topological loops over plain lists.  It takes every system below
  ``_FLAT_FAST_MIN`` variables + edges, every system on an install
  without numpy, and every lattice wider than the 62 mask bits the fast
  kernel's int64 arrays hold (its masks are plain Python ints);
* a **fast kernel** (:func:`_kernel_fast`) using numpy +
  ``scipy.sparse.csgraph``, for large systems: C-compiled Tarjan for
  the condensation, vectorised bound folding, and — the trick that
  removes the last Python-per-edge loop — bound propagation as
  multi-source *reachability*.  On the condensation DAG the final least
  value of a component is the join of the initial masks of every
  component that reaches it, and a join of masks decomposes into ``(OR
  & pos) | (AND & neg)``; with only a handful of distinct initial masks
  (a product lattice has few), one unweighted C ``dijkstra`` sweep per
  distinct mask computes the whole fixpoint.  The greatest solution is
  the dual meet over the transposed DAG.  A Python topological loop
  over the deduplicated DAG edges remains as the in-kernel fallback
  when a pathological system has too many distinct masks.  numpy and
  scipy are imported on the first solve that reaches the threshold
  (:func:`fast_available` probes on demand), never when this module is
  imported, so a run that only solves small systems never loads them.

Both kernels compute the identical unique fixpoints as
:func:`repro.qual.solver.solve_reference` — and identical counters to
each other (``steps`` counts one relaxation per deduplicated DAG edge
whose propagating component's final mask is non-extremal); the
testkit's ``flatcore`` oracle and the hypothesis properties in
``tests/test_flatcore.py`` enforce that.

The module is also the package's one SCC routine (:func:`sccs_of`).
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Mapping, Sequence

from .lattice import QualifierLattice

__all__ = [
    "KernelResult",
    "fast_available",
    "fits_flat",
    "sccs_of",
    "solve_masks",
]

#: Above this many distinct initial component masks per direction the
#: reachability formulation stops paying (one dijkstra sweep per mask)
#: and the kernel falls back to its Python topological loop.
_REACH_MAX_MASKS = 8

#: Systems with at least this many variables + deduplicated edges run on
#: the numpy/scipy kernel when it is importable; smaller ones, and every
#: system on a numpy-free install, run on the stdlib kernel.  The fast
#: kernel's fixed cost (~0.3 ms a solve, plus importing numpy and scipy
#: on first use) only pays for itself on large graphs.
_FLAT_FAST_MIN = 1024

_UNPROBED = object()
#: numpy/scipy handles, ``None`` (stdlib kernel only), or ``_UNPROBED``
#: until the first solve that could use them.
_FAST = _UNPROBED


def _probe_fast():
    """numpy + scipy.sparse.csgraph, or ``None`` (stdlib kernel only).

    ``REPRO_FLATCORE=stdlib`` forces the stdlib path even when numpy is
    importable, so the fallback kernel is testable on full installs.
    """
    if os.environ.get("REPRO_FLATCORE", "").lower() in {"stdlib", "slow", "off"}:
        return None
    try:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components, dijkstra
    except Exception:
        return None
    return (np, csr_matrix, connected_components, dijkstra)


def _fast_modules():
    """The numpy/scipy handles, probed (and imported) on the first call."""
    global _FAST
    if _FAST is _UNPROBED:
        _FAST = _probe_fast()
    return _FAST


def fast_available() -> bool:
    """Whether the numpy/scipy kernel is available (probes on first call)."""
    return _fast_modules() is not None


def _pick_fast(size: int, lattice: QualifierLattice, kernel: str | None):
    """The numpy/scipy handles if a solve of ``size`` variables + edges
    should run the fast kernel, else ``None``.

    ``kernel`` is ``None`` (choose by ``_FLAT_FAST_MIN``), ``"fast"`` or
    ``"stdlib"``.  Lattices wider than the int64 arrays always run on
    the stdlib kernel, whose masks are plain Python ints.
    """
    if kernel == "stdlib" or (kernel is None and size < _FLAT_FAST_MIN):
        return None
    if not fits_flat(lattice):
        return None
    fast = _fast_modules()
    if fast is None and kernel == "fast":
        raise RuntimeError("the numpy/scipy flat-core kernel is unavailable")
    return fast


def fits_flat(lattice: QualifierLattice) -> bool:
    """Whether the lattice's bitmasks fit the fast kernel's int64 arrays."""
    return lattice._full_mask.bit_length() <= 62


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class KernelResult:
    """Per-variable extreme masks (plain-int lists) plus pipeline-shape
    counters."""

    __slots__ = (
        "low",
        "high",
        "sccs",
        "collapsed",
        "largest",
        "dag_edges",
        "steps",
        "violation",
    )

    def __init__(self, low, high, sccs, collapsed, largest, dag_edges, steps, violation):
        self.low: list[int] = low
        self.high: list[int] = high
        self.sccs = sccs
        self.collapsed = collapsed
        self.largest = largest
        self.dag_edges = dag_edges
        self.steps = steps
        #: Lowest variable index whose forced lower bound exceeds its
        #: forced upper bound, or -1 when the system is satisfiable.
        self.violation = violation


def solve_masks(
    n: int,
    edge_u: Sequence[int],
    edge_v: Sequence[int],
    lower: Mapping[int, int],
    upper: Mapping[int, int],
    lattice: QualifierLattice,
    kernel: str | None = None,
) -> KernelResult:
    """Condense and propagate one indexed system.

    ``n`` variables are numbered ``0..n-1``; ``edge_u[k] <= edge_v[k]``
    are the deduplicated variable/variable edges; ``lower``/``upper``
    map a variable to its folded constant bound mask.  The kernel is
    chosen by size (see :func:`_pick_fast`; ``kernel`` forces one and is
    for tests only).
    """
    result = None
    fast = _pick_fast(n + len(edge_u), lattice, kernel)
    if fast is not None:
        np = fast[0]
        result = _kernel_fast(
            n,
            np.array(edge_u, dtype=np.int64),
            np.array(edge_v, dtype=np.int64),
            np.fromiter(lower.keys(), dtype=np.int64, count=len(lower)),
            np.fromiter(lower.values(), dtype=np.int64, count=len(lower)),
            np.fromiter(upper.keys(), dtype=np.int64, count=len(upper)),
            np.fromiter(upper.values(), dtype=np.int64, count=len(upper)),
            lattice,
        )
    if result is None:
        succ = None
        if edge_u:
            succ = [[] for _ in range(n)]
            for u, v in zip(edge_u, edge_v):
                succ[u].append(v)
        result = _kernel_slow(n, succ, lower.items(), upper.items(), lattice)
    return result


def _dag_propagate_fast(ncomp, psrc, pdst, init, identity, pos, neg, joinlike):
    """Propagate initial component masks along the deduplicated DAG
    edges ``psrc -> pdst`` (already oriented in the direction values
    flow), returning the final per-component masks.

    Few distinct masks: one unweighted multi-source dijkstra per
    distinct mask gives its reachable set; folding ``(OR & pos) |
    (AND & neg)`` (join) or the dual (meet) over those sets *is* the
    fixpoint.  Many distinct masks: a Python loop over the edges in
    topological order (descending source label for joins — labels are
    reverse-topological — ascending for meets).
    """
    np, csr_matrix, _cc, dijkstra = _FAST
    masks = np.unique(init)
    masks = masks[masks != identity]
    if len(masks) <= _REACH_MAX_MASKS:
        graph = csr_matrix(
            (np.ones(len(psrc), dtype=np.int8), (psrc, pdst)), shape=(ncomp, ncomp)
        )
        or_acc = np.zeros(ncomp, dtype=np.int64)
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        for mask in masks.tolist():
            sources = np.nonzero(init == mask)[0]
            dist = dijkstra(
                graph,
                directed=True,
                indices=sources,
                min_only=True,
                unweighted=True,
            )
            reached = np.isfinite(dist)
            or_acc[reached] |= mask
            and_acc[reached] &= mask
        if joinlike:
            return (or_acc & pos) | (and_acc & neg)
        return (and_acc & pos) | (or_acc & neg)

    order = np.argsort(psrc, kind="stable")
    src_list = psrc[order].tolist()
    dst_list = pdst[order].tolist()
    values = init.tolist()
    indexes = range(len(src_list) - 1, -1, -1) if joinlike else range(len(src_list))
    for k in indexes:
        a = values[src_list[k]]
        if a == identity:
            continue
        d = dst_list[k]
        b = values[d]
        if joinlike:
            merged = ((a | b) & pos) | (a & b & neg)
        else:
            merged = (a & b & pos) | ((a | b) & neg)
        if merged != b:
            values[d] = merged
    return np.array(values, dtype=np.int64)


def _kernel_fast(
    n: int,
    eu,
    ev,
    low_idx,
    low_masks,
    up_idx,
    up_masks,
    lattice: QualifierLattice,
):
    """numpy/scipy condensation pipeline; ``None`` if the scipy label
    order ever stops being reverse-topological (never observed — the
    caller then falls back to the stdlib Tarjan)."""
    np, csr_matrix, connected_components, _dijkstra = _FAST
    pos = lattice._pos_mask
    neg = lattice._neg_mask
    bottom = neg
    top = pos
    m = len(ev)

    if m:
        graph = csr_matrix((np.ones(m, dtype=np.int8), (eu, ev)), shape=(n, n))
        ncomp, labels = connected_components(
            graph, directed=True, connection="strong", return_labels=True
        )
        ncomp = int(ncomp)
        labels = labels.astype(np.int64, copy=False)
    else:
        ncomp = n
        labels = np.arange(n, dtype=np.int64)

    # Fold the sparse constant bounds into per-component masks.  A join
    # over masks decomposes into (OR & pos) | (AND & neg) and a meet
    # into (AND & pos) | (OR & neg), so the folds vectorise as scattered
    # bitwise reductions; components with no bound land on bottom/top.
    comp_low = np.full(ncomp, bottom, dtype=np.int64)
    have_lower = low_idx is not None and len(low_idx) > 0
    if have_lower:
        lab = labels[low_idx]
        or_acc = np.zeros(ncomp, dtype=np.int64)
        np.bitwise_or.at(or_acc, lab, low_masks)
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        np.bitwise_and.at(and_acc, lab, low_masks)
        comp_low = (or_acc & pos) | (and_acc & neg)

    comp_high = np.full(ncomp, top, dtype=np.int64)
    have_upper = up_idx is not None and len(up_idx) > 0
    if have_upper:
        lab = labels[up_idx]
        and_acc = np.full(ncomp, -1, dtype=np.int64)
        np.bitwise_and.at(and_acc, lab, up_masks)
        or_acc = np.zeros(ncomp, dtype=np.int64)
        np.bitwise_or.at(or_acc, lab, up_masks)
        comp_high = (and_acc & pos) | (or_acc & neg)

    # Condensation DAG: deduplicated inter-component edges.  scipy's
    # strong labels satisfy label(u) > label(v) along every
    # inter-component edge (reverse-topological completion order, the
    # same invariant our Tarjan produces); this is verified, not
    # assumed, with the stdlib kernel as the fallback.
    dag_edges = 0
    dcu = dcv = None
    if m:
        lu = labels[eu]
        lv = labels[ev]
        keep = lu != lv
        if bool(keep.any()):
            ku = lu[keep]
            kv = lv[keep]
            if not bool((ku > kv).all()):
                return None
            codes = np.unique(ku * np.int64(ncomp) + kv)
            dag_edges = len(codes)
            dcu = codes // ncomp
            dcv = codes - dcu * ncomp

    # Propagate and count relaxations.  In topological processing order
    # every component's mask is final before it propagates, so the
    # stdlib kernel's step counter — one step per deduplicated DAG edge
    # whose propagating component is non-extremal at visit time — equals
    # a count over *final* masks, which vectorises.
    steps = 0
    if dag_edges and have_lower and not bool((comp_low == bottom).all()):
        comp_low = _dag_propagate_fast(
            ncomp, dcu, dcv, comp_low, bottom, pos, neg, joinlike=True
        )
        steps += int((comp_low[dcu] != bottom).sum())
    if dag_edges and have_upper and not bool((comp_high == top).all()):
        comp_high = _dag_propagate_fast(
            ncomp, dcv, dcu, comp_high, top, pos, neg, joinlike=False
        )
        steps += int((comp_high[dcv] != top).sum())

    low = comp_low[labels]
    high = comp_high[labels]
    viol = (low & ~high & pos) | (high & ~low & neg)
    nz = np.nonzero(viol)[0]
    violation = int(nz[0]) if len(nz) else -1

    sizes = np.bincount(labels, minlength=ncomp) if n else np.zeros(0, dtype=np.int64)
    collapsed = int((sizes > 1).sum()) if n else 0
    largest = int(sizes.max()) if n else 0
    return KernelResult(
        low.tolist(), high.tolist(), ncomp, collapsed, largest, dag_edges, steps, violation
    )


def _kernel_slow(
    n: int,
    succ: Sequence[Sequence[int]] | None,
    low_items: Iterable[tuple[int, int]],
    up_items: Iterable[tuple[int, int]],
    lattice: QualifierLattice,
) -> KernelResult:
    """Pure-stdlib kernel: iterative Tarjan over successor lists (``succ``,
    ``None`` when there are no edges), then one topological propagation
    pass per direction over the deduplicated condensation DAG."""
    pos = lattice._pos_mask
    neg = lattice._neg_mask
    bottom = neg
    top = pos

    if succ is None:
        comp = range(n)
        sizes = [1] * n
    else:
        comp, sizes = _tarjan(n, succ)
    ncomp = len(sizes)

    comp_low = [bottom] * ncomp
    have_lower = False
    for i, mask in low_items:
        have_lower = True
        ci = comp[i]
        a = comp_low[ci]
        comp_low[ci] = ((a | mask) & pos) | (a & mask & neg)

    comp_high = [top] * ncomp
    have_upper = False
    for i, mask in up_items:
        have_upper = True
        ci = comp[i]
        a = comp_high[ci]
        comp_high[ci] = (a & mask & pos) | ((a | mask) & neg)

    # Condensation DAG: deduplicated successor components per component.
    # Ids are reverse-topological, so descending ids visit sources first
    # and ascending ids visit sinks first.
    dag: dict[int, set[int]] = {}
    if succ is not None:
        for u in range(n):
            cu = comp[u]
            for v in succ[u]:
                cv = comp[v]
                if cu != cv:
                    out = dag.get(cu)
                    if out is None:
                        dag[cu] = {cv}
                    else:
                        out.add(cv)
    dag_edges = sum(map(len, dag.values()))

    steps = 0
    if dag:
        order = sorted(dag)
        if have_lower:
            for cu in reversed(order):
                a = comp_low[cu]
                if a == bottom:
                    continue
                out = dag[cu]
                steps += len(out)
                for cv in out:
                    b = comp_low[cv]
                    comp_low[cv] = ((a | b) & pos) | (a & b & neg)
        if have_upper:
            for cu in order:
                b = comp_high[cu]
                for cv in dag[cu]:
                    a = comp_high[cv]
                    if a == top:
                        continue
                    steps += 1
                    b = (a & b & pos) | ((a | b) & neg)
                comp_high[cu] = b

    violation = -1
    if have_lower and have_upper:
        bad = {
            c
            for c in range(ncomp)
            if (comp_low[c] & ~comp_high[c] & pos) | (comp_high[c] & ~comp_low[c] & neg)
        }
        if bad:
            violation = next(i for i in range(n) if comp[i] in bad)

    if succ is None:
        low, high = comp_low, comp_high
    else:
        low = [comp_low[c] for c in comp]
        high = [comp_high[c] for c in comp]
    collapsed = sum(1 for s in sizes if s > 1)
    largest = max(sizes, default=0)
    return KernelResult(low, high, ncomp, collapsed, largest, dag_edges, steps, violation)


def sccs_of(nodes: Sequence, successors: Callable[[object], Iterable]) -> list[list]:
    """Strongly connected components of the graph over ``nodes`` with
    ``successors(node)``, every component's successors first (the order
    :func:`_tarjan` completes them).  Roots and successors are visited
    in ``nodes`` order, and members are listed in that order too."""
    index_of = {node: i for i, node in enumerate(nodes)}
    succ = [sorted(index_of[w] for w in successors(node)) for node in nodes]
    comp, sizes = _tarjan(len(nodes), succ)
    components: list[list] = [[] for _ in sizes]
    for i, cid in enumerate(comp):
        components[cid].append(nodes[i])
    return components


def _tarjan(n: int, succ: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Iterative Tarjan over successor lists.  Returns (component id per
    node, component sizes); ids are in completion order, so every
    inter-component edge goes from a higher id to a lower one, the
    invariant both propagation passes rely on.  Roots are taken in node
    order and successors in list order, so the numbering is a function
    of the input.  This is the package's one SCC routine: the function
    dependence graph and scheme minimisation reach it through
    :func:`sccs_of`."""
    index_of = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: list[int] = []
    comp = [-1] * n
    sizes: list[int] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        if not succ[root]:
            # No successors: a component of its own, complete at once.
            index_of[root] = counter
            counter += 1
            comp[root] = len(sizes)
            sizes.append(1)
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index_of[w] == -1:
                    if not succ[w]:
                        index_of[w] = counter
                        counter += 1
                        comp[w] = len(sizes)
                        sizes.append(1)
                        continue
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index_of[v]:
                    cid = len(sizes)
                    size = 0
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp[w] = cid
                        size += 1
                        if w == v:
                            break
                    sizes.append(size)
    return comp, sizes


