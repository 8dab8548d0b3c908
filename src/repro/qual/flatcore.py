"""Flat-array (CSR) solver core with zero-copy serialisation.

Every solve of :mod:`repro.qual.solver` runs here.  An
:class:`~repro.qual.solver.IndexedSystem` has already categorised the
atomic constraints into integer-indexed bound masks and a deduplicated
edge list; this module condenses and propagates over flat integer
arrays:

* ``uids[i]``          — variable uid per dense index ``i``;
* ``indptr``/``indices`` — the deduplicated variable/variable edge set
  in CSR form, rows sorted, ``indices[indptr[u]:indptr[u+1]]`` the
  successors of ``u`` in ascending order;
* ``lower[i]``/``upper[i]`` — folded constant bounds as lattice
  bitmasks (:mod:`repro.qual.lattice`'s integer kernel);
* ``name_offsets``/``names_blob`` — variable names as one UTF-8 blob
  with a CSR-style offset table, decoded **lazily** per index so a warm
  start only pays for the names diagnostics actually touch.

Condensation and the two topological propagation passes run as loops
over those arrays.  Two kernels implement the same pipeline:

* a **stdlib kernel** (:func:`_kernel_slow`): iterative Tarjan and
  topological loops over lists and ``array('q')``/``memoryview``
  buffers.  It takes every system below ``_FLAT_FAST_MIN`` variables +
  edges, every system on an install without numpy, and every lattice
  wider than the 62 mask bits the int64 buffers hold (its masks are
  plain Python ints);
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
:func:`repro.qual.solver.solve_reference` — and identical
:class:`~repro.qual.solver.SolverStats` to each other
(``propagation_steps`` counts one relaxation per deduplicated DAG edge
whose propagating component's final mask is non-extremal); the
testkit's ``flatcore`` oracle and the hypothesis properties in
``tests/test_flatcore.py`` enforce that.

Serialisation (:meth:`FlatSystem.to_bytes` /
:meth:`FlatSystem.from_buffer`) is a versioned binary section — a
struct header followed by the raw little-endian ``int64`` buffers — so
the analysis cache can ``mmap`` an entry and wrap the arrays zero-copy
(``memoryview.cast``, no numpy) instead of unpickling an object graph.
The solved least/greatest masks may be appended as an optional
section: the fixpoints are unique, so persisting them is the
same memoisation discipline the cache already applies to parsing and
constraint generation, and re-solving the mmapped system reproduces
them exactly (round-trip tested).

Layout (offsets 8-aligned, all integers little-endian)::

    header   "<4sHH13Q"  magic b"QFC2", version, flags,
                         n, m, lat_len, names_len,
                         constraints, edges_before, ground_checks,
                         constant_bounds, sccs, collapsed_sccs,
                         largest_scc, dag_edges, propagation_steps
    lattice  lat_len     qualifier signature (see
                         QualifierLattice.signature), padded to 8
    uids     n   * i64
    indptr   (n+1) * i64
    indices  m   * i64
    lower    n   * i64
    upper    n   * i64
    nameoff  (n+1) * i64
    names    names_len bytes, padded to 8
    sol_low  n * i64     (only when flags & FLAG_SOLUTION)
    sol_high n * i64     (only when flags & FLAG_SOLUTION)

The five SCC/DAG header counts are zero unless a solution section is
present (they describe the recorded solve).
"""

from __future__ import annotations

import os
import struct
import sys
from array import array
from typing import Iterable, Sequence

from .constraints import Origin, QualConstraint
from .lattice import LatticeElement, QualifierLattice
from .qtypes import QualVar
from .solver import (
    IndexedSystem,
    Solution,
    SolverStats,
    UnsatisfiableError,
)

__all__ = [
    "FlatSystem",
    "FlatSolution",
    "fast_available",
    "fits_flat",
    "flat_solve",
    "solve_indexed",
]

_MAGIC = b"QFC2"
_VERSION = 1
_HEADER = struct.Struct("<4sHH13Q")

#: A solved least/greatest section follows the system buffers.
FLAG_SOLUTION = 1
#: Variable uids are not unique (pathological hand-built systems);
#: rehydrated lookups must key on (uid, name) instead of uid alone.
FLAG_DUP_UIDS = 2

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
    ``"stdlib"``.  Lattices wider than the int64 buffers always run on
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
    """Whether the lattice's bitmasks fit the signed-64-bit buffers."""
    return lattice._full_mask.bit_length() <= 62


# ---------------------------------------------------------------------------
# int64 buffer helpers (shared by both kernels and the serialiser)
# ---------------------------------------------------------------------------


def _i64_bytes(seq) -> bytes:
    """Little-endian int64 bytes of any int sequence."""
    if hasattr(seq, "astype"):
        # A numpy array from the fast kernel: one buffer copy through its
        # own methods, so serialising never imports numpy.
        return seq.astype("<i8", copy=False).tobytes()
    if isinstance(seq, array) and seq.typecode == "q":
        buf = seq
    else:
        buf = array("q", seq)
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        buf = array("q", buf)
        buf.byteswap()
    return buf.tobytes()


def _wrap_i64(view: memoryview, offset: int, count: int):
    """Zero-copy int64 window over ``view`` (a cast memoryview; big-endian
    hosts copy)."""
    end = offset + count * 8
    if end > len(view):
        raise ValueError(
            f"flat section overruns buffer: need {end} bytes, have {len(view)}"
        )
    window = view[offset:end]
    if sys.byteorder == "little":
        return window.cast("q")
    out = array("q")  # pragma: no cover - exotic hosts
    out.frombytes(window.tobytes())
    out.byteswap()
    return out


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


def _csr_from_edges(n: int, edge_u: Sequence[int], edge_v: Sequence[int]):
    """Row-sorted CSR (stdlib lists) from parallel edge lists."""
    pairs = sorted(zip(edge_u, edge_v))
    indptr = [0] * (n + 1)
    for u, _ in pairs:
        indptr[u + 1] += 1
    for i in range(n):
        indptr[i + 1] += indptr[i]
    indices = [v for _, v in pairs]
    return indptr, indices


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class _KernelResult:
    """Per-variable extreme masks plus pipeline-shape counters."""

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
        self.low = low
        self.high = high
        self.sccs = sccs
        self.collapsed = collapsed
        self.largest = largest
        self.dag_edges = dag_edges
        self.steps = steps
        #: Lowest variable index whose forced lower bound exceeds its
        #: forced upper bound, or -1 when the system is satisfiable —
        #: the same variable IndexedSystem.solve blames first.
        self.violation = violation


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
    csr: tuple | None = None,
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
        if csr is not None:
            indptr, indices = csr
            graph = csr_matrix(
                (np.ones(m, dtype=np.int8), indices, indptr), shape=(n, n)
            )
        else:
            graph = csr_matrix(
                (np.ones(m, dtype=np.int8), (eu, ev)), shape=(n, n)
            )
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
    return _KernelResult(low, high, ncomp, collapsed, largest, dag_edges, steps, violation)


def _kernel_slow(
    n: int,
    succ: Sequence[Sequence[int]] | None,
    low_items: Iterable[tuple[int, int]],
    up_items: Iterable[tuple[int, int]],
    lattice: QualifierLattice,
) -> _KernelResult:
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
    return _KernelResult(low, high, ncomp, collapsed, largest, dag_edges, steps, violation)


def _tarjan(n: int, succ: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """Iterative Tarjan over successor lists.  Returns (component id per
    node, component sizes); ids are in completion order, so every
    inter-component edge goes from a higher id to a lower one, the
    invariant both propagation passes rely on."""
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


# ---------------------------------------------------------------------------
# The flat system
# ---------------------------------------------------------------------------


class _LiveIndex:
    """Variable index over a live :class:`IndexedSystem` snapshot — the
    no-rehydration counterpart of :class:`FlatSystem` for solutions of
    in-memory solves (the variable objects already exist)."""

    __slots__ = ("n", "_vars", "index_of")

    def __init__(self, vars_: list[QualVar], var_index: dict[QualVar, int]):
        self.n = len(vars_)
        self._vars = vars_
        #: Dense index of a variable, or ``None`` (the dict's own ``get``:
        #: solution lookups are hot).
        self.index_of = var_index.get

    def var(self, i: int) -> QualVar:
        return self._vars[i]


def _stats_from(counts, n: int, m: int, result: _KernelResult) -> SolverStats:
    constraints, edges_before, ground_checks, constant_bounds = counts
    return SolverStats(
        variables=n,
        constraints=constraints,
        ground_checks=ground_checks,
        constant_bounds=constant_bounds,
        edges_before=edges_before,
        edges_after=m,
        sccs=result.sccs,
        collapsed_sccs=result.collapsed,
        largest_scc=result.largest,
        dag_edges=result.dag_edges,
        propagation_steps=result.steps,
    )


class FlatSystem:
    """An atomic constraint system as flat int64 buffers (see module
    docstring for the exact layout).

    Built either from a live :class:`~repro.qual.solver.IndexedSystem`
    (:meth:`from_indexed` — variable objects retained, no rehydration
    needed) or zero-copy over a serialised buffer
    (:meth:`from_buffer` — variables rehydrated lazily on demand).
    """

    __slots__ = (
        "lattice",
        "n",
        "m",
        "uids",
        "indptr",
        "indices",
        "lower",
        "upper",
        "name_offsets",
        "names_blob",
        "counts",
        "sol_low",
        "sol_high",
        "sol_stats",
        "dup_uids",
        "_vars",
        "_buf",
        "_name_cache",
        "_var_cache",
        "_uid_index",
    )

    def __init__(
        self,
        lattice: QualifierLattice,
        uids,
        indptr,
        indices,
        lower,
        upper,
        name_offsets,
        names_blob,
        counts: tuple[int, int, int, int],
        *,
        vars_: list[QualVar] | None = None,
        dup_uids: bool = False,
        buf=None,
    ) -> None:
        self.lattice = lattice
        self.n = len(uids)
        self.m = len(indices)
        self.uids = uids
        self.indptr = indptr
        self.indices = indices
        self.lower = lower
        self.upper = upper
        self.name_offsets = name_offsets
        self.names_blob = names_blob
        #: (constraints, edges_before, ground_checks, constant_bounds)
        self.counts = counts
        self.sol_low = None
        self.sol_high = None
        self.sol_stats: tuple[int, int, int, int, int] | None = None
        self.dup_uids = dup_uids
        self._vars = vars_
        self._buf = buf  # keepalive for zero-copy views (mmap)
        self._name_cache: dict[int, str] = {}
        self._var_cache: dict[int, QualVar] = {}
        self._uid_index: dict | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def from_indexed(cls, system: IndexedSystem) -> "FlatSystem":
        """Snapshot an indexed system (including any extra variables the
        caller already registered via :meth:`IndexedSystem.add_var`)."""
        lattice = system.lattice
        if not fits_flat(lattice):
            raise ValueError(
                f"lattice {lattice} needs more than 62 mask bits; "
                "the flat core stores masks as signed int64"
            )
        vars_ = list(system._vars)
        n = len(vars_)
        m = len(system._edge_u)

        fast = _pick_fast(n + m, lattice, None)
        if fast is not None:
            np = fast[0]
            eu = np.array(system._edge_u, dtype=np.int64)
            ev = np.array(system._edge_v, dtype=np.int64)
            order = np.lexsort((ev, eu))
            eu = eu[order]
            indices = ev[order]
            indptr = np.zeros(n + 1, dtype=np.int64)
            indptr[1:] = np.cumsum(np.bincount(eu, minlength=n))
        else:
            indptr_l, indices_l = _csr_from_edges(n, system._edge_u, system._edge_v)
            indptr = array("q", indptr_l)
            indices = array("q", indices_l)

        bottom = lattice.bottom.mask
        top = lattice.top.mask
        lower = array("q", [bottom]) * n if n else array("q")
        upper = array("q", [top]) * n if n else array("q")
        for i, mask in system._lower_mask.items():
            lower[i] = mask
        for i, mask in system._upper_mask.items():
            upper[i] = mask

        uid_list = [v.uid for v in vars_]
        uids = array("q", uid_list)
        offsets = array("q", [0]) * (n + 1)
        chunks = []
        total = 0
        for i, v in enumerate(vars_):
            encoded = v.name.encode("utf-8")
            chunks.append(encoded)
            total += len(encoded)
            offsets[i + 1] = total
        names_blob = b"".join(chunks)

        counts = (
            system._constraints,
            system._edges_before,
            system._ground_checks,
            system._constant_bounds,
        )
        return cls(
            lattice,
            uids,
            indptr,
            indices,
            lower,
            upper,
            offsets,
            names_blob,
            counts,
            vars_=vars_,
            dup_uids=len(set(uid_list)) != n,
        )

    # -- lazy rehydration ----------------------------------------------
    def name(self, i: int) -> str:
        """Variable name at dense index ``i`` (decoded once, memoised)."""
        cached = self._name_cache.get(i)
        if cached is None:
            off = self.name_offsets
            cached = bytes(self.names_blob[off[i] : off[i + 1]]).decode("utf-8")
            self._name_cache[i] = cached
        return cached

    def var(self, i: int) -> QualVar:
        """The (possibly rehydrated) variable at dense index ``i``."""
        if self._vars is not None:
            return self._vars[i]
        cached = self._var_cache.get(i)
        if cached is None:
            cached = QualVar(self.name(i), int(self.uids[i]))
            self._var_cache[i] = cached
        return cached

    def index_of(self, var: QualVar) -> int | None:
        """Dense index of a variable, or ``None`` if unmentioned."""
        if self._uid_index is None:
            if self.dup_uids:
                self._uid_index = {
                    (int(self.uids[i]), self.name(i)): i for i in range(self.n)
                }
            else:
                self._uid_index = {int(self.uids[i]): i for i in range(self.n)}
        if self.dup_uids:
            return self._uid_index.get((var.uid, var.name))
        i = self._uid_index.get(var.uid)
        if i is None or self.name(i) != var.name:
            return None
        return i

    # -- solving -------------------------------------------------------
    def solve_masks(self) -> _KernelResult:
        """Run condensation + propagation over the buffers."""
        n = self.n
        fast = _pick_fast(n + self.m, self.lattice, None)
        if fast is not None:
            np = fast[0]
            indptr = np.asarray(self.indptr, dtype=np.int64)
            indices = np.asarray(self.indices, dtype=np.int64)
            eu = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
            lower = np.asarray(self.lower, dtype=np.int64)
            upper = np.asarray(self.upper, dtype=np.int64)
            low_idx = np.nonzero(lower != self.lattice.bottom.mask)[0]
            up_idx = np.nonzero(upper != self.lattice.top.mask)[0]
            result = _kernel_fast(
                n,
                eu,
                indices,
                low_idx,
                lower[low_idx],
                up_idx,
                upper[up_idx],
                self.lattice,
                csr=(indptr, indices),
            )
            if result is not None:
                return result
        bottom = self.lattice.bottom.mask
        top = self.lattice.top.mask
        succ = None
        if self.m:
            ptr = self.indptr.tolist()
            ind = self.indices.tolist()
            succ = [ind[ptr[u] : ptr[u + 1]] for u in range(n)]
        return _kernel_slow(
            n,
            succ,
            ((i, m) for i, m in enumerate(self.lower) if m != bottom),
            ((i, m) for i, m in enumerate(self.upper) if m != top),
            self.lattice,
        )

    def solve(self) -> "FlatSolution":
        """Solve and wrap the result lazily; raises
        :class:`~repro.qual.solver.UnsatisfiableError` (with a synthetic
        witness — serialised systems carry no constraint provenance)."""
        result = self.solve_masks()
        if result.violation >= 0:
            i = result.violation
            lo = self.lattice.from_mask(int(result.low[i]))
            hi = self.lattice.from_mask(int(result.high[i]))
            witness = QualConstraint(self.var(i), hi, Origin("flat-core derived bound"))
            raise UnsatisfiableError(witness, lo, hi)
        return FlatSolution(
            self.lattice,
            self,
            result.low,
            result.high,
            _stats_from(self.counts, self.n, self.m, result),
        )

    def attach_solution(self) -> "FlatSolution":
        """Solve and record the solution buffers for serialisation."""
        solution = self.solve()
        self.record_solution(solution)
        return solution

    def record_solution(self, solution: "FlatSolution") -> None:
        """Record a solve of this system (or of the indexed system it was
        snapshotted from) for serialisation: buffers and SCC/DAG counts."""
        stats = solution.stats
        assert stats is not None
        self.sol_low = solution._low
        self.sol_high = solution._high
        self.sol_stats = (
            stats.sccs,
            stats.collapsed_sccs,
            stats.largest_scc,
            stats.dag_edges,
            stats.propagation_steps,
        )

    def stored_solution(self) -> "FlatSolution | None":
        """The recorded solution section, or ``None`` if absent."""
        if self.sol_low is None or self.sol_high is None:
            return None
        stats = None
        if self.sol_stats is not None:
            sccs, collapsed, largest, dag_edges, steps = self.sol_stats
            constraints, edges_before, ground_checks, constant_bounds = self.counts
            stats = SolverStats(
                variables=self.n,
                constraints=constraints,
                ground_checks=ground_checks,
                constant_bounds=constant_bounds,
                edges_before=edges_before,
                edges_after=self.m,
                sccs=sccs,
                collapsed_sccs=collapsed,
                largest_scc=largest,
                dag_edges=dag_edges,
                propagation_steps=steps,
            )
        return FlatSolution(self.lattice, self, self.sol_low, self.sol_high, stats)

    # -- serialisation -------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise; deterministic for a given system state."""
        lat_sig = self.lattice.signature().encode("utf-8")
        flags = 0
        if self.sol_low is not None:
            flags |= FLAG_SOLUTION
        if self.dup_uids:
            flags |= FLAG_DUP_UIDS
        sol_stats = self.sol_stats or (0, 0, 0, 0, 0)
        header = _HEADER.pack(
            _MAGIC,
            _VERSION,
            flags,
            self.n,
            self.m,
            len(lat_sig),
            len(self.names_blob),
            *self.counts,
            *sol_stats,
        )
        parts = [
            header,
            lat_sig,
            b"\0" * _pad8(len(lat_sig)),
            _i64_bytes(self.uids),
            _i64_bytes(self.indptr),
            _i64_bytes(self.indices),
            _i64_bytes(self.lower),
            _i64_bytes(self.upper),
            _i64_bytes(self.name_offsets),
            bytes(self.names_blob),
            b"\0" * _pad8(len(self.names_blob)),
        ]
        if flags & FLAG_SOLUTION:
            parts.append(_i64_bytes(self.sol_low))
            parts.append(_i64_bytes(self.sol_high))
        return b"".join(parts)

    @classmethod
    def from_buffer(cls, buf) -> "FlatSystem":
        """Wrap a serialised system zero-copy.

        ``buf`` may be ``bytes``, a ``memoryview``, or an ``mmap`` — the
        returned system keeps a reference so the mapping stays alive.
        Raises ``ValueError``/``struct.error`` on malformed input (the
        cache treats both as a miss).
        """
        view = memoryview(buf)
        if len(view) < _HEADER.size:
            raise ValueError(f"flat buffer too short: {len(view)} bytes")
        (
            magic,
            version,
            flags,
            n,
            m,
            lat_len,
            names_len,
            constraints,
            edges_before,
            ground_checks,
            constant_bounds,
            sccs,
            collapsed,
            largest,
            dag_edges,
            steps,
        ) = _HEADER.unpack_from(view, 0)
        if magic != _MAGIC:
            raise ValueError(f"bad flat magic: {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported flat version: {version}")

        offset = _HEADER.size
        if offset + lat_len > len(view):
            raise ValueError("lattice signature overruns buffer")
        lat_sig = bytes(view[offset : offset + lat_len]).decode("utf-8")
        lattice = QualifierLattice.from_signature(lat_sig)
        offset += lat_len + _pad8(lat_len)

        uids = _wrap_i64(view, offset, n)
        offset += n * 8
        indptr = _wrap_i64(view, offset, n + 1)
        offset += (n + 1) * 8
        indices = _wrap_i64(view, offset, m)
        offset += m * 8
        lower = _wrap_i64(view, offset, n)
        offset += n * 8
        upper = _wrap_i64(view, offset, n)
        offset += n * 8
        name_offsets = _wrap_i64(view, offset, n + 1)
        offset += (n + 1) * 8
        if offset + names_len > len(view):
            raise ValueError("name blob overruns buffer")
        names_blob = view[offset : offset + names_len]
        offset += names_len + _pad8(names_len)

        if n and int(name_offsets[n]) != names_len:
            raise ValueError("name offset table inconsistent with blob length")

        system = cls(
            lattice,
            uids,
            indptr,
            indices,
            lower,
            upper,
            name_offsets,
            names_blob,
            (constraints, edges_before, ground_checks, constant_bounds),
            dup_uids=bool(flags & FLAG_DUP_UIDS),
            buf=buf,
        )
        if flags & FLAG_SOLUTION:
            system.sol_low = _wrap_i64(view, offset, n)
            offset += n * 8
            system.sol_high = _wrap_i64(view, offset, n)
            system.sol_stats = (sccs, collapsed, largest, dag_edges, steps)
        return system


class FlatSolution(Solution):
    """A :class:`~repro.qual.solver.Solution` over flat buffers.

    ``least``/``greatest`` materialise their variable-keyed dicts only
    when actually read (differential fingerprints, visualisation);
    :meth:`least_of`/:meth:`greatest_of`/``classify`` answer directly
    from the mask arrays, rehydrating at most the queried variable's
    name.  This is the lazy-rehydration contract the binary cache relies
    on: classifying a warm run touches only the position variables'
    names, never the whole table.
    """

    def __init__(self, lattice, system, low, high, stats=None):
        # Deliberately not calling the dataclass __init__: least and
        # greatest are lazy properties here.
        self.lattice = lattice
        self.stats = stats
        self._system = system  # FlatSystem or _LiveIndex
        self._low = low
        self._high = high
        self._least_memo: dict | None = None
        self._greatest_memo: dict | None = None

    @property
    def least(self):  # type: ignore[override]
        if self._least_memo is None:
            from_mask = self.lattice.from_mask
            source = self._system
            low = self._low
            self._least_memo = {
                source.var(i): from_mask(int(low[i])) for i in range(source.n)
            }
        return self._least_memo

    @property
    def greatest(self):  # type: ignore[override]
        if self._greatest_memo is None:
            from_mask = self.lattice.from_mask
            source = self._system
            high = self._high
            self._greatest_memo = {
                source.var(i): from_mask(int(high[i])) for i in range(source.n)
            }
        return self._greatest_memo

    def least_of(self, var: QualVar) -> LatticeElement:
        i = self._system.index_of(var)
        if i is None or i >= len(self._low):
            return self.lattice.bottom
        return self.lattice.from_mask(int(self._low[i]))

    def greatest_of(self, var: QualVar) -> LatticeElement:
        i = self._system.index_of(var)
        if i is None or i >= len(self._high):
            return self.lattice.top
        return self.lattice.from_mask(int(self._high[i]))


# ---------------------------------------------------------------------------
# Solver entry points
# ---------------------------------------------------------------------------


def flat_solve(
    constraints: Iterable[QualConstraint],
    lattice: QualifierLattice,
    extra_vars: Iterable[QualVar] = (),
    kernel: str | None = None,
) -> Solution:
    """:func:`repro.qual.solver.solve` with the kernel chosen explicitly.

    ``kernel`` is ``"fast"`` (numpy/scipy; ``RuntimeError`` when they are
    unavailable), ``"stdlib"``, or ``None`` for the production choice by
    system size.  The testkit's ``flatcore`` oracle pits the two kernels
    against each other through this entry point.
    """
    system = IndexedSystem(lattice)
    system.add_many(constraints)
    return solve_indexed(system, extra_vars, kernel)


def solve_indexed(
    system: IndexedSystem,
    extra_vars: Iterable[QualVar] = (),
    kernel: str | None = None,
) -> Solution:
    """The body of :meth:`IndexedSystem.solve` (see :func:`_pick_fast`
    for ``kernel``).

    Returns a lazy :class:`FlatSolution` over the live variable index;
    on unsatisfiability raises the indexed system's provenance-tracking
    blame for the first violated variable.
    """
    conflict = system._ground_conflict
    if conflict is not None:
        assert isinstance(conflict.lhs, LatticeElement)
        assert isinstance(conflict.rhs, LatticeElement)
        raise UnsatisfiableError(conflict, conflict.lhs, conflict.rhs)
    for var in extra_vars:
        system.add_var(var)

    lattice = system.lattice
    n = len(system._vars)
    m = len(system._edge_u)
    lower = system._lower_mask
    upper = system._upper_mask
    result = None
    fast = _pick_fast(n + m, lattice, kernel)
    if fast is not None:
        np = fast[0]
        eu = np.array(system._edge_u, dtype=np.int64)
        ev = np.array(system._edge_v, dtype=np.int64)
        low_idx = np.fromiter(lower.keys(), dtype=np.int64, count=len(lower))
        low_masks = np.fromiter(lower.values(), dtype=np.int64, count=len(lower))
        up_idx = np.fromiter(upper.keys(), dtype=np.int64, count=len(upper))
        up_masks = np.fromiter(upper.values(), dtype=np.int64, count=len(upper))
        result = _kernel_fast(n, eu, ev, low_idx, low_masks, up_idx, up_masks, lattice)
    if result is None:
        succ = None
        if m:
            succ = [[] for _ in range(n)]
            for u, v in zip(system._edge_u, system._edge_v):
                succ[u].append(v)
        result = _kernel_slow(n, succ, lower.items(), upper.items(), lattice)

    if result.violation >= 0:
        i = result.violation
        raise system._unsat_error(
            system._vars[i], int(result.low[i]), int(result.high[i])
        )

    counts = (
        system._constraints,
        system._edges_before,
        system._ground_checks,
        system._constant_bounds,
    )
    return FlatSolution(
        lattice,
        _LiveIndex(system._vars, system._var_index),
        result.low,
        result.high,
        _stats_from(counts, n, m, result),
    )
