"""Content-addressed on-disk cache for the analysis pipeline.

The expensive stages of an inference run are parsing and constraint
generation; solving is comparatively cheap (see EXPERIMENTS.md's stage
breakdown).  All of them are pure functions of (source text, qualifier
lattice, engine mode, inference options, analysis code), so a run's
answer can be memoised on disk and shared across processes: a warm
rerun of the benchmark suite skips parse, congen and the solve.

Keys are SHA-256 digests over every input that can change the output:

* the *kind* of entry (``"constraints"`` for :meth:`AnalysisCache.cached_run`;
  the checker and the whole-program engine add their own kinds),
* a fingerprint of the analysis source code itself (the cfront,
  constinfer, and qual packages), so editing the analyser invalidates
  every entry rather than serving stale results,
* the benchmark's full source text (content-addressed — renaming or
  regenerating an identical file still hits),
* the qualifier lattice (canonical sorted-qualifier repr),
* the engine mode and the sorted inference options.

Entries are written atomically (tmp file + ``os.replace``) so
concurrent writers — the process-pool suite runner — can race
harmlessly: last writer wins with an identical value.  Unreadable or
corrupt entries are treated as misses and rewritten.

A ``"constraints"`` entry stores the run's *answer*, which is all a
Table 2 row reads: a pickle of one primitive row per
:class:`~repro.constinfer.analysis.ConstPosition` (its fields, the
variable's name and uid, and the least and greatest solution as lattice
masks), the solve's :class:`~repro.qual.solver.SolverStats`, and the
constraint count.  Masks are plain ints, so every lattice width uses
the same entry.  A warm run rebuilds the positions and the one
:class:`~repro.qual.solver.Solution` class over their variables and
stored masks; it never sees the constraint system.  A truncated,
corrupt or wrong-shape entry is a miss exactly like a missing one —
never an exception out of the cache layer.

Every handle also fronts the directory with a small bounded LRU of
decoded :meth:`~AnalysisCache.get`/:meth:`~AnalysisCache.get_bytes`
values (:class:`_MemoryTier`), so a long-lived process — the
``repro.serve`` daemon — answers repeated lookups of the same key
without touching disk at all.  Memory hits are counted separately
(``CacheStats.memory_hits``); the tier is dropped on pickling, so
process-pool workers start cold and share nothing but the directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..cfront.sema import Program
from ..qual.lattice import LatticeError, QualifierLattice
from ..qual.qtypes import QualVar
from ..qual.qualifiers import const_lattice
from ..qual.solver import Solution, SolverStats
from .analysis import ConstPosition
from .engine import InferenceRun, StageTimings, run_mono, run_poly, run_polyrec

#: Bump to invalidate every existing cache entry regardless of code
#: fingerprint (e.g. when the entry *format* changes shape).
CACHE_FORMAT_VERSION = 2

#: The packages whose source code determines cached output (the checker
#: stores finished diagnostics, so its code is part of the key too;
#: flowsens feeds the resource-pack diagnostics and ownership
#: summaries, so it must invalidate them as well).
_FINGERPRINTED_PACKAGES = (
    "cfront",
    "checker",
    "constinfer",
    "flowsens",
    "qual",
    "whole",
)

_code_fingerprint_memo: str | None = None


def code_fingerprint() -> str:
    """SHA-256 over the analyser's own source files.

    Any edit to the front end, the constraint generator, or the
    qualifier machinery changes the digest and so invalidates every
    cache entry — the cache can never serve results computed by old
    code.  Memoised per process (the source tree does not change under
    a running analysis).
    """
    global _code_fingerprint_memo
    if _code_fingerprint_memo is not None:
        return _code_fingerprint_memo
    digest = hashlib.sha256()
    digest.update(f"format:{CACHE_FORMAT_VERSION}".encode())
    root = Path(__file__).resolve().parent.parent
    for package in _FINGERPRINTED_PACKAGES:
        for path in sorted((root / package).glob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    _code_fingerprint_memo = digest.hexdigest()
    return _code_fingerprint_memo


def lattice_key(lattice: QualifierLattice | None) -> str:
    """Canonical description of a lattice: its sorted qualifiers, or
    ``"default"`` for the engines' built-in const lattice."""
    if lattice is None:
        return "default"
    return repr(lattice.qualifiers)


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle (one process)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: Subset of ``hits`` answered by the in-memory LRU tier without
    #: touching disk at all.
    memory_hits: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.memory_hits += other.memory_hits

    def summary(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.memory_hits} memory hit(s)"
        )


class _MemoryTier:
    """A bounded LRU of decoded cache entries.

    Keys are ``(accessor, key)`` pairs — the same content-addressed key
    is cached separately per access shape (``"obj"`` for unpickled
    values, ``"bytes"`` for raw blobs) because the decoded forms differ.  Values are
    whatever the accessor produced; content-addressing makes them
    immutable-by-convention, so sharing one object across lookups is
    safe the same way sharing the on-disk entry is.
    """

    __slots__ = ("maxsize", "_entries")

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple[str, str], object]" = OrderedDict()

    def get(self, accessor: str, key: str):
        """The cached value (LRU-refreshed), or the ``_MISS`` sentinel."""
        if self.maxsize <= 0:
            return _MISS
        value = self._entries.get((accessor, key), _MISS)
        if value is not _MISS:
            self._entries.move_to_end((accessor, key))
        return value

    def put(self, accessor: str, key: str, value: object) -> None:
        if self.maxsize <= 0:
            return
        entries = self._entries
        entries[(accessor, key)] = value
        entries.move_to_end((accessor, key))
        while len(entries) > self.maxsize:
            entries.popitem(last=False)

    def drop(self, key: str) -> None:
        """Forget every decoded form of ``key`` (its entry was rewritten)."""
        for accessor in ("obj", "bytes"):
            self._entries.pop((accessor, key), None)

    def __len__(self) -> int:
        return len(self._entries)


#: What reading a truncated, corrupt or wrong-shape entry can raise:
#: unpickling garbage, unpacking the wrong shape, or a mask outside the
#: lattice.  :meth:`AnalysisCache.get` and
#: :meth:`AnalysisCache._load_constraints` turn each into a miss.
_UNREADABLE_ENTRY = (
    OSError,
    EOFError,
    pickle.UnpicklingError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    OverflowError,
    TypeError,
    ValueError,
    LatticeError,
)

#: Sentinel distinguishing "not in the memory tier" from a cached None.
_MISS = object()

#: Default bound of the per-handle memory tier.  Small enough that even
#: the largest values (whole-program summaries) stay modest; a resident
#: daemon raises it per session.
DEFAULT_MEMORY_ENTRIES = 256


@dataclass
class AnalysisCache:
    """A content-addressed pickle store rooted at ``root``.

    The handle is cheap and picklable (it carries only the root path and
    its own counters; the in-memory LRU tier is dropped on pickling), so
    process-pool workers can each hold one over the same directory.
    """

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __init__(
        self, root: str | os.PathLike, memory_entries: int = DEFAULT_MEMORY_ENTRIES
    ) -> None:
        self.root = Path(root)
        self.stats = CacheStats()
        self.memory = _MemoryTier(memory_entries)

    def __getstate__(self) -> dict:
        return {"root": self.root, "memory_entries": self.memory.maxsize}

    def __setstate__(self, state: dict) -> None:
        self.root = state["root"]
        self.stats = CacheStats()
        self.memory = _MemoryTier(state.get("memory_entries", DEFAULT_MEMORY_ENTRIES))

    # -- keys ----------------------------------------------------------
    def key(
        self,
        kind: str,
        *,
        source: str,
        lattice: QualifierLattice | None = None,
        mode: str = "",
        options: dict | None = None,
    ) -> str:
        parts = [
            f"kind:{kind}",
            f"code:{code_fingerprint()}",
            f"lattice:{lattice_key(lattice)}",
            f"mode:{mode}",
            f"options:{sorted((options or {}).items())!r}",
            "source:",
            source,
        ]
        return hashlib.sha256("\x00".join(parts).encode()).hexdigest()

    # -- raw entry access ----------------------------------------------
    def _path(self, key: str) -> Path:
        # Two-level fanout keeps directory listings sane at scale.
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> object | None:
        """The stored value, or ``None`` on miss.  A corrupt or
        unreadable entry counts as a miss; a repeat lookup is answered
        from the in-memory tier without touching disk."""
        cached = self.memory.get("obj", key)
        if cached is not _MISS:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return cached
        path = self._path(key)
        try:
            blob = path.read_bytes()
            value = pickle.loads(blob)
        except _UNREADABLE_ENTRY:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.memory.put("obj", key, value)
        return value

    def get_bytes(self, key: str) -> bytes | None:
        """The raw entry blob (any encoding), or ``None`` on miss.
        Memory-tier-backed like :meth:`get`."""
        cached = self.memory.get("bytes", key)
        if cached is not _MISS:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return cached  # type: ignore[return-value]
        try:
            blob = self._path(key).read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.memory.put("bytes", key, blob)
        return blob

    def _write_atomic(self, key: str, blob: bytes) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.memory.drop(key)
        self.stats.stores += 1

    def put(self, key: str, value: object) -> None:
        """Atomically store ``value``; concurrent writers race safely.

        The memory tier is read-through only — it is populated by a
        successful *disk* read, never by a write — so the on-disk entry
        stays the source of truth and a corrupt entry is always a miss.
        A write drops the key from the tier, so a rewritten entry is
        read back from disk, not served stale from memory.
        """
        self._write_atomic(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def put_bytes(self, key: str, blob: bytes) -> None:
        """Atomically store an already-encoded binary entry."""
        self._write_atomic(key, blob)

    def _load_constraints(self, key: str, lattice: QualifierLattice | None):
        """Load a ``"constraints"`` entry as ``(positions, solution,
        constraint_count)``, or ``None`` on miss.

        Reads the file itself rather than through :meth:`get`, so one
        lookup counts once.  Masks are read over ``lattice`` (the
        engines' default const lattice when ``None``).  Anything that
        does not decode to the shape :meth:`cached_run` writes — a
        truncated or garbage file, a pickle of the wrong shape, a mask
        outside the lattice — is a miss, never an exception.
        """
        lat = lattice if lattice is not None else const_lattice()
        try:
            rows, stats, constraint_count = pickle.loads(self._path(key).read_bytes())
            if not isinstance(stats, SolverStats) or not isinstance(
                constraint_count, int
            ):
                raise TypeError("not a constraints entry")
            positions = []
            variables = []
            least = []
            greatest = []
            bits = 0
            for function, where, depth, declared, line, name, uid, low, high in rows:
                var = QualVar(name, uid)
                positions.append(
                    ConstPosition(function, where, depth, var, declared, line)
                )
                variables.append(var)
                least.append(low)
                greatest.append(high)
                bits |= low | high
            if bits & ~lat._full_mask:
                raise LatticeError(f"mask {bits:#x} has bits outside lattice {lat}")
        except _UNREADABLE_ENTRY:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        solution = Solution(lat, variables, least, greatest, stats)
        return positions, solution, constraint_count

    # -- pipeline-level helpers ----------------------------------------
    def cached_run(
        self,
        source: str,
        name: str,
        mode: str,
        lattice: QualifierLattice | None = None,
        program: Program | None = None,
        **inference_options,
    ) -> InferenceRun:
        """Run one engine over ``source`` through the cache.

        Cold path: run the engine over ``program`` (parsed from
        ``source`` and charged to ``parse_seconds`` if not given), then
        store the run's answer: per position its fields and its least
        and greatest masks, plus the solve's ``SolverStats`` and the
        constraint count.  The run's ``inference.program`` can be handed
        to the next engine.

        Warm path: the positions and a ``Solution`` over their
        variables' stored masks are rebuilt from the entry, so parse,
        constraint generation and the solve are all skipped; the run has
        no ``inference`` and its
        :class:`~repro.constinfer.engine.StageTimings` is flagged
        ``from_cache``.
        """
        key = self.key(
            "constraints",
            source=source,
            lattice=lattice,
            mode=mode,
            options=inference_options,
        )
        start = time.perf_counter()
        cached = self._load_constraints(key, lattice)
        if cached is not None:
            positions, solution, constraint_count = cached
            elapsed = time.perf_counter() - start
            timings = StageTimings(congen_seconds=elapsed, from_cache=True)
            return InferenceRun(
                mode, solution, positions, constraint_count, elapsed, None, timings
            )

        parse_seconds = 0.0
        if program is None:
            parse_start = time.perf_counter()
            program = Program.from_source(source, name)
            parse_seconds = time.perf_counter() - parse_start
        engine = {"mono": run_mono, "poly": run_poly, "polyrec": run_polyrec}[mode]
        run = engine(program, lattice, **inference_options)
        solution = run.solution
        rows = [
            (
                p.function,
                p.where,
                p.depth,
                p.declared,
                p.line,
                p.var.name,
                p.var.uid,
                *solution.masks_of(p.var),
            )
            for p in run.positions
        ]
        self.put(key, (rows, solution.stats, run.constraint_count))
        timings = replace(run.timings, parse_seconds=parse_seconds)
        return replace(run, timings=timings)
