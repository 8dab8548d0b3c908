"""Content-addressed on-disk cache for the analysis pipeline.

The expensive stages of an inference run are parsing and constraint
generation; solving is comparatively cheap (see EXPERIMENTS.md's stage
breakdown).  Both stages are pure functions of (source text, qualifier
lattice, engine mode, inference options, analysis code), so the solved
constraint system can be memoised on disk and shared across processes:
a warm rerun of the benchmark suite skips parse, congen and the solve.

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

Two entry encodings coexist under the same keyspace, dispatched by the
leading magic bytes at load time:

* **v2 binary** (``b"QCE2"``) — the preferred encoding for constraint
  entries: a small header, the flat-array constraint system of
  :mod:`repro.qual.flatcore` (CSR edges, bitmask bounds, name blob,
  and the solved fixpoints) as raw little-endian buffers, then a pickle
  of primitive per-position rows.  Warm starts ``mmap`` the file and
  wrap the buffers zero-copy; no ``QualVar``/``QualConstraint`` object
  graph is ever rebuilt — variables are rehydrated lazily, only for
  the positions diagnostics touch, and the recorded solution (the
  system's *unique* extreme fixpoints) is served without re-solving.
* **v1 pickle** — lattices wider than the flat core's 62 mask bits: a
  pickle of ``(constraints, positions)`` re-solved on load.

A truncated or corrupt binary entry (bad magic, short buffer,
``struct.error``) is a miss exactly like a corrupt pickle — never an
exception out of the cache layer.

Every handle also fronts the directory with a small bounded LRU of
decoded entries (:class:`_MemoryTier`), so a long-lived process — the
``repro.serve`` daemon, or a warm benchmark loop — answers repeated
lookups of the same key without touching disk at all.  Memory hits are
counted separately (``CacheStats.memory_hits``); the tier is dropped on
pickling, so process-pool workers start cold and share nothing but the
directory.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import pickle
import struct
import tempfile
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..cfront.sema import Program
from ..qual import flatcore
from ..qual.lattice import QualifierLattice
from ..qual.solver import UnsatisfiableError
from .analysis import ConstPosition
from .engine import (
    InferenceRun,
    StageTimings,
    _wrap_unsat,
    run_mono,
    run_poly,
    run_polyrec,
)

#: Bump to invalidate every existing cache entry regardless of code
#: fingerprint (e.g. when the entry *format* changes shape).
CACHE_FORMAT_VERSION = 2

#: Leading magic of a v2 binary constraint entry; anything else is
#: dispatched to the v1 pickle reader.
ENTRY_MAGIC = b"QCE2"
ENTRY_VERSION = 1

#: v2 entry header: magic, version, reserved, flat section length,
#: position-row pickle length.  24 bytes, so the flat section that
#: follows stays 8-aligned for zero-copy int64 views.
_ENTRY_HEADER = struct.Struct("<4sHHQQ")

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
    #: Subset of ``hits`` served zero-copy from a v2 binary entry
    #: (mmap + flat buffers, no unpickled object graph).
    binary_hits: int = 0
    #: Subset of ``hits`` answered by the in-memory LRU tier without
    #: touching disk at all.
    memory_hits: int = 0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.binary_hits += other.binary_hits
        self.memory_hits += other.memory_hits

    def summary(self) -> str:
        return (
            f"{self.hits} hit(s), {self.misses} miss(es), "
            f"{self.stores} store(s), {self.binary_hits} binary mmap hit(s), "
            f"{self.memory_hits} memory hit(s)"
        )


class _MemoryTier:
    """A bounded LRU of decoded cache entries.

    Keys are ``(accessor, key)`` pairs — the same content-addressed key
    is cached separately per access shape (``"obj"`` for unpickled
    values, ``"bytes"`` for raw blobs, ``"entry"`` for decoded
    constraint payloads) because the decoded forms differ.  Values are
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

    def __len__(self) -> int:
        return len(self._entries)


#: Sentinel distinguishing "not in the memory tier" from a cached None.
_MISS = object()

#: Default bound of the per-handle memory tier.  Small enough that even
#: the largest values (decoded constraint systems of whole programs)
#: stay modest; a resident daemon raises it per session.
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
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
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
        self.stats.stores += 1

    def put(self, key: str, value: object) -> None:
        """Atomically store ``value``; concurrent writers race safely.

        The memory tier is read-through only — it is populated by a
        successful *disk* read, never by a write — so the on-disk entry
        stays the source of truth and a corrupt entry is always a miss.
        """
        self._write_atomic(key, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))

    def put_bytes(self, key: str, blob: bytes) -> None:
        """Atomically store an already-encoded binary entry."""
        self._write_atomic(key, blob)

    def _load_constraints(self, key: str):
        """Load a constraints entry in whichever encoding it was written.

        Returns ``("flat", (FlatSystem, positions))`` for a v2 binary
        entry (buffers wrapped zero-copy over an ``mmap`` of the file),
        ``("pickle", (constraints, positions))`` for a v1 pickle entry,
        or ``None`` on miss.  Corrupt entries of either encoding —
        truncated headers, short buffers, ``struct.error``, garbage
        pickles — are misses, never exceptions.  A repeat lookup is
        answered from the in-memory tier (the decoded payload, mapping
        and all, stays resident) without re-opening the file.
        """
        cached = self.memory.get("entry", key)
        if cached is not _MISS:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return cached
        path = self._path(key)
        try:
            handle = open(path, "rb")
        except OSError:
            self.stats.misses += 1
            return None
        with handle:
            try:
                head = handle.read(len(ENTRY_MAGIC))
            except OSError:
                self.stats.misses += 1
                return None
            if head == ENTRY_MAGIC:
                try:
                    mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):
                    self.stats.misses += 1
                    return None
                try:
                    entry = _decode_entry(mapped)
                except (
                    ValueError,
                    struct.error,
                    IndexError,
                    KeyError,
                    OverflowError,
                    UnicodeDecodeError,
                    pickle.UnpicklingError,
                    EOFError,
                    AttributeError,
                ):
                    # Not closed explicitly: the raised exception's
                    # frames may still hold views over the mapping
                    # (closing would raise BufferError); GC reclaims it.
                    self.stats.misses += 1
                    return None
                self.stats.hits += 1
                self.stats.binary_hits += 1
                self.memory.put("entry", key, ("flat", entry))
                return ("flat", entry)
            try:
                handle.seek(0)
                blob = handle.read()
            except OSError:
                self.stats.misses += 1
                return None
        try:
            value = pickle.loads(blob)
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ValueError,
            IndexError,
            struct.error,
        ):
            self.stats.misses += 1
            return None
        if isinstance(value, tuple) and len(value) == 2:
            self.stats.hits += 1
            self.memory.put("entry", key, ("pickle", value))
            return ("pickle", value)
        # Well-formed pickle of the wrong shape (written by another tool
        # against the same key): recompute rather than serve it.
        self.stats.misses += 1
        return None

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
        store the engine's own solved system as a v2 binary entry, or as
        a v1 pickle for lattices the flat core cannot hold.  The run's
        ``inference.program`` can be handed to the next engine.

        Warm path: a v2 entry is ``mmap``-ed and its buffers wrapped
        zero-copy — the recorded solution is served directly (the
        fixpoints are unique, so it is bit-identical to a fresh solve)
        and ``QualVar`` objects are rebuilt lazily, only for the
        classified positions; a v1 entry is unpickled and re-solved.
        Either way parse and constraint generation are skipped entirely
        and the run's :class:`~repro.constinfer.engine.StageTimings` is
        flagged ``from_cache``.
        """
        key = self.key(
            "constraints",
            source=source,
            lattice=lattice,
            mode=mode,
            options=inference_options,
        )
        start = time.perf_counter()
        cached = self._load_constraints(key)
        if cached is not None:
            encoding, payload = cached
            if encoding == "flat":
                system, positions = payload
                loaded = time.perf_counter()
                try:
                    solution = system.stored_solution() or system.solve()
                except UnsatisfiableError as exc:
                    raise _wrap_unsat(exc) from exc
                constraint_count = system.counts[0]
            else:
                constraints, positions = payload
                loaded = time.perf_counter()
                solution = _solve_cached(constraints, positions, lattice)
                constraint_count = len(constraints)
            end = time.perf_counter()
            timings = StageTimings(
                congen_seconds=loaded - start,
                solve_seconds=end - loaded,
                from_cache=True,
            )
            return InferenceRun(
                mode, solution, positions, constraint_count, end - start, None, timings
            )

        parse_seconds = 0.0
        if program is None:
            parse_start = time.perf_counter()
            program = Program.from_source(source, name)
            parse_seconds = time.perf_counter() - parse_start
        engine = {"mono": run_mono, "poly": run_poly, "polyrec": run_polyrec}[mode]
        run = engine(program, lattice, **inference_options)
        blob = _encode_entry(run.system, run.solution, run.positions)
        if blob is not None:
            self.put_bytes(key, blob)
        else:
            self.put(key, (run.inference.constraints, run.positions))
        timings = StageTimings(
            parse_seconds=parse_seconds,
            congen_seconds=run.timings.congen_seconds if run.timings else 0.0,
            solve_seconds=run.timings.solve_seconds if run.timings else 0.0,
            generalize_seconds=run.timings.generalize_seconds if run.timings else 0.0,
        )
        return InferenceRun(
            run.mode,
            run.solution,
            run.positions,
            run.constraint_count,
            run.elapsed_seconds,
            run.inference,
            timings,
        )


def _encode_entry(system, solution, positions):
    """Encode an engine's solved indexed system as a v2 binary entry, or
    ``None`` when the flat core cannot hold its lattice.

    The flat section records the solution too, so a warm start pays
    neither unpickling nor solving; the tail is a pickle of primitive
    per-position rows referencing variables by dense index.
    """
    if not flatcore.fits_flat(system.lattice):
        return None
    flat = flatcore.FlatSystem.from_indexed(system)
    flat.record_solution(solution)
    index = system._var_index
    rows = [
        (p.function, p.where, p.depth, index[p.var], p.declared, p.line)
        for p in positions
    ]
    flat_blob = flat.to_bytes()
    meta_blob = pickle.dumps(rows, protocol=pickle.HIGHEST_PROTOCOL)
    header = _ENTRY_HEADER.pack(
        ENTRY_MAGIC, ENTRY_VERSION, 0, len(flat_blob), len(meta_blob)
    )
    return b"".join((header, flat_blob, meta_blob))


def _decode_entry(buf):
    """Decode a v2 binary entry zero-copy (the returned
    :class:`~repro.qual.flatcore.FlatSystem` keeps the mapping alive).

    Raises ``ValueError``/``struct.error`` on any malformation; the
    cache layer treats those as a miss.
    """
    view = memoryview(buf)
    magic, version, _reserved, flat_len, meta_len = _ENTRY_HEADER.unpack_from(view, 0)
    if magic != ENTRY_MAGIC:
        raise ValueError(f"bad entry magic: {magic!r}")
    if version != ENTRY_VERSION:
        raise ValueError(f"unsupported entry version: {version}")
    offset = _ENTRY_HEADER.size
    if offset + flat_len + meta_len > len(view):
        raise ValueError("entry sections overrun file")
    system = flatcore.FlatSystem.from_buffer(view[offset : offset + flat_len])
    rows = pickle.loads(view[offset + flat_len : offset + flat_len + meta_len])
    if not isinstance(rows, list):
        raise ValueError("position rows are not a list")
    positions = [
        ConstPosition(function, where, depth, system.var(var_index), declared, line)
        for function, where, depth, var_index, declared, line in rows
    ]
    return system, positions


def _solve_cached(constraints, positions, lattice: QualifierLattice | None):
    """Solve a cache-loaded v1 constraint system over the lattice the
    engine used (the key's, or the engines' default const lattice)."""
    from ..qual.qualifiers import const_lattice
    from ..qual.solver import solve

    lat = lattice if lattice is not None else const_lattice()
    try:
        return solve(constraints, lat, extra_vars=[p.var for p in positions])
    except UnsatisfiableError as exc:
        raise _wrap_unsat(exc) from exc
