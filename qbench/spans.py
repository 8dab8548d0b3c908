"""Per-layer spans recorded from outside the program.

The benchmark wraps the entry point of each pipeline layer (lexer,
parser, sema, constraint generation, solver, ...) with a span, so a
traced run can say how much of each operation every layer took without
any tracing code inside ``src/``.  A span's *self time* is its duration
minus the time of the spans nested in it; self times of all layers plus
the untraced remainder add up to the operation's wall time.

Wrapping replaces the function object everywhere it is bound under
``repro.*`` (the defining module and every module that imported it by
name), and class attributes in place.  A target that no longer exists
is skipped, so its layer reads 0 instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

#: (layer, module, attribute path).  Order matters only for reading.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("lex", "repro.cfront.clexer", "tokenize_c"),
    ("parse", "repro.cfront.cparser", "parse_c"),
    ("parse", "repro.cfront.cparser", "parse_c_resilient"),
    ("sema", "repro.cfront.sema", "Program.from_units"),
    ("congen", "repro.constinfer.engine", "run_mono"),
    ("congen", "repro.constinfer.engine", "run_poly"),
    ("check", "repro.checker.engine", "check_program"),
    ("solve", "repro.qual.solver", "solve"),
    ("solve", "repro.qual.solver", "IndexedSystem.solve"),
    ("generalize", "repro.qual.poly", "generalize"),
    ("classify", "repro.constinfer.results", "make_row"),
    ("lower", "repro.flowsens.lower", "lower_function"),
    ("flow", "repro.flowsens.linear", "analyze_function_resources"),
    ("ownership", "repro.whole.ownership", "ownership_for_linked"),
    ("link", "repro.whole.linker", "link_units"),
    ("cache_key", "repro.constinfer.cache", "AnalysisCache.key"),
    ("cache_read", "repro.constinfer.cache", "AnalysisCache.get"),
    ("cache_read", "repro.constinfer.cache", "AnalysisCache.get_bytes"),
    ("cache_read", "repro.constinfer.cache", "AnalysisCache._load_constraints"),
    ("cache_write", "repro.constinfer.cache", "AnalysisCache.put"),
    ("cache_write", "repro.constinfer.cache", "AnalysisCache.put_bytes"),
    ("render", "repro.checker.render", "render_report"),
    ("rpc", "repro.serve.protocol", "parse_request"),
    ("rpc", "repro.serve.protocol", "encode"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Counters kept alongside the spans (see ``Tracer._count``).
COUNTERS: tuple[str, ...] = (
    "cache_hits",
    "cache_misses",
    "cache_stores",
    "units_parsed",
    "solves",
    "functions_lowered",
)

_CACHE_READS = {"get", "get_bytes", "_load_constraints"}
_CACHE_WRITES = {"put", "put_bytes"}


class Tracer:
    """Accumulates per-layer self time (seconds) and counters."""

    def __init__(self) -> None:
        self.self_seconds = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        # Open spans: [layer, start, seconds covered by child spans].
        self._stack: list[list] = []

    def snapshot(self) -> tuple[dict[str, float], dict[str, int]]:
        return dict(self.self_seconds), dict(self.counts)

    def _count(self, layer: str, name: str, nested: bool, result) -> None:
        counts = self.counts
        if name in _CACHE_READS:
            counts["cache_misses" if result is None else "cache_hits"] += 1
        elif name in _CACHE_WRITES:
            counts["cache_stores"] += 1
        elif nested:
            return  # e.g. IndexedSystem.solve inside solve: one solve
        elif layer == "parse":
            counts["units_parsed"] += 1
        elif layer == "solve":
            counts["solves"] += 1
        elif layer == "lower":
            counts["functions_lowered"] += 1

    def wrap(self, layer: str, fn):
        name = fn.__name__

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = self._stack
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - frame[1]
                stack.pop()
                self.self_seconds[layer] += elapsed - frame[2]
                if stack:
                    stack[-1][2] += elapsed
                self._count(layer, name, nested, result)

        return span

    def install(self) -> list[str]:
        """Wrap every target that exists; returns the ones skipped."""
        skipped = []
        for layer, module_name, path in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                skipped.append(f"{module_name}:{path}")
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(attr) if isinstance(owner, type) else None
                if raw is None:
                    skipped.append(f"{module_name}:{path}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(layer, raw))
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                skipped.append(f"{module_name}:{path}")
                continue
            wrapped = self.wrap(layer, original)
            # Rebind everywhere the function object was imported by name.
            for name, other in list(sys.modules.items()):
                if other is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
        return skipped
