"""Monomorphic and polymorphic const-inference engines (Section 4.3–4.4).

Both engines share :class:`~repro.constinfer.analysis.ConstInference` for
constraint generation and differ only in how function signatures are
shared:

* **monomorphic** — every call site constrains the one shared signature,
  exactly C's type system;
* **polymorphic** — the function dependence graph's strongly connected
  components are traversed callees-first; each SCC is analysed
  monomorphically, then every member's signature is generalised over the
  qualifier variables created while analysing the SCC (Letv), so later
  call sites instantiate fresh copies (Var').  Global variable
  initialisers are analysed after the traversal, as the paper specifies.

The result carries the solved constraint system plus the classification
of every interesting const position, ready for the Section 4.4 counts.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..cfront.sema import Program
from ..qual.lattice import QualifierLattice
from ..qual.poly import generalize
from ..qual.qtypes import QualVar, qual_vars
from ..qual.solver import (
    Classification,
    IndexedSystem,
    Solution,
    UnsatisfiableError,
)
from .analysis import ConstInference, ConstPosition
from .fdg import FunctionDependenceGraph


class ConstInferenceError(Exception):
    """The program's const constraints are unsatisfiable — a write through
    a cell that must be const.  Correct C programs never trigger this."""


@dataclass(frozen=True)
class StageTimings:
    """Wall-clock breakdown of one inference run by pipeline stage.

    ``parse_seconds`` is recorded by whoever owns the source text (the
    benchmark suite, the CLI, or the analysis cache); the engines fill
    the rest.  ``from_cache`` marks a warm run served from the analysis
    cache: parse, constraint generation and the solve were all skipped,
    and ``congen_seconds`` holds the time spent reading the entry.
    """

    parse_seconds: float = 0.0
    congen_seconds: float = 0.0
    solve_seconds: float = 0.0
    generalize_seconds: float = 0.0
    from_cache: bool = False

    @property
    def total_seconds(self) -> float:
        return (
            self.parse_seconds
            + self.congen_seconds
            + self.solve_seconds
            + self.generalize_seconds
        )

    def summary(self) -> str:
        cached = " [cached]" if self.from_cache else ""
        return (
            f"parse {self.parse_seconds * 1000:.1f} ms, "
            f"congen {self.congen_seconds * 1000:.1f} ms, "
            f"solve {self.solve_seconds * 1000:.1f} ms, "
            f"generalize {self.generalize_seconds * 1000:.1f} ms{cached}"
        )


@dataclass
class InferenceRun:
    """Outcome of one engine run over a whole program."""

    mode: str  # "mono" or "poly"
    solution: Solution
    positions: list[ConstPosition]
    constraint_count: int
    elapsed_seconds: float
    inference: ConstInference | None = field(repr=False, default=None)
    timings: StageTimings | None = None

    def classify(self, position: ConstPosition) -> Classification:
        return self.solution.classify(position.var, "const")

    def classified_positions(
        self,
    ) -> list[tuple[ConstPosition, Classification]]:
        return [(p, self.classify(p)) for p in self.positions]

    # -- the Section 4.4 counts ----------------------------------------
    def declared_count(self) -> int:
        return sum(1 for p in self.positions if p.declared)

    def inferred_const_count(self) -> int:
        """Positions that must or may be const — the paper's (1) + (3),
        i.e. the Mono/Poly columns of Table 2."""
        return sum(
            1
            for p in self.positions
            if self.classify(p) is not Classification.MUST_NOT
        )

    def must_not_count(self) -> int:
        return sum(
            1 for p in self.positions if self.classify(p) is Classification.MUST_NOT
        )

    def either_count(self) -> int:
        return sum(
            1 for p in self.positions if self.classify(p) is Classification.EITHER
        )

    def total_positions(self) -> int:
        return len(self.positions)


@contextmanager
def _collector_paused():
    """Pause CPython's cyclic garbage collector for the block, then
    restore whatever state it was in.  Also usable as a decorator.

    An engine run's heap only grows while it runs, and it makes no
    reference cycles that grow with the program (``tests/test_collector.py``
    holds it to that), so collector passes over it find next to nothing
    to free.  Reference counting still frees acyclic garbage at once.
    The engines are serial, so nothing else runs while the collector is
    off.  This is the only place in ``src/`` that changes the
    collector's state (CI checks it).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_mono(
    program: Program,
    lattice: QualifierLattice | None = None,
    **inference_options,
) -> InferenceRun:
    """Monomorphic const inference over a whole program.

    ``inference_options`` are forwarded to
    :class:`~repro.constinfer.analysis.ConstInference` (the Section 4.2
    ablation switches).
    """
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    generate_mono(inference)
    return _solved_run("mono", inference, start)


@_collector_paused()
def run_poly(
    program: Program,
    lattice: QualifierLattice | None = None,
    **inference_options,
) -> InferenceRun:
    """Polymorphic const inference: per-SCC generalisation (Section 4.3),
    one callees-first traversal of the function dependence graph.

    ``inference_options`` are forwarded to
    :class:`~repro.constinfer.analysis.ConstInference`.
    """
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)

    generalize_seconds = 0.0
    graph = FunctionDependenceGraph.build(program)
    for component in graph.sccs():
        # Variables created from here on are local to this SCC and are
        # candidates for quantification; anything older is "free in the
        # environment" (globals, struct fields, library signatures,
        # previously generalised functions).  Shared cells were all
        # pre-created above, so nothing monomorphic is captured.
        generalize_seconds += _analyze_component(
            inference, component, _uid_boundary()
        )

    inference.analyze_global_initializers()
    return _solved_run("poly", inference, start, generalize_seconds)


def _solved_run(
    mode: str,
    inference: ConstInference,
    start: float,
    generalize_seconds: float = 0.0,
    from_cache: bool = False,
) -> InferenceRun:
    """Solve a finished generation pass and wrap it as an
    :class:`InferenceRun`; congen is the time since ``start`` less
    generalisation and the solve."""
    congen_done = time.perf_counter()
    solution = _solve(inference)
    end = time.perf_counter()
    timings = StageTimings(
        congen_seconds=congen_done - start - generalize_seconds,
        solve_seconds=end - congen_done,
        generalize_seconds=generalize_seconds,
        from_cache=from_cache,
    )
    return InferenceRun(
        mode,
        solution,
        inference.positions,
        len(inference.constraints),
        end - start,
        inference,
        timings,
    )


def _analyze_component(
    inference: ConstInference, component: list[str], boundary: int
) -> float:
    """Analyse one SCC of the function dependence graph and generalise
    its members (Letv): emit every member's signature, then every body,
    then quantify each signature over the variables created since
    ``boundary``.  Returns the seconds spent generalising."""
    functions = inference.program.functions
    mark = len(inference.constraints)
    for name in component:
        inference.signature_for(functions[name])
    for name in component:
        inference.analyze_function(functions[name])
    local = inference.constraints[mark:]
    gen_start = time.perf_counter()
    for name in component:
        inference.schemes[name] = _generalize_component_member(
            inference, name, local, boundary
        )
    return time.perf_counter() - gen_start


def _generalize_component_member(
    inference: ConstInference,
    name: str,
    local: list,
    boundary: int,
):
    """Generalise one SCC member's signature over the variables created
    while analysing the SCC (uid > ``boundary``); older variables are
    free in the environment and stay monomorphic."""
    sig = inference.signatures[name]
    body = sig.fun_qtype
    involved = qual_vars(body)
    for c in local:
        for q in (c.lhs, c.rhs):
            if isinstance(q, QualVar):
                involved.add(q)
    env_vars = {v for v in involved if v.uid < boundary}
    return generalize(
        body, local, env_vars, lattice=inference.lattice, compress=True
    )


@_collector_paused()
def run_polyrec(
    program: Program,
    lattice: QualifierLattice | None = None,
    max_iterations: int = 8,
    **inference_options,
) -> InferenceRun:
    """Polymorphic-*recursive* const inference (Section 4.3's preferred
    design: "we would prefer to use polymorphic recursion rather than
    let-style polymorphism to avoid working with the FDG").

    No function dependence graph is computed.  Instead, every call —
    including recursive and mutually recursive ones — instantiates the
    callee's scheme from the *previous* fixpoint iteration (initially
    the fully unconstrained scheme), and iteration repeats until every
    function's signature summary (the least/greatest solution of each
    signature qualifier position) stabilises.  Because the qualifier
    lattice is finite and qualifiers do not change the type structure,
    this is decidable and converges quickly, exactly as the paper
    observes; ``max_iterations`` is a safety cap.

    Shared monomorphic state (globals, struct fields, library
    signatures) is created once and survives all iterations; per-
    function state is rolled back between rounds.
    """
    start = time.perf_counter()
    inference = ConstInference(program, lattice, **inference_options)
    _create_shared_cells(inference)
    boundary = _uid_boundary()
    base_constraints = len(inference.constraints)
    library_sigs = dict(inference.signatures)
    solve_seconds = generalize_seconds = 0.0

    previous_summary: dict[str, tuple] | None = None
    assumptions: dict[str, "object"] = {}

    for _round in range(max_iterations):
        # roll back per-function state
        inference.constraints[base_constraints:] = []
        inference.positions.clear()
        inference.signatures = dict(library_sigs)
        inference.schemes = dict(assumptions)

        # NOTE: function_value prefers schemes, so every call to a
        # defined function instantiates its assumed scheme — recursion
        # included.  (On the first round there are no assumptions yet
        # and calls share the round's signatures, which only makes the
        # first summary more conservative, never unsound.)
        _generate_functions(inference)

        solve_start = time.perf_counter()
        solution = _solve(inference)
        summary = _signature_summary(inference, solution)
        gen_start = time.perf_counter()
        solve_seconds += gen_start - solve_start
        if summary == previous_summary:
            break
        previous_summary = summary

        # generalise fresh assumptions for the next round
        local = inference.constraints[base_constraints:]
        assumptions = {
            name: _generalize_component_member(inference, name, local, boundary)
            for name in program.functions
        }
        generalize_seconds += time.perf_counter() - gen_start
    else:
        solve_start = time.perf_counter()
        solution = _solve(inference)
        solve_seconds += time.perf_counter() - solve_start

    elapsed = time.perf_counter() - start
    timings = StageTimings(
        congen_seconds=elapsed - solve_seconds - generalize_seconds,
        solve_seconds=solve_seconds,
        generalize_seconds=generalize_seconds,
    )
    return InferenceRun(
        "polyrec",
        solution,
        inference.positions,
        len(inference.constraints),
        elapsed,
        inference,
        timings,
    )


def _signature_summary(inference: ConstInference, solution: Solution):
    """Per function, the (least, greatest) bounds of every qualifier
    position in its signature, in deterministic structural order — the
    fixpoint-comparison key for :func:`run_polyrec`."""
    from ..qual.qtypes import quals_of

    out: dict[str, tuple] = {}
    for name, sig in inference.signatures.items():
        bounds = []
        for qual in quals_of(sig.fun_qtype):
            if isinstance(qual, QualVar):
                bounds.append(
                    (solution.least_of(qual).present, solution.greatest_of(qual).present)
                )
            else:
                bounds.append((qual.present, qual.present))
        out[name] = tuple(bounds)
    return out


def generate_mono(inference: ConstInference) -> None:
    """The monomorphic generation pass: shared cells, then every
    signature (shared by every call site, prototypes included), every
    body and the global initialisers.  ``run_mono``, the checker and the
    suggester generate through here."""
    _create_shared_cells(inference)
    _generate_functions(inference)


def _generate_functions(inference: ConstInference) -> None:
    """Every signature, then every body, then the global initialisers
    (one :func:`run_polyrec` round, over already-created shared cells)."""
    functions = inference.program.functions.values()
    for fdef in functions:
        inference.signature_for(fdef)
    for fdef in functions:
        inference.analyze_function(fdef)
    inference.analyze_global_initializers()


def _create_shared_cells(inference: ConstInference) -> None:
    """Pre-create every monomorphic shared cell — globals, struct fields,
    and library-function signatures — so the polymorphic engine's
    uid-watermark never mistakes them for SCC-local variables."""
    program = inference.program
    for name in program.globals:
        inference.global_cell(name)
    for tag, struct in program.structs.items():
        for field_decl in struct.fields:
            inference.field_cell(tag, field_decl.name)
    for proto in program.prototypes.values():
        if proto.name not in program.functions:
            inference.prototype_signature(proto)


def _uid_boundary() -> int:
    """Current fresh-variable watermark: variables allocated after this
    call have strictly larger uids."""
    from ..qual.qtypes import fresh_qual_var

    return fresh_qual_var("boundary").uid


def _wrap_unsat(exc: UnsatisfiableError) -> ConstInferenceError:
    """Carry the solver's source-to-sink witness path into the message;
    the one-line summary alone names only the endpoints."""
    message = str(exc)
    if exc.path:
        message = f"{message}\n{exc.explain()}"
    return ConstInferenceError(message)


def _solve(inference: ConstInference) -> Solution:
    """Index the constraints, then the position variables, and solve."""
    try:
        return IndexedSystem(inference.lattice).solve(
            [p.var for p in inference.positions], inference.constraints
        )
    except UnsatisfiableError as exc:
        raise _wrap_unsat(exc) from exc

