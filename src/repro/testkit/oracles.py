"""The differential / metamorphic oracle matrix.

Every oracle compares two computations that the repo promises agree
exactly, and yields a :class:`Disagreement` when they do not:

Lambda programs (:func:`check_lambda`):

``solver``
    the production solver (:func:`repro.qual.solver.solve`, flat-core kernels)
    vs. the reference worklist solver (``solve_reference``) over the
    program's constraint system — per-variable least *and* greatest
    solutions, and the satisfiability verdict;
``flatcore``
    the numpy/scipy flat-core kernel vs. the stdlib kernel
    (:func:`repro.qual.flatcore.flat_solve` with ``kernel="fast"`` and
    ``kernel="stdlib"``) over the same system — same per-variable
    fingerprints, verdict, :class:`~repro.qual.solver.SolverStats` and
    unsat blame (runs on both the lambda and the C side; skipped when
    numpy/scipy are not installed, where ``solver`` still checks the
    stdlib kernel against ``solve_reference``);
``metamorphic-rename`` / ``metamorphic-deadlet``
    alpha-renaming all binders / inserting dead ``let`` bindings must
    not change the least qualified type or the verdict, in both the
    monomorphic and the (Letv)/(Var') polymorphic systems;
``subject-reduction``
    the paper's Theorem 1 as an executable oracle: every configuration
    along the Figure 5 reduction sequence re-typechecks (store typing
    per Definition 3) and the type's shape never moves.

C corpora (:func:`check_c_corpus`):

``solver``
    solve vs. solve_reference over ``run_poly``'s constraint system;
``cache``
    a cold :meth:`~repro.constinfer.cache.AnalysisCache.cached_run`
    vs. the warm rerun of the same source, and the solution the cold
    run recorded in its entry vs. a fresh solve of the stored system
    (values and :class:`~repro.qual.solver.SolverStats`);
``whole-concat``
    linking the corpus's units vs. analysing their textual
    concatenation (classification multiset, ``static`` names compared
    modulo the linker's ``@unit`` renaming);
``whole-cache``
    ``run_whole_poly`` cold into a fresh cache vs. the warm rerun —
    positions, classifications and variable uids must be bit-identical
    and the warm run must analyse no group (cached summaries re-link
    only because their uid bands are absolute);
``metamorphic-repartition``
    re-dealing modules onto a different TU partition must not move the
    whole-program classification multiset;
``checker``
    qlint over the linked program twice (independently linked) must
    render byte-identical SARIF, and the rule-id multiset must survive
    re-partitioning;
``resource``
    the flow-sensitive linearity pack over a seeded resource program
    (:func:`repro.testkit.cgen.generate_resource_program`): every
    planted double-free/use-after-free/leak is found (and nothing
    else), the finding multiset is invariant under alpha-renaming and
    dead-declaration insertion, and a cold vs. warm cached run renders
    byte-identical SARIF;
``resource-whole``
    the whole-program linearity pack over a seeded cross-TU ownership
    program (:func:`repro.testkit.cgen.generate_resource_xtu_program`):
    every planted cross-TU bug kind is found (and nothing else), each
    finding carries a multi-step flow path, the finding multiset is
    invariant under alpha-renaming and TU re-partitioning, and
    cold vs. warm cache and ``jobs=1`` vs. ``jobs=N`` process-pool runs
    render byte-identical SARIF;
``ingest``
    resilient ingestion is conservative: every *clean* unit pushed
    through the recovery path (:func:`repro.cfront.parse_c_resilient`)
    must report zero diagnostics and yield an AST repr-identical to the
    strict parser's, with byte-identical checker findings — and every
    *corrupted* unit (:func:`repro.testkit.cgen.corrupt` error seeding)
    must never crash the resilient front end or the best-effort checker.

Engines are injectable through :class:`EngineConfig` so the mutation
smoke test (and any future bug-seeding harness) can swap in a broken
solver and confirm the matrix catches it.
"""

from __future__ import annotations

import itertools
import tempfile
from dataclasses import dataclass
from typing import Callable

from ..cfront.sema import Program
from ..constinfer.cache import AnalysisCache, _decode_entry
from ..constinfer.engine import InferenceRun, run_poly
from ..lam.ast import Expr, walk
from ..lam.eval import Evaluator, Store, StuckError
from ..lam.infer import Inference, QualTypeError, QualifiedLanguage, infer
from ..qual import qtypes as _qtypes
from ..qual.flatcore import fast_available, flat_solve
from ..qual.qtypes import StdCon, StdType, StdVar, strip
from ..qual.solver import (
    Solution,
    UnsatisfiableError,
    solve,
    solve_reference,
)
from ..whole import link_sources, run_whole_poly
from .cgen import CCorpus
from .transforms import insert_dead_lets, rename_vars


@dataclass(frozen=True)
class Disagreement:
    """One oracle violation: which oracle fired and why."""

    oracle: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.detail}"


@dataclass
class EngineConfig:
    """The engines under test, injectable for mutation testing.

    ``solve_fn`` is the production pipeline each differential pairs
    against ``reference_fn``; ``run_poly_fn`` is the C engine whose
    constraint system the solver pairings check and the whole-program
    pairings compare against; ``jobs`` is the process-pool width of the
    ``resource-whole`` pairing.  ``oracles`` restricts which oracle
    families run (None = all); names match the module docstring.
    """

    solve_fn: Callable = solve
    reference_fn: Callable = solve_reference
    #: Solve with an explicit flat-core ``kernel=`` ("fast"/"stdlib");
    #: the ``flatcore`` oracle pits the two kernels against each other.
    flat_fn: Callable = flat_solve
    run_poly_fn: Callable = run_poly
    jobs: int = 2
    #: Evaluation budget for the subject-reduction oracle.
    fuel: int = 400
    #: Re-typecheck at most this many configurations per program.
    max_configs: int = 25
    oracles: frozenset[str] | None = None

    def enabled(self, name: str) -> bool:
        return self.oracles is None or name in self.oracles


# ---------------------------------------------------------------------------
# Shared fingerprint helpers
# ---------------------------------------------------------------------------


def _solution_fingerprint(solution: Solution) -> dict[str, tuple]:
    """Every variable's extreme solutions, keyed stably by (name, uid)."""
    out: dict[str, tuple] = {}
    for var in set(solution.least) | set(solution.greatest):
        out[f"{var.name}#{var.uid}"] = (
            tuple(sorted(solution.least_of(var).present)),
            tuple(sorted(solution.greatest_of(var).present)),
        )
    return out


def _solve_verdict(solve_fn: Callable, constraints, lattice, extra_vars=()):
    """('sat', fingerprint) or ('unsat', message head)."""
    try:
        solution = solve_fn(constraints, lattice, extra_vars=extra_vars)
    except UnsatisfiableError as exc:
        return ("unsat", str(exc).splitlines()[0])
    except Exception as exc:  # a crashing engine is its own disagreement
        return ("crash", f"{type(exc).__name__}: {exc}")
    return ("sat", _solution_fingerprint(solution))


def _kernel_verdict(flat_fn: Callable, kernel: str, constraints, lattice, extra_vars):
    """('sat', fingerprint, stats) or ('unsat', full blame) on one kernel."""
    try:
        solution = flat_fn(constraints, lattice, extra_vars=extra_vars, kernel=kernel)
    except UnsatisfiableError as exc:
        return ("unsat", exc.explain())
    except Exception as exc:  # a crashing kernel is its own disagreement
        return ("crash", f"{type(exc).__name__}: {exc}")
    return ("sat", _solution_fingerprint(solution), str(solution.stats))


def _diff_kernels(cfg: EngineConfig, constraints, lattice, extra_vars) -> Disagreement | None:
    """The ``flatcore`` oracle: numpy kernel vs stdlib kernel on one system
    (nothing to compare when numpy/scipy are not installed)."""
    if not fast_available():
        return None
    a = _kernel_verdict(cfg.flat_fn, "fast", constraints, lattice, extra_vars)
    b = _kernel_verdict(cfg.flat_fn, "stdlib", constraints, lattice, extra_vars)
    if (d := _diff_verdicts("flatcore", a, b)) is not None:
        return d
    if a != b:
        what = "stats" if a[0] == "sat" else "unsat blame"
        return Disagreement("flatcore", f"{what} differ: {a[-1]!r} vs {b[-1]!r}")
    return None


def _diff_verdicts(name: str, a, b) -> Disagreement | None:
    if a[0] != b[0]:
        return Disagreement(name, f"verdicts differ: {a[0]} vs {b[0]}")
    if a[0] == "sat" and a[1] != b[1]:
        keys = [k for k in set(a[1]) | set(b[1]) if a[1].get(k) != b[1].get(k)]
        sample = ", ".join(
            f"{k}: {a[1].get(k)} vs {b[1].get(k)}" for k in sorted(keys)[:3]
        )
        return Disagreement(name, f"{len(keys)} variable(s) differ: {sample}")
    return None


def _pinned(fn: Callable, /, *args, **kwargs):
    """Run ``fn`` with the fresh-uid counter pinned to a fixed base, so
    two engine runs over the same program number their variables
    identically and can be compared byte-for-byte."""
    saved = _qtypes._fresh_counter
    _qtypes._fresh_counter = itertools.count(1 << 40)
    try:
        return fn(*args, **kwargs)
    finally:
        _qtypes._fresh_counter = saved


def _run_fingerprint(run: InferenceRun, exact_vars: bool = True) -> tuple:
    """Positions + classifications (+ variable identities when the
    pairing promises bit-identical numbering)."""
    rows = []
    for p in run.positions:
        row = [p.function, p.where, p.depth, p.declared, run.classify(p).name]
        if exact_vars:
            row.append((p.var.name, p.var.uid))
        rows.append(tuple(row))
    return (tuple(rows), run.constraint_count)


def _diff_stored_solution(cache: AnalysisCache, source: str) -> Disagreement | None:
    """A cold poly entry's recorded solution (the engine's own solve)
    must equal a fresh solve of the stored system, stats included."""
    key = cache.key("constraints", source=source, mode="poly")
    try:
        system, _positions = _decode_entry(cache._path(key).read_bytes())
        stored, fresh = system.stored_solution(), system.solve()
        same = (stored.least, stored.greatest, stored.stats) == (
            fresh.least, fresh.greatest, fresh.stats
        )
    except Exception as exc:
        return Disagreement("cache", f"cold entry unreadable: {exc}")
    return None if same else Disagreement("cache", "recorded solution != fresh solve")


def _normalized_multiset(run: InferenceRun) -> list[tuple]:
    """Classification multiset with static names compared modulo the
    linker's ``name@unit`` alpha-renaming."""
    return sorted(
        (
            p.function.split("@")[0],
            p.where,
            p.depth,
            p.declared,
            run.classify(p).name,
        )
        for p in run.positions
    )


# ---------------------------------------------------------------------------
# Lambda oracles
# ---------------------------------------------------------------------------


def _lambda_observable(
    expr: Expr, language: QualifiedLanguage, polymorphic: bool
) -> tuple[str, str]:
    """('ok', least-type) or ('ill-typed', message head)."""
    try:
        result = infer(expr, language, polymorphic=polymorphic)
    except QualTypeError as exc:
        return ("ill-typed", str(exc).splitlines()[0])
    return ("ok", str(result.least_qtype()))


def _replace_locs(e: Expr, names: dict[int, str]) -> Expr:
    """Every ``Loc a`` becomes ``Var names[a]`` (structure preserved)."""
    from ..lam.ast import (
        Annot,
        App,
        Assert,
        Assign,
        Deref,
        If,
        IntLit,
        Lam,
        Let,
        Loc,
        Ref,
        UnitLit,
        Var,
    )

    def go(e: Expr) -> Expr:
        match e:
            case Loc(address=a):
                return Var(names[a], span=e.span)
            case Var() | IntLit() | UnitLit():
                return e
            case Lam(param=p, body=b):
                return Lam(p, go(b), span=e.span)
            case Let(name=n, bound=b, body=body):
                return Let(n, go(b), go(body), span=e.span)
            case App(func=f, arg=a):
                return App(go(f), go(a), span=e.span)
            case If(cond=c, then=t, other=o):
                return If(go(c), go(t), go(o), span=e.span)
            case Ref(init=i):
                return Ref(go(i), span=e.span)
            case Deref(ref=r):
                return Deref(go(r), span=e.span)
            case Assign(target=t, value=v):
                return Assign(go(t), go(v), span=e.span)
            case Annot(qual=q, expr=inner):
                return Annot(q, go(inner), span=e.span)
            case Assert(expr=inner, qual=q):
                return Assert(go(inner), q, span=e.span)
        raise TypeError(f"unknown expression {e!r}")  # pragma: no cover

    return go(e)


def _config_expr(e: Expr, store: Store) -> Expr:
    """The configuration ``<store, e>`` as one closed expression.

    Definition 3 asks for *some* store typing under which the
    configuration typechecks.  Rather than guessing one (a per-cell
    least typing is incomplete — a cell may need a higher qualifier to
    join with annotated refs downstream), encode the existential: bind
    every cell as ``let __cellN = ref vN`` and substitute ``__cellN``
    for ``Loc N``, so the solver picks the cell qualifiers.  Exact
    because generated programs only store base-typed values (cells never
    hold locations) and each monomorphic ``let`` gives all uses of a
    location one shared type — precisely a store typing.
    """
    from ..lam.ast import Let, Ref

    addresses = sorted(store.cells)
    names = {a: f"__cell{a}" for a in addresses}
    body = _replace_locs(e, names)
    for a in reversed(addresses):
        body = Let(names[a], Ref(_replace_locs(store.cells[a], names)), body)
    return body


def _shape_key(t: StdType) -> str:
    """The shape with type variables renamed positionally, so two infer
    calls (whose fresh variable names differ) compare equal exactly when
    the shapes are alpha-equivalent."""
    names: dict[str, str] = {}

    def go(t: StdType) -> str:
        if isinstance(t, StdVar):
            return names.setdefault(t.name, f"s{len(names)}")
        assert isinstance(t, StdCon)
        if not t.args:
            return t.con.name
        return f"{t.con.name}({','.join(go(a) for a in t.args)})"

    return go(t)


def _shape_instance_of(general: StdType, specific: StdType) -> bool:
    """One-way matching: is ``specific`` a substitution instance of
    ``general``?  Subject reduction promises the original program's type
    stays derivable at every step, and in the monomorphic system the
    derivable types are exactly the substitution instances of the
    principal one — so each step's principal shape must match onto the
    step-0 shape (reduction may *generalize*, e.g. taking an ``if``
    branch drops the constraint that equated both branches' shapes)."""
    binding: dict[str, StdType] = {}

    def go(g: StdType, s: StdType) -> bool:
        if isinstance(g, StdVar):
            seen = binding.setdefault(g.name, s)
            return seen == s
        if not isinstance(s, StdCon) or g.con is not s.con:
            return False
        return all(go(ga, sa) for ga, sa in zip(g.args, s.args))

    return go(general, specific)


def _subject_reduction(
    expr: Expr, language: QualifiedLanguage, fuel: int, max_configs: int
) -> Disagreement | None:
    """Walk the reduction sequence, re-typechecking configurations."""
    evaluator = Evaluator(language.lattice)
    shapes: list[StdType] = []
    store = Store()
    current: Expr | None = expr
    steps = 0
    try:
        while current is not None and steps < fuel:
            if steps < max_configs:
                try:
                    result = infer(_config_expr(current, store), language)
                except QualTypeError as exc:
                    return Disagreement(
                        "subject-reduction",
                        f"configuration at step {steps} became ill-typed "
                        f"(no store typing exists): {str(exc).splitlines()[0]}",
                    )
                shapes.append(strip(result.least_qtype()))
            current = evaluator.step(current, store)
            steps += 1
    except StuckError as exc:
        return Disagreement(
            "subject-reduction",
            f"well-typed program got stuck at step {steps}: "
            f"{str(exc).splitlines()[0]}",
        )
    if steps >= fuel:
        return None  # possible divergence; not an oracle failure
    if shapes:
        original = shapes[0]
        for k, shape in enumerate(shapes[1:], start=1):
            if not _shape_instance_of(shape, original):
                return Disagreement(
                    "subject-reduction",
                    f"step {k} no longer admits the original type shape: "
                    f"{_shape_key(original)} vs {_shape_key(shape)}",
                )
    return None


def check_lambda(
    expr: Expr,
    language: QualifiedLanguage,
    config: EngineConfig | None = None,
) -> list[Disagreement]:
    """Run every lambda-side oracle over one well-typed program."""
    cfg = config if config is not None else EngineConfig()
    out: list[Disagreement] = []

    inference: Inference | None
    try:
        inference = infer(expr, language)
    except QualTypeError:
        inference = None

    if cfg.enabled("solver") and inference is not None:
        mentioned = list(inference.solution.least)
        a = _solve_verdict(
            cfg.solve_fn, inference.constraints, language.lattice, mentioned
        )
        b = _solve_verdict(
            cfg.reference_fn, inference.constraints, language.lattice, mentioned
        )
        if (d := _diff_verdicts("solver", a, b)) is not None:
            out.append(d)

    if cfg.enabled("flatcore") and inference is not None:
        mentioned = list(inference.solution.least)
        d = _diff_kernels(cfg, inference.constraints, language.lattice, mentioned)
        if d is not None:
            out.append(d)

    for polymorphic in (False, True):
        mode = "poly" if polymorphic else "mono"
        base = _lambda_observable(expr, language, polymorphic)
        if cfg.enabled("metamorphic-rename"):
            renamed = _lambda_observable(
                rename_vars(expr, salt=1), language, polymorphic
            )
            if renamed != base:
                out.append(
                    Disagreement(
                        "metamorphic-rename",
                        f"[{mode}] {base} became {renamed} under alpha-renaming",
                    )
                )
        if cfg.enabled("metamorphic-deadlet"):
            deadened = _lambda_observable(
                insert_dead_lets(expr, seed=2), language, polymorphic
            )
            if deadened != base:
                out.append(
                    Disagreement(
                        "metamorphic-deadlet",
                        f"[{mode}] {base} became {deadened} under dead-let insertion",
                    )
                )

    if cfg.enabled("subject-reduction") and inference is not None:
        if (d := _subject_reduction(expr, language, cfg.fuel, cfg.max_configs)) is not None:
            out.append(d)

    return out


# ---------------------------------------------------------------------------
# C oracles
# ---------------------------------------------------------------------------


def check_c_corpus(
    corpus: CCorpus, config: EngineConfig | None = None
) -> list[Disagreement]:
    """Run every C-side oracle over one generated multi-TU corpus."""
    cfg = config if config is not None else EngineConfig()
    out: list[Disagreement] = []
    sources = corpus.sources()
    concat = corpus.concat_source()

    try:
        program = Program.from_source(concat, filename="concat.c")
    except Exception as exc:
        return [
            Disagreement(
                "engine-crash", f"concatenated corpus failed to parse: {exc}"
            )
        ]

    baseline: InferenceRun | None = None
    try:
        baseline = _pinned(cfg.run_poly_fn, program)
    except Exception as exc:
        out.append(Disagreement("engine-crash", f"run_poly: {exc}"))

    if cfg.enabled("solver") and baseline is not None:
        constraints = baseline.inference.constraints
        extra = [p.var for p in baseline.positions]
        a = _solve_verdict(
            cfg.solve_fn, constraints, baseline.solution.lattice, extra
        )
        b = _solve_verdict(
            cfg.reference_fn, constraints, baseline.solution.lattice, extra
        )
        if (d := _diff_verdicts("solver", a, b)) is not None:
            out.append(d)

    if cfg.enabled("flatcore") and baseline is not None:
        extra = [p.var for p in baseline.positions]
        d = _diff_kernels(
            cfg, baseline.inference.constraints, baseline.solution.lattice, extra
        )
        if d is not None:
            out.append(d)

    if cfg.enabled("cache"):
        with tempfile.TemporaryDirectory(prefix="testkit-cache-") as tmp:
            cache = AnalysisCache(tmp)
            try:
                cold = cache.cached_run(concat, "concat.c", "poly")
                warm = cache.cached_run(concat, "concat.c", "poly")
            except Exception as exc:
                out.append(Disagreement("cache", f"cached_run crashed: {exc}"))
            else:
                if not (warm.timings and warm.timings.from_cache):
                    out.append(
                        Disagreement("cache", "second run did not hit the cache")
                    )
                if _run_fingerprint(cold, exact_vars=False) != _run_fingerprint(
                    warm, exact_vars=False
                ):
                    out.append(
                        Disagreement("cache", "cold and warm runs classify differently")
                    )
                if baseline is not None and _normalized_multiset(
                    cold
                ) != _normalized_multiset(baseline):
                    out.append(
                        Disagreement("cache", "cold cached run differs from direct run")
                    )
                if (d := _diff_stored_solution(cache, concat)) is not None:
                    out.append(d)

    whole = None
    if any(
        cfg.enabled(name)
        for name in ("whole-concat", "metamorphic-repartition", "checker")
    ):
        try:
            whole = _pinned(run_whole_poly, link_sources(sources))
        except Exception as exc:
            out.append(Disagreement("engine-crash", f"run_whole_poly: {exc}"))

    if cfg.enabled("whole-concat") and whole is not None and baseline is not None:
        if _normalized_multiset(whole.run) != _normalized_multiset(baseline):
            out.append(
                Disagreement(
                    "whole-concat",
                    "linked program and textual concatenation classify differently",
                )
            )

    if cfg.enabled("whole-cache"):
        with tempfile.TemporaryDirectory(prefix="testkit-whole-cache-") as tmp:
            cache = AnalysisCache(tmp)
            try:
                cold = _pinned(run_whole_poly, link_sources(sources), cache=cache)
                warm = _pinned(run_whole_poly, link_sources(sources), cache=cache)
            except Exception as exc:
                out.append(Disagreement("whole-cache", f"cached run crashed: {exc}"))
            else:
                if warm.summary_misses:
                    out.append(
                        Disagreement(
                            "whole-cache",
                            f"warm run re-analysed {warm.summary_misses} group(s)",
                        )
                    )
                if _run_fingerprint(cold.run) != _run_fingerprint(warm.run):
                    out.append(
                        Disagreement(
                            "whole-cache", "cold and warm whole-program runs differ"
                        )
                    )

    repartitioned = corpus.repartitioned(corpus.seed + 0x5EED)
    if cfg.enabled("metamorphic-repartition") and whole is not None:
        try:
            whole_rp = run_whole_poly(link_sources(repartitioned.sources()))
        except Exception as exc:
            out.append(
                Disagreement("metamorphic-repartition", f"repartitioned run crashed: {exc}")
            )
        else:
            if _normalized_multiset(whole_rp.run) != _normalized_multiset(whole.run):
                out.append(
                    Disagreement(
                        "metamorphic-repartition",
                        "classification multiset moved under TU re-partitioning",
                    )
                )

    if cfg.enabled("checker"):
        out.extend(_checker_oracle(sources, repartitioned))

    if cfg.enabled("ingest"):
        out.extend(_ingest_oracle(sources, corpus.seed))

    if cfg.enabled("resource"):
        out.extend(check_resource_program(corpus.seed))

    if cfg.enabled("resource-whole"):
        out.extend(check_resource_xtu(corpus.seed, jobs=cfg.jobs))

    return out


def _checker_oracle(
    sources: dict[str, str], repartitioned: CCorpus
) -> list[Disagreement]:
    """SARIF byte-stability across independent runs, and rule-multiset
    stability under re-partitioning."""
    from ..checker.engine import check_linked_program
    from ..checker.render import render_sarif

    out: list[Disagreement] = []
    try:
        first = check_linked_program(link_sources(sources))
        second = check_linked_program(link_sources(sources))
    except Exception as exc:
        return [Disagreement("checker", f"check_linked_program crashed: {exc}")]

    if render_sarif(first) != render_sarif(second):
        out.append(
            Disagreement("checker", "two identical runs rendered different SARIF")
        )

    try:
        moved = check_linked_program(link_sources(repartitioned.sources()))
    except Exception as exc:
        return out + [Disagreement("checker", f"repartitioned check crashed: {exc}")]
    if sorted(d.check for d in first) != sorted(d.check for d in moved):
        out.append(
            Disagreement(
                "checker",
                "rule-id multiset moved under TU re-partitioning: "
                f"{sorted(d.check for d in first)} vs "
                f"{sorted(d.check for d in moved)}",
            )
        )
    return out


def _ingest_oracle(sources: dict[str, str], seed: int) -> list[Disagreement]:
    """Recovery conservatism: clean units through the resilient path are
    indistinguishable from the strict path; corrupted units never crash."""
    from ..cfront.cparser import parse_c, parse_c_resilient
    from ..checker.engine import check_source, check_source_resilient
    from .cgen import corrupt

    out: list[Disagreement] = []
    for name in sorted(sources):
        text = sources[name]

        # Clean unit: recovery must be invisible.
        try:
            strict_unit = parse_c(text, name)
        except Exception:
            continue  # a corpus bug, not an ingestion disagreement
        result = parse_c_resilient(text, name)
        if result.diagnostics:
            out.append(
                Disagreement(
                    "ingest",
                    f"{name}: clean unit produced {len(result.diagnostics)} "
                    f"diagnostic(s) through recovery: {result.diagnostics[0]}",
                )
            )
        elif repr(result.unit) != repr(strict_unit):
            out.append(
                Disagreement(
                    "ingest",
                    f"{name}: recovery path AST differs from strict parse",
                )
            )
        try:
            strict_findings = [d.to_dict() for d in check_source(text, name)]
        except Exception:
            strict_findings = None
        if strict_findings is not None:
            resilient_findings, status, _functions = check_source_resilient(
                text, name
            )
            if status != "ok":
                out.append(
                    Disagreement(
                        "ingest", f"{name}: clean unit got status {status!r}"
                    )
                )
            if [d.to_dict() for d in resilient_findings] != strict_findings:
                out.append(
                    Disagreement(
                        "ingest",
                        f"{name}: best-effort findings differ from strict "
                        f"findings on a clean unit",
                    )
                )

        # Corrupted unit: the resilient path must hold whatever we feed it.
        for salt in range(3):
            broken = corrupt(text, seed + salt, n_errors=1 + salt)
            try:
                parse_c_resilient(broken, name)
                check_source_resilient(broken, name)
            except Exception as exc:
                out.append(
                    Disagreement(
                        "ingest",
                        f"{name}: corrupted unit (seed {seed + salt}) crashed "
                        f"the resilient path: {type(exc).__name__}: {exc}",
                    )
                )
    return out


def check_resource_program(seed: int) -> list[Disagreement]:
    """The linearity-pack oracle over one seeded resource program
    (:func:`repro.testkit.cgen.generate_resource_program`):

    * every planted bug kind is found and nothing else is (the clean
      control functions add no findings), each finding carrying a
      multi-step flow path;
    * **metamorphic-rename** — alpha-renaming every local must not move
      the finding multiset (kind, line, flow length);
    * **metamorphic-deadlet** — inserting dead scalar declarations must
      not change the (kind, flow length) multiset;
    * **cache** — a cold and a warm cached run over the same file must
      render byte-identical SARIF.
    """
    from ..checker.checks import ALL_CHECKS, FLOW_PACK_CHECKS
    from ..checker.engine import check_source_resilient
    from ..checker.render import render_report
    from ..checker.runner import analyze as run_analysis
    from .cgen import generate_resource_program

    out: list[Disagreement] = []
    pack_names = {c.name for c in FLOW_PACK_CHECKS}

    def pack_findings(source: str) -> list | None:
        try:
            diags, status, _functions = check_source_resilient(
                source, "resource.c", checks=ALL_CHECKS
            )
        except Exception as exc:
            out.append(
                Disagreement("resource", f"resilient check crashed: {exc}")
            )
            return None
        if status != "ok":
            out.append(
                Disagreement(
                    "resource", f"generated program got status {status!r}"
                )
            )
        return [d for d in diags if d.check in pack_names]

    base = generate_resource_program(seed)
    found = pack_findings(base.source)
    if found is None:
        return out
    kinds = {d.check for d in found}
    if kinds != set(base.expected):
        out.append(
            Disagreement(
                "resource",
                f"seed {seed}: planted {sorted(base.expected)} but the "
                f"pack reported {sorted(kinds)}",
            )
        )
    for d in found:
        if len(d.flow) < 2:
            out.append(
                Disagreement(
                    "resource",
                    f"seed {seed}: {d.check} at line {d.span.line} lacks a "
                    f"multi-step flow path",
                )
            )

    def signature(diags: list, with_lines: bool) -> list[tuple]:
        return sorted(
            (d.check, len(d.flow)) + ((d.span.line,) if with_lines else ())
            for d in diags
        )

    renamed = pack_findings(generate_resource_program(seed, rename_salt=3).source)
    if renamed is not None and signature(found, True) != signature(renamed, True):
        out.append(
            Disagreement(
                "resource",
                f"seed {seed}: findings moved under alpha-renaming: "
                f"{signature(found, True)} vs {signature(renamed, True)}",
            )
        )

    dead = pack_findings(generate_resource_program(seed, dead_decls=True).source)
    if dead is not None and signature(found, False) != signature(dead, False):
        out.append(
            Disagreement(
                "resource",
                f"seed {seed}: findings moved under dead declarations: "
                f"{signature(found, False)} vs {signature(dead, False)}",
            )
        )

    check_names = tuple(c.name for c in ALL_CHECKS)
    with tempfile.TemporaryDirectory(prefix="testkit-flowsens-") as tmp:
        from pathlib import Path

        path = Path(tmp) / "resource.c"
        path.write_text(base.source, encoding="utf-8")
        cache_dir = Path(tmp) / "cache"
        try:
            cold = run_analysis([path], checks=check_names, cache_dir=cache_dir)
            warm = run_analysis([path], checks=check_names, cache_dir=cache_dir)
        except Exception as exc:
            out.append(Disagreement("resource", f"cached runs crashed: {exc}"))
        else:
            if warm.cache_hits < 1:
                out.append(
                    Disagreement("resource", "warm run did not hit the cache")
                )
            if render_report(cold, format="sarif") != render_report(
                warm, format="sarif"
            ):
                out.append(
                    Disagreement(
                        "resource",
                        "cold and warm cached runs rendered different SARIF",
                    )
                )
    return out


def check_resource_xtu(seed: int, jobs: int = 2) -> list[Disagreement]:
    """The whole-program linearity-pack oracle over one seeded cross-TU
    ownership program
    (:func:`repro.testkit.cgen.generate_resource_xtu_program`):

    * every planted cross-TU bug kind is found and nothing else is
      (the clean transfer and the function-pointer dispatch add no
      findings), each finding carrying a multi-step flow path;
    * **metamorphic-rename** — alpha-renaming every local must not move
      the (kind, flow length) multiset;
    * **metamorphic-repartition** — re-dealing the functions onto a
      different unit assignment must not move the (kind, message,
      flow length) multiset;
    * **cache / jobs** — cold vs. warm cached runs and ``jobs=1`` vs.
      ``jobs=N`` process-pool runs over the same tree must render
      byte-identical SARIF.
    """
    from pathlib import Path

    from ..checker.checks import ALL_CHECKS, FLOW_PACK_CHECKS
    from ..checker.render import render_report
    from ..checker.runner import analyze as run_analysis
    from .cgen import generate_resource_xtu_program

    out: list[Disagreement] = []
    pack_names = {c.name for c in FLOW_PACK_CHECKS}
    check_names = tuple(c.name for c in ALL_CHECKS)

    def run_whole(prog, tmp: str, jobs: int = 1, cache_dir=None):
        root = Path(tmp)
        for name, text in prog.units.items():
            (root / name).write_text(text, encoding="utf-8")
        return run_analysis(
            [root],
            checks=check_names,
            whole_program=True,
            jobs=jobs,
            cache_dir=cache_dir,
        )

    def pack_findings(prog, label: str) -> list | None:
        try:
            with tempfile.TemporaryDirectory(prefix="testkit-xtu-") as tmp:
                report = run_whole(prog, tmp)
        except Exception as exc:
            out.append(
                Disagreement("resource-whole", f"{label} run crashed: {exc}")
            )
            return None
        if report.errors:
            out.append(
                Disagreement(
                    "resource-whole",
                    f"{label} run reported errors: {report.errors}",
                )
            )
        return [d for d in report.diagnostics if d.check in pack_names]

    base = generate_resource_xtu_program(seed)
    found = pack_findings(base, "base")
    if found is None:
        return out
    kinds = {d.check for d in found}
    if kinds != set(base.expected):
        out.append(
            Disagreement(
                "resource-whole",
                f"seed {seed}: planted {sorted(base.expected)} but the "
                f"whole-program pack reported {sorted(kinds)}",
            )
        )
    for d in found:
        if len(d.flow) < 2:
            out.append(
                Disagreement(
                    "resource-whole",
                    f"seed {seed}: {d.check} at line {d.span.line} lacks a "
                    f"multi-step flow path",
                )
            )

    def signature(diags: list, with_message: bool) -> list[tuple]:
        return sorted(
            (d.check, len(d.flow)) + ((d.message,) if with_message else ())
            for d in diags
        )

    renamed = pack_findings(
        generate_resource_xtu_program(seed, rename_salt=3), "renamed"
    )
    if renamed is not None and signature(found, False) != signature(renamed, False):
        out.append(
            Disagreement(
                "resource-whole",
                f"seed {seed}: findings moved under alpha-renaming: "
                f"{signature(found, False)} vs {signature(renamed, False)}",
            )
        )

    moved = pack_findings(base.repartitioned(seed + 0x5EED), "repartitioned")
    if moved is not None and signature(found, True) != signature(moved, True):
        out.append(
            Disagreement(
                "resource-whole",
                f"seed {seed}: findings moved under TU re-partitioning: "
                f"{signature(found, True)} vs {signature(moved, True)}",
            )
        )

    try:
        with tempfile.TemporaryDirectory(prefix="testkit-xtu-") as tmp:
            from pathlib import Path as _Path

            cache_dir = _Path(tmp) / "cache"
            cold = run_whole(base, tmp, cache_dir=cache_dir)
            warm = run_whole(base, tmp, cache_dir=cache_dir)
            wide = run_whole(base, tmp, jobs=max(2, jobs))
            narrow = run_whole(base, tmp, jobs=1)
    except Exception as exc:
        out.append(
            Disagreement("resource-whole", f"replay runs crashed: {exc}")
        )
        return out
    if render_report(cold, format="sarif") != render_report(warm, format="sarif"):
        out.append(
            Disagreement(
                "resource-whole",
                "cold and warm cached whole-program runs rendered different SARIF",
            )
        )
    if render_report(narrow, format="sarif") != render_report(wide, format="sarif"):
        out.append(
            Disagreement(
                "resource-whole",
                f"whole-program SARIF differs between jobs=1 and jobs={max(2, jobs)}",
            )
        )
    return out


#: Every oracle family, for CLI validation and reporting.
ALL_ORACLES: tuple[str, ...] = (
    "solver",
    "flatcore",
    "cache",
    "whole-concat",
    "whole-cache",
    "metamorphic-rename",
    "metamorphic-deadlet",
    "metamorphic-repartition",
    "subject-reduction",
    "checker",
    "ingest",
    "resource",
    "resource-whole",
)


def lambda_program_size(expr: Expr) -> int:
    """AST node count (the reducer's minimality metric)."""
    return sum(1 for _ in walk(expr))
