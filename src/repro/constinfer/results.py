"""Result counting and report formatting for the Section 4.4 experiment.

For each benchmark the paper reports (Table 2): compile time, monomorphic
and polymorphic inference times, the number of declared interesting
consts, the counts inferred by each analysis (positions that must or may
be const — the paper's categories (1) + (3)), and the total number of
syntactically possible const positions.  Figure 6 presents the same data
as stacked percentages of the total:

    Declared | Mono-extra | Poly-extra | Other

This module computes one :class:`BenchmarkRow` per program from the two
engine runs and renders Table 1, Table 2, and a textual Figure 6.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfront.sema import Program
from ..qual.solver import SolverStats
from .engine import InferenceRun, StageTimings, run_mono, run_poly


@dataclass(frozen=True)
class BenchmarkRow:
    """One row of Table 2 (plus the Table 1 metadata)."""

    name: str
    lines: int
    description: str
    compile_seconds: float
    mono_seconds: float
    poly_seconds: float
    declared: int
    mono: int
    poly: int
    total_possible: int
    #: Pipeline shape of each engine's final solve (None for rows built
    #: before the condensation solver, e.g. hand-written fixtures).
    mono_stats: SolverStats | None = None
    poly_stats: SolverStats | None = None
    #: Per-stage wall-clock breakdown (parse/congen/solve/generalize) of
    #: each engine run; ``from_cache`` marks warm cache loads.
    mono_timings: StageTimings | None = None
    poly_timings: StageTimings | None = None

    # -- Figure 6 quantities -------------------------------------------
    @property
    def mono_extra(self) -> int:
        """Consts the monomorphic analysis finds beyond the declared ones."""
        return max(0, self.mono - self.declared)

    @property
    def poly_extra(self) -> int:
        """Consts polymorphic inference finds beyond monomorphic."""
        return max(0, self.poly - self.mono)

    @property
    def other(self) -> int:
        """Positions neither analysis can make const."""
        return max(0, self.total_possible - self.poly)

    def percentages(self) -> dict[str, float]:
        """The Figure 6 stacked percentages (sum to 100)."""
        total = max(1, self.total_possible)
        return {
            "declared": 100.0 * self.declared / total,
            "mono": 100.0 * self.mono_extra / total,
            "poly": 100.0 * self.poly_extra / total,
            "other": 100.0 * self.other / total,
        }

    @property
    def poly_over_mono_ratio(self) -> float:
        """How many more consts polymorphism finds, as a ratio."""
        return self.poly / self.mono if self.mono else float("inf")

    @property
    def poly_time_factor(self) -> float:
        """Poly time over mono time; the paper observes at most ~3x."""
        return (
            self.poly_seconds / self.mono_seconds
            if self.mono_seconds > 0
            else float("inf")
        )


def analyze_program(
    program: Program,
    name: str = "program",
    lines: int | None = None,
    description: str = "",
    compile_seconds: float = 0.0,
) -> BenchmarkRow:
    """Run both engines over a program and assemble its Table 2 row."""
    mono = run_mono(program)
    poly = run_poly(program)
    return make_row(
        name,
        lines if lines is not None else program.total_lines(),
        description,
        compile_seconds,
        mono,
        poly,
    )


def make_row(
    name: str,
    lines: int,
    description: str,
    compile_seconds: float,
    mono: InferenceRun,
    poly: InferenceRun,
) -> BenchmarkRow:
    if mono.total_positions() != poly.total_positions():
        raise ValueError(
            "mono and poly runs disagree on the number of interesting "
            f"positions: {mono.total_positions()} vs {poly.total_positions()}"
        )
    return BenchmarkRow(
        name=name,
        lines=lines,
        description=description,
        compile_seconds=compile_seconds,
        mono_seconds=mono.elapsed_seconds,
        poly_seconds=poly.elapsed_seconds,
        declared=mono.declared_count(),
        mono=mono.inferred_const_count(),
        poly=poly.inferred_const_count(),
        total_possible=mono.total_positions(),
        mono_stats=mono.solution.stats,
        poly_stats=poly.solution.stats,
        mono_timings=mono.timings,
        poly_timings=poly.timings,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def format_table1(rows: list[BenchmarkRow]) -> str:
    """Table 1: benchmark names, line counts, descriptions."""
    out = ["Name            Lines   Description"]
    for row in rows:
        out.append(f"{row.name:<15} {row.lines:>6}  {row.description}")
    return "\n".join(out)


def format_table2(rows: list[BenchmarkRow]) -> str:
    """Table 2: times and const counts, one line per benchmark."""
    header = (
        f"{'Name':<15} {'Compile(s)':>10} {'Mono(s)':>8} {'Poly(s)':>8} "
        f"{'Declared':>9} {'Mono':>6} {'Poly':>6} {'Total':>7}"
    )
    out = [header]
    for row in rows:
        out.append(
            f"{row.name:<15} {row.compile_seconds:>10.2f} {row.mono_seconds:>8.2f} "
            f"{row.poly_seconds:>8.2f} {row.declared:>9} {row.mono:>6} "
            f"{row.poly:>6} {row.total_possible:>7}"
        )
    return "\n".join(out)


def format_figure6(rows: list[BenchmarkRow], width: int = 50) -> str:
    """Figure 6 as horizontal stacked text bars.

    Legend: ``D`` declared, ``M`` extra consts from monomorphic inference,
    ``P`` extra consts from polymorphic inference, ``.`` other.
    """
    out = [
        "Figure 6: inferred consts as % of total possible",
        f"legend: D=declared  M=mono-extra  P=poly-extra  .=other  "
        f"(bar width = {width} chars = 100%)",
        "",
    ]
    for row in rows:
        pct = row.percentages()
        d = round(width * pct["declared"] / 100)
        m = round(width * pct["mono"] / 100)
        p = round(width * pct["poly"] / 100)
        rest = max(0, width - d - m - p)
        bar = "D" * d + "M" * m + "P" * p + "." * rest
        out.append(
            f"{row.name:<15} |{bar}| "
            f"D={pct['declared']:5.1f}% M={pct['mono']:5.1f}% "
            f"P={pct['poly']:5.1f}% other={pct['other']:5.1f}%"
        )
    return "\n".join(out)


def format_solver_stats(rows: list[BenchmarkRow]) -> str:
    """Per-benchmark solver pipeline shape (variables, SCC condensation,
    edge dedup, propagation steps) for the monomorphic solve — the
    engineering counterpart of Table 2's timing columns."""
    header = (
        f"{'Name':<15} {'Vars':>6} {'Cons':>6} {'SCCs':>6} "
        f"{'Cycles':>7} {'Edges':>11} {'Steps':>6}"
    )
    out = [header]
    for row in rows:
        stats = row.mono_stats
        if stats is None:
            out.append(f"{row.name:<15} (no solver stats recorded)")
            continue
        out.append(
            f"{row.name:<15} {stats.variables:>6} {stats.constraints:>6} "
            f"{stats.sccs:>6} {stats.collapsed_sccs:>7} "
            f"{f'{stats.edges_before}->{stats.edges_after}':>11} "
            f"{stats.propagation_steps:>6}"
        )
    return "\n".join(out)


def format_stage_timings(rows: list[BenchmarkRow]) -> str:
    """Per-benchmark stage breakdown of both engine runs, in
    milliseconds — parse, constraint generation, solve, and (poly only)
    generalisation.  A row's source is parsed once, so only the run
    that parsed it shows a parse time.  Cache-warm rows, which skipped
    parse and congen, are flagged ``cached``; their congen column is the
    time spent loading the cached constraint system."""
    header = (
        f"{'Name':<15} {'Engine':>6} {'Parse(ms)':>10} {'Congen(ms)':>11} "
        f"{'Solve(ms)':>10} {'Gen(ms)':>9}  Source"
    )
    out = [header]
    for row in rows:
        for engine, timings in (("mono", row.mono_timings), ("poly", row.poly_timings)):
            if timings is None:
                out.append(f"{row.name:<15} {engine:>6} (no stage timings recorded)")
                continue
            source = "cached" if timings.from_cache else "fresh"
            out.append(
                f"{row.name:<15} {engine:>6} {timings.parse_seconds * 1000:>10.1f} "
                f"{timings.congen_seconds * 1000:>11.1f} "
                f"{timings.solve_seconds * 1000:>10.1f} "
                f"{timings.generalize_seconds * 1000:>9.1f}  {source}"
            )
    return "\n".join(out)


def format_whole_report(result) -> str:
    """Report for one whole-program run
    (:class:`repro.whole.engine.WholeProgramRun`): link summary, call
    graph shape, the TU-group schedule, cache behaviour, and the const
    classification of the merged program."""
    linked = result.linked
    run = result.run
    stats = result.callgraph.stats()

    internal = linked.internal_symbols()
    out = [
        f"linked {len(linked.unit_names)} unit(s): {', '.join(linked.unit_names)}",
        f"  symbols: {len(linked.symbols)} "
        f"({len(internal)} internal, "
        f"{len(linked.symbols) - len(internal)} external)",
    ]
    for diag in linked.diagnostics:
        where = f"{diag.file}:{diag.line}" if diag.file else "<link>"
        out.append(f"  link error: {where}: {diag.message}")
    out.append(
        "call graph: "
        f"{stats['functions']} function(s), "
        f"{stats['occurrence_edges']} occurrence edge(s), "
        f"{stats['indirect_sites']} indirect site(s) resolving to "
        f"{stats['indirect_edges']} edge(s) "
        f"({stats['address_taken']} address-taken)"
    )
    out.append(
        "schedule: "
        + " | ".join("+".join(group) for group in result.schedule)
    )
    out.append(
        f"summaries: {result.summary_hits} cached, "
        f"{result.summary_misses} analysed"
    )
    timings = run.timings
    if timings is not None:
        out.append(
            f"timing: congen {timings.congen_seconds * 1000:.1f} ms, "
            f"generalize {timings.generalize_seconds * 1000:.1f} ms, "
            f"solve {timings.solve_seconds * 1000:.1f} ms"
        )
    out.append(
        f"consts: {run.declared_count()} declared, "
        f"{run.inferred_const_count()} inferred, "
        f"{run.total_positions()} possible "
        f"({run.constraint_count} constraint(s))"
    )
    return "\n".join(out)


def summarize_shape_claims(rows: list[BenchmarkRow]) -> dict[str, object]:
    """The qualitative claims of Section 4.4, evaluated over a row set.

    * every benchmark infers at least as many consts as declared;
    * polymorphic inference never finds fewer than monomorphic;
    * the paper reports polymorphism buys roughly 5–16% more consts.
    """
    assert rows, "no benchmark rows"
    poly_gains = [
        100.0 * (r.poly - r.mono) / r.mono for r in rows if r.mono > 0
    ]
    return {
        "all_mono_geq_declared": all(r.mono >= r.declared for r in rows),
        "all_poly_geq_mono": all(r.poly >= r.mono for r in rows),
        "poly_gain_percent_min": min(poly_gains) if poly_gains else 0.0,
        "poly_gain_percent_max": max(poly_gains) if poly_gains else 0.0,
        "max_poly_time_factor": max(r.poly_time_factor for r in rows),
    }
