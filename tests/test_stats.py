"""Constraint-system shape as production reports it (the linearity
evidence): each check reads the ``SolverStats`` of a run's solution or
the run's own counts."""

import pytest

from repro.cfront.sema import Program
from repro.constinfer.engine import run_mono, run_poly, run_polyrec
from repro.constinfer.results import analyze_program, format_solver_stats
from repro.qual.solver import Classification
from repro.whole.engine import run_whole_poly
from repro.whole.linker import link_sources

SOURCE = """
int reader(const int *p) { return *p; }
void writer(int *q) { *q = 1; }
int relay(int *r) { return reader(r); }
"""

TWO_UNITS = {
    "a.c": "int reader(const int *p) { return *p; }\nvoid writer(int *q) { *q = 1; }\n",
    "b.c": "int reader(const int *p);\nint relay(int *r) { return reader(r); }\n",
}


def _assert_breakdown_adds_up(run):
    stats = run.solution.stats
    assert (
        stats.edges_before + stats.constant_bounds + stats.ground_checks
        == stats.constraints
        == run.constraint_count
    )


def test_breakdown_adds_up():
    _assert_breakdown_adds_up(run_mono(Program.from_source(SOURCE)))


@pytest.mark.parametrize(
    "engine",
    [
        lambda: run_poly(Program.from_source(SOURCE)),
        lambda: run_polyrec(Program.from_source(SOURCE)),
        lambda: run_whole_poly(link_sources(TWO_UNITS)).run,
    ],
    ids=["poly", "polyrec", "whole-poly"],
)
def test_breakdown_adds_up_on_every_engine(engine):
    _assert_breakdown_adds_up(engine())


def test_classification_tallies():
    run = run_mono(Program.from_source(SOURCE))
    tallies = {verdict: 0 for verdict in Classification}
    for _position, verdict in run.classified_positions():
        tallies[verdict] += 1
    must, must_not, either = (
        tallies[Classification.MUST],
        tallies[Classification.MUST_NOT],
        tallies[Classification.EITHER],
    )
    assert run.total_positions() == must + must_not + either == 3
    assert must == 1  # reader's declared const
    assert must_not == run.must_not_count() == 1  # writer's param
    assert either == run.either_count()
    assert run.inferred_const_count() == must + either


def test_const_bounds_counted():
    def bounds(source):
        return run_mono(Program.from_source(source)).solution.stats.constant_bounds

    plain = bounds("int reader(int *p) { return *p; }")
    assert bounds("int reader(const int *p) { return *p; }") > plain  # declared const
    assert bounds("int writer(int *p) { *p = 1; return *p; }") > plain  # the write


def test_per_line_density():
    lines = SOURCE.count("\n") + 1
    run = run_mono(Program.from_source(SOURCE))
    assert run.solution.stats.constraints / lines > 0


def test_poly_has_more_constraints_than_mono():
    program = Program.from_source(SOURCE)
    mono = run_mono(program).solution.stats
    poly = run_poly(program).solution.stats
    assert poly.constraints >= mono.constraints


def test_density_roughly_constant_across_sizes():
    """Constraints per line must not grow with program size: the linear
    claim, checked on two generated programs 8x apart."""
    from repro.benchsuite.generator import PositionMix, generate_benchmark

    densities = []
    for scale in (1, 8):
        mix = PositionMix(5 * scale, 5 * scale, 3 * scale, 5 * scale)
        source = generate_benchmark(f"d{scale}", 3, mix, 0)
        lines = source.count("\n") + 1
        run = run_mono(Program.from_source(source))
        densities.append(run.solution.stats.constraints / lines)
    assert densities[1] <= densities[0] * 1.5


def test_summary_and_table_render():
    row = analyze_program(Program.from_source(SOURCE), "tiny", lines=5)
    text = row.mono_stats.summary()
    assert f"{row.mono_stats.constraints} constraints" in text and "SCCs" in text
    table = format_solver_stats([row])
    assert "tiny" in table and "Cons" in table
