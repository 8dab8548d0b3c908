"""Microbenchmarks of the performance kernel underneath the solver.

Three layers are measured separately so regressions localise:

* **lattice kernel** — raw ``join``/``meet``/``leq`` throughput on
  interned bitmask elements (the paper's fixed-lattice assumption is
  what makes these O(1));
* **condensation vs. reference** — the single-pass condensation
  pipeline (:func:`repro.qual.solver.solve`) against the provenance-
  tracking worklist oracle (:func:`repro.qual.solver.solve_reference`)
  on the graph shapes inference produces;
* **grown-system re-solve** — categorising and solving a large base
  system plus a small delta from scratch, the ``run_polyrec`` round
  pattern.

End-to-end measures (the Table 2 suite, a CI lint job, editor
turnaround) live in ``qbench/``; ``BENCH_solver.json`` keeps the
numbers recorded before it as frozen history.
"""

import pytest

from repro.qual.constraints import QualConstraint
from repro.qual.qtypes import fresh_qual_var
from repro.qual.qualifiers import const_lattice, paper_figure2_lattice
from repro.qual.solver import solve, solve_reference

from test_solver_bench import chain_system, cyclic_system, fanout_system


# ---------------------------------------------------------------------------
# Lattice kernel throughput
# ---------------------------------------------------------------------------


def test_bench_join_meet_throughput(benchmark):
    lattice = paper_figure2_lattice()
    elements = list(lattice.elements())
    pairs = [(a, b) for a in elements for b in elements]
    join, meet = lattice.join, lattice.meet

    def churn():
        acc = 0
        for a, b in pairs:
            acc += join(a, b).mask ^ meet(a, b).mask
        return acc

    result = benchmark(churn)
    assert result >= 0


def test_bench_leq_throughput(benchmark):
    lattice = paper_figure2_lattice()
    elements = list(lattice.elements())
    pairs = [(a, b) for a in elements for b in elements] * 4
    leq = lattice.leq

    def churn():
        return sum(1 for a, b in pairs if leq(a, b))

    count = benchmark(churn)
    assert count > 0


def test_join_returns_interned_not_allocated():
    """The kernel's point: joins resolve to existing interned elements."""
    lattice = paper_figure2_lattice()
    elements = list(lattice.elements())
    before = len(lattice._interned)
    for a in elements:
        for b in elements:
            lattice.join(a, b)
            lattice.meet(a, b)
    assert len(lattice._interned) == before


# ---------------------------------------------------------------------------
# Condensation vs. the reference worklist
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "shape,maker",
    [("chain", chain_system), ("fanout", fanout_system), ("cycle", cyclic_system)],
)
def test_bench_condensation(benchmark, shape, maker):
    lattice = const_lattice()
    _vars, constraints = maker(lattice, 5_000)
    solution = benchmark(solve, constraints, lattice)
    assert solution.stats is not None


@pytest.mark.parametrize(
    "shape,maker",
    [("chain", chain_system), ("fanout", fanout_system), ("cycle", cyclic_system)],
)
def test_bench_reference_worklist(benchmark, shape, maker):
    lattice = const_lattice()
    _vars, constraints = maker(lattice, 5_000)
    solution = benchmark(solve_reference, constraints, lattice)
    assert solution.stats is None  # the oracle does not report stats


def test_condensation_and_reference_agree_here():
    lattice = const_lattice()
    for maker in (chain_system, fanout_system, cyclic_system):
        variables, constraints = maker(lattice, 500)
        fast = solve(constraints, lattice)
        slow = solve_reference(constraints, lattice)
        for v in variables:
            assert fast.least_of(v) == slow.least_of(v)
            assert fast.greatest_of(v) == slow.greatest_of(v)


# ---------------------------------------------------------------------------
# Re-solving a grown system from scratch
# ---------------------------------------------------------------------------


def _grown_system(lattice, base_n=8_000, delta_n=200):
    _, base = chain_system(lattice, base_n)
    _, delta = chain_system(lattice, delta_n)
    return base, delta


def test_bench_scratch_resolve(benchmark):
    lattice = const_lattice()
    base, delta = _grown_system(lattice)
    combined = base + delta

    def round_trip():
        return solve(combined, lattice)

    solution = benchmark(round_trip)
    assert solution.stats.constraints == len(combined)
