"""Microbenchmarks of the flat-array solver core: ``solve`` forced onto
each kernel (constraint objects -> indexed edges and bound masks ->
condensation and both propagation passes -> mask-backed solution) over
the benchmark graph shapes."""

import pytest

from test_solver_bench import chain_system, cyclic_system, fanout_system

from repro.qual.flatcore import fast_available
from repro.qual.qualifiers import const_lattice
from repro.qual.solver import solve


@pytest.mark.parametrize("kernel", ["stdlib", "fast"])
@pytest.mark.parametrize(
    "shape", ["chain", "fanout", "dense_scc"], ids=["chain10k", "fanout10k", "scc5k"]
)
def test_bench_flat_kernel(benchmark, shape, kernel):
    """One solve of a 10k-variable chain or fan-out, or a 5k-node SCC."""
    if kernel == "fast" and not fast_available():
        pytest.skip("numpy/scipy kernel unavailable")
    lattice = const_lattice()
    maker = {
        "chain": lambda: chain_system(lattice, 10_000),
        "fanout": lambda: fanout_system(lattice, 10_000),
        "dense_scc": lambda: cyclic_system(lattice, 5_000),
    }[shape]
    variables, constraints = maker()
    solution = benchmark(solve, constraints, lattice, kernel=kernel)
    assert solution.least_of(variables[-1]).has("const")
