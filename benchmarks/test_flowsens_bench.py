"""Benchmarks for the flow-sensitive extension (Section 6 prototype).

The cost of flow-sensitivity is one qualifier variable per variable per
program point.  These benches measure how the analysis scales with
program length and loop nesting, and verify it stays effectively linear
— the property that makes the paper's sketch practical.
"""

import time

import pytest

from repro.flowsens import (
    Assign,
    AssertStmt,
    If,
    Join,
    Literal,
    VarRef,
    While,
    analyze_flow,
    block,
)
from repro.qual.qualifiers import taint_lattice

LATTICE = taint_lattice()


def straightline(n):
    """n assignments threading one tainted value through fresh names."""
    stmts = [Assign("x0", Literal(LATTICE.element("tainted")))]
    for i in range(1, n):
        stmts.append(Assign(f"x{i}", VarRef(f"x{i - 1}")))
    stmts.append(
        AssertStmt(f"x{n - 1}", LATTICE.element(), label="sink")
    )
    return block(*stmts)


def loopy(width, loops):
    stmts = [Assign("n", Literal(LATTICE.element()))]
    for i in range(width):
        stmts.append(Assign(f"v{i}", Literal(LATTICE.element())))
    for _ in range(loops):
        body = tuple(
            Assign(f"v{i}", Join(VarRef(f"v{i}"), VarRef(f"v{(i + 1) % width}")))
            for i in range(width)
        )
        stmts.append(While("n", body=body))
    return block(*stmts)


def branchy(depth):
    stmts = [
        Assign("flag", Literal(LATTICE.element())),
        Assign("x", Literal(LATTICE.element())),
    ]
    inner: tuple = (Assign("x", Literal(LATTICE.element("tainted"))),)
    for _ in range(depth):
        inner = (If("flag", then=inner, else_=()),)
    stmts.extend(inner)
    stmts.append(AssertStmt("x", LATTICE.element(), label="sink"))
    return block(*stmts)


@pytest.mark.parametrize("size", [100, 1000])
def test_bench_straightline(benchmark, size):
    program = straightline(size)
    result = benchmark(analyze_flow, program, LATTICE)
    assert not result.ok  # the taint survives the whole chain


def test_bench_loops(benchmark):
    program = loopy(width=8, loops=10)
    result = benchmark(analyze_flow, program, LATTICE)
    assert result.ok


def test_bench_nested_branches(benchmark):
    program = branchy(depth=30)
    result = benchmark(analyze_flow, program, LATTICE)
    assert not result.ok


def test_linear_scaling_shape():
    from conftest import quiet_gc

    def timed(n):
        program = straightline(n)
        best = float("inf")
        # quiet_gc: when the whole benchmark dir runs, the session
        # fixtures retain a large heap and collector pauses scale with
        # it — enough to make the bigger run look superlinear.
        with quiet_gc():
            for _ in range(3):
                start = time.perf_counter()
                analyze_flow(program, LATTICE)
                best = min(best, time.perf_counter() - start)
        return best

    small = timed(2_000)
    large = timed(4_000)
    assert large <= small * 3.5  # 2x the points, ~2x the time
