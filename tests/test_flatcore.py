"""The flat-array solver core: its two kernels and when it imports numpy.

Two promises are enforced here:

* **agreement** — the stdlib kernel and the numpy/scipy kernel produce
  the same per-variable extreme solutions, the same verdicts (including
  byte-identical unsat messages and blame), and the same
  :class:`SolverStats`, and both agree with ``solve_reference``, on
  hypothesis-generated systems, on the benchmark shapes, and (stdlib
  only) on lattices too wide for the fast kernel's int64 arrays;
* **import hygiene** — the entry modules and a run over ``examples/``
  never import numpy or scipy; the first solve at the size threshold
  does (unless ``REPRO_FLATCORE=stdlib``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.qual.flatcore as flatcore
from repro.qual.constraints import QualConstraint
from repro.qual.flatcore import fast_available, flat_solve
from repro.qual.lattice import QualifierLattice, negative, positive
from repro.qual.qtypes import QualVar
from repro.qual.qualifiers import const_lattice
from repro.qual.solver import (
    IndexedSystem,
    UnsatisfiableError,
    solve,
    solve_reference,
)

_LATTICES = [
    QualifierLattice([positive("const")]),
    QualifierLattice([negative("nonzero")]),
    QualifierLattice([positive("const"), negative("nonzero")]),
]

_VARS = [QualVar(f"v{i}", 20_000_000 + i) for i in range(5)]


@st.composite
def constraint_systems(draw):
    lattice = draw(st.sampled_from(_LATTICES))
    elements = list(lattice.elements())
    n = draw(st.integers(min_value=0, max_value=8))
    constraints = []
    for _ in range(n):
        side = draw(st.integers(min_value=0, max_value=2))
        if side == 0:
            lhs = draw(st.sampled_from(_VARS))
            rhs = draw(st.sampled_from(_VARS))
        elif side == 1:
            lhs = draw(st.sampled_from(elements))
            rhs = draw(st.sampled_from(_VARS))
        else:
            lhs = draw(st.sampled_from(_VARS))
            rhs = draw(st.sampled_from(elements))
        constraints.append(QualConstraint(lhs, rhs))
    return lattice, constraints


def verdict(solve_fn, constraints, lattice, extra_vars=(), **kwargs):
    """('sat', fingerprint, stats) or ('unsat', full message, explain())."""
    try:
        solution = solve_fn(constraints, lattice, extra_vars=extra_vars, **kwargs)
    except UnsatisfiableError as exc:
        return ("unsat", str(exc), exc.explain())
    fingerprint = {
        f"{v.name}#{v.uid}": (
            tuple(sorted(solution.least_of(v).present)),
            tuple(sorted(solution.greatest_of(v).present)),
        )
        for v in set(solution.least) | set(solution.greatest)
    }
    return ("sat", fingerprint, str(solution.stats) if solution.stats else None)


def kernels():
    """The flat-core kernels this install can run."""
    return ("stdlib", "fast") if fast_available() else ("stdlib",)


@given(constraint_systems())
@settings(max_examples=200, deadline=None)
def test_flat_solve_fingerprints_match_both_solvers(data):
    lattice, constraints = data
    flat = verdict(flat_solve, constraints, lattice, _VARS, kernel="stdlib")
    pipeline = verdict(solve, constraints, lattice, _VARS)
    assert flat == pipeline
    reference = verdict(solve_reference, constraints, lattice, _VARS)
    # solve_reference carries no stats; fingerprints and verdicts agree.
    assert flat[:2] == reference[:2]


@given(constraint_systems())
@settings(max_examples=100, deadline=None)
def test_stdlib_kernel_matches_fast_kernel(data):
    if not fast_available():
        pytest.skip("numpy/scipy kernel unavailable")
    lattice, constraints = data
    fast = verdict(flat_solve, constraints, lattice, _VARS, kernel="fast")
    slow = verdict(flat_solve, constraints, lattice, _VARS, kernel="stdlib")
    assert fast == slow


def big_system(lattice, n=2000):
    """Large enough to cross the solver's fast-path threshold: a chain
    with embedded cycles, a lower bound, and an upper bound."""
    variables = [QualVar(f"b{i}", 30_000_000 + i) for i in range(n)]
    constraints = [
        QualConstraint(variables[i], variables[i + 1]) for i in range(n - 1)
    ]
    for i in range(0, n - 10, 97):
        constraints.append(QualConstraint(variables[i + 5], variables[i]))
    constraints.append(QualConstraint(lattice.atom("const"), variables[0]))
    constraints.append(QualConstraint(variables[-1], lattice.atom("const")))
    return variables, constraints


class TestFastPathParity:
    """Both kernels and ``solve_reference`` on a system big enough for
    ``IndexedSystem.solve`` to pick the numpy kernel when it can."""

    def test_values_and_stats_identical(self):
        lattice = const_lattice()
        variables, constraints = big_system(lattice)
        assert len(variables) >= flatcore._FLAT_FAST_MIN
        production = solve(constraints, lattice)
        reference = solve_reference(constraints, lattice)
        for kernel in kernels():
            solution = flat_solve(constraints, lattice, kernel=kernel)
            assert type(solution).__name__ == "FlatSolution"
            for v in variables:
                assert solution.least_of(v) == reference.least_of(v)
                assert solution.greatest_of(v) == reference.greatest_of(v)
            assert str(solution.stats) == str(production.stats)
            assert solution.least == production.least == reference.least
            assert solution.greatest == production.greatest == reference.greatest

    def test_unsat_blame_identical(self):
        lattice = const_lattice()
        variables, constraints = big_system(lattice)
        constraints.append(QualConstraint(variables[0], lattice.element()))
        with pytest.raises(UnsatisfiableError) as reference:
            solve_reference(constraints, lattice)
        for kernel in kernels():
            with pytest.raises(UnsatisfiableError) as raised:
                flat_solve(constraints, lattice, kernel=kernel)
            assert str(raised.value) == str(reference.value)
            assert raised.value.explain() == reference.value.explain()


class TestWideLattice:
    """Lattices wider than 62 mask bits cannot live in int64 arrays;
    ``IndexedSystem.solve`` runs them on the stdlib kernel's Python ints."""

    lattice = QualifierLattice(
        [positive(f"p{i}") for i in range(40)] + [negative(f"n{i}") for i in range(30)]
    )

    def system(self):
        lattice = self.lattice
        variables = [QualVar(f"w{i}", 40_000_000 + i) for i in range(30)]
        constraints = [
            QualConstraint(variables[i], variables[i + 1]) for i in range(29)
        ]
        constraints.append(QualConstraint(variables[7], variables[3]))
        constraints.append(QualConstraint(lattice.element("p39", "p0"), variables[0]))
        constraints.append(QualConstraint(lattice.element("n29"), variables[5]))
        constraints.append(QualConstraint(variables[20], lattice.element("p39", "p0", "p5")))
        constraints.append(QualConstraint(variables[29], lattice.element("p39", "p0", "p7")))
        return variables, constraints

    def test_solves_through_indexed_system(self):
        assert not flatcore.fits_flat(self.lattice)
        variables, constraints = self.system()
        system = IndexedSystem(self.lattice)
        system.add_many(constraints)
        solution = system.solve()
        reference = solve_reference(constraints, self.lattice)
        assert solution.least == reference.least
        assert solution.greatest == reference.greatest
        assert solution.least_of(variables[29]).has(self.lattice.qualifier("p39"))
        for kernel in kernels():  # too wide for the fast kernel: stdlib either way
            assert verdict(flat_solve, constraints, self.lattice, kernel=kernel) == (
                verdict(solve, constraints, self.lattice)
            )

    def test_unsat_blame_matches_reference(self):
        variables, constraints = self.system()
        constraints.append(QualConstraint(variables[12], self.lattice.element("p0")))
        with pytest.raises(UnsatisfiableError) as raised:
            solve(constraints, self.lattice)
        with pytest.raises(UnsatisfiableError) as reference:
            solve_reference(constraints, self.lattice)
        assert str(raised.value) == str(reference.value)
        assert raised.value.explain() == reference.value.explain()


def test_solution_defaults_for_unknown_vars():
    lattice = const_lattice()
    solution = flat_solve([QualConstraint(_VARS[0], _VARS[1])], lattice)
    stranger = QualVar("stranger", 999_999_998)
    assert solution.least_of(stranger) == lattice.bottom
    assert solution.greatest_of(stranger) == lattice.top
    # Same uid but a different name is not the same variable.
    impostor = QualVar("impostor", _VARS[0].uid)
    assert solution.least_of(impostor) == lattice.bottom
    assert solution.greatest_of(impostor) == lattice.top


def test_fits_flat_rejects_oversized_lattices():
    lattice = QualifierLattice([positive(f"q{i}") for i in range(63)])
    assert not flatcore.fits_flat(lattice)
    assert flatcore.fits_flat(const_lattice())


def test_benchmark_shapes_agree_end_to_end():
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
    try:
        from test_solver_bench import chain_system, cyclic_system, fanout_system
    finally:
        sys.path.pop(0)

    lattice = const_lattice()
    for _, constraints in (
        chain_system(lattice, 1500),
        fanout_system(lattice, 1500),
        cyclic_system(lattice, 1500),
    ):
        production = verdict(solve, constraints, lattice)
        for kernel in kernels():
            assert verdict(flat_solve, constraints, lattice, kernel=kernel) == production
        reference = verdict(solve_reference, constraints, lattice)
        assert production[:2] == reference[:2]


# ---------------------------------------------------------------------------
# Import hygiene (each check in a fresh interpreter)
# ---------------------------------------------------------------------------

_ROOT = Path(__file__).resolve().parent.parent

_HYGIENE_SCRIPT = """
import contextlib, io, json, sys, tempfile
import repro.checker.cli, repro.serve.cli
from repro.checker.checks import ALL_CHECKS
checks = ",".join(c.name for c in ALL_CHECKS)
report = {"after_import": sorted(m for m in ("numpy", "scipy") if m in sys.modules)}
with tempfile.TemporaryDirectory() as cache, contextlib.redirect_stdout(io.StringIO()):
    for extra in ([], ["--whole-program"]):
        for _ in ("cold", "warm"):
            repro.checker.cli.main(
                ["examples", "--checks", checks, "--best-effort", "--format", "sarif",
                 "--cache-dir", cache] + extra
            )
report["after_examples"] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
from repro.qual import flatcore
from repro.qual.constraints import QualConstraint
from repro.qual.qtypes import QualVar
from repro.qual.qualifiers import const_lattice
from repro.qual.solver import solve
lattice = const_lattice()
chain = [QualVar(f"c{i}", 50_000_000 + i) for i in range(flatcore._FLAT_FAST_MIN)]
solve([QualConstraint(a, b) for a, b in zip(chain, chain[1:])], lattice)
report["fast"] = flatcore._FAST is not None
report["after_large_solve"] = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
print(json.dumps(report))
"""


def _run_hygiene(**env_overrides):
    env = dict(os.environ)
    env.pop("REPRO_FLATCORE", None)
    env.update(env_overrides)
    env["PYTHONPATH"] = str(_ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", _HYGIENE_SCRIPT],
        cwd=_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _numpy_importable() -> bool:
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    env.pop("REPRO_FLATCORE", None)
    probe = "from repro.qual.flatcore import fast_available; print(fast_available())"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    return done.stdout.strip() == "True"


def test_entry_imports_and_examples_stay_numpy_free():
    report = _run_hygiene()
    assert report["after_import"] == []
    assert report["after_examples"] == []
    if _numpy_importable():
        assert report["fast"] is True
        assert report["after_large_solve"] == ["numpy", "scipy"]
    else:
        assert report["fast"] is False
        assert report["after_large_solve"] == []


def test_stdlib_override_keeps_large_solves_numpy_free():
    report = _run_hygiene(REPRO_FLATCORE="stdlib")
    assert report["fast"] is False
    assert report["after_large_solve"] == []
