"""Tests for the condensation solver pipeline (indexing, SCC collapse,
stats) and its agreement with the reference worklist solver."""

import random

import pytest

from repro.qual.constraints import Origin, QualConstraint
from repro.qual.lattice import QualifierLattice
from repro.qual.qtypes import QualVar, fresh_qual_var
from repro.qual.solver import (
    IndexedSystem,
    UnsatisfiableError,
    _explain_path,
    check_ground,
    solve,
    solve_reference,
)


def c(lhs, rhs, reason="test"):
    return QualConstraint(lhs, rhs, Origin(reason))


def random_system(lattice, rng, n_vars=40, n_edges=80, n_bounds=12):
    """A random atomic system mixing chains, cycles, and constant bounds."""
    variables = [fresh_qual_var("r") for _ in range(n_vars)]
    elements = [
        lattice.bottom,
        lattice.top,
        *(lattice.atom(q.name) for q in lattice.qualifiers),
    ]
    constraints = []
    for _ in range(n_edges):
        u, v = rng.choice(variables), rng.choice(variables)
        constraints.append(c(u, v))
    for _ in range(n_bounds):
        v = rng.choice(variables)
        e = rng.choice(elements)
        if rng.random() < 0.5:
            constraints.append(c(e, v))
        else:
            constraints.append(c(v, e))
    return variables, constraints


class TestDifferentialAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_same_solutions_on_random_systems(self, fig2_lat, seed):
        rng = random.Random(seed)
        variables, constraints = random_system(fig2_lat, rng)
        try:
            expected = solve_reference(constraints, fig2_lat, extra_vars=variables)
        except UnsatisfiableError:
            with pytest.raises(UnsatisfiableError):
                solve(constraints, fig2_lat, extra_vars=variables)
            return
        actual = solve(constraints, fig2_lat, extra_vars=variables)
        for v in variables:
            assert actual.least_of(v) == expected.least_of(v)
            assert actual.greatest_of(v) == expected.greatest_of(v)

    @pytest.mark.parametrize("seed", range(8, 12))
    def test_dense_cyclic_systems(self, const_lat, seed):
        rng = random.Random(seed)
        variables, constraints = random_system(
            const_lat, rng, n_vars=12, n_edges=60, n_bounds=8
        )
        try:
            expected = solve_reference(constraints, const_lat, extra_vars=variables)
        except UnsatisfiableError:
            with pytest.raises(UnsatisfiableError):
                solve(constraints, const_lat, extra_vars=variables)
            return
        actual = solve(constraints, const_lat, extra_vars=variables)
        for v in variables:
            assert actual.least_of(v) == expected.least_of(v)
            assert actual.greatest_of(v) == expected.greatest_of(v)


class TestSolverStats:
    def test_chain_stats(self, const_lat):
        ks = [fresh_qual_var() for _ in range(5)]
        constraints = [c(const_lat.top, ks[0])]
        constraints += [c(a, b) for a, b in zip(ks, ks[1:])]
        # a parallel duplicate edge that dedup must fold away
        constraints.append(c(ks[0], ks[1], "duplicate"))
        sol = solve(constraints, const_lat)
        stats = sol.stats
        assert stats is not None
        assert stats.variables == 5
        assert stats.sccs == 5
        assert stats.collapsed_sccs == 0
        assert stats.edges_before == 5
        assert stats.edges_after == 4  # duplicate folded
        assert stats.dag_edges == 4
        assert stats.propagation_steps >= 4
        assert "5 vars" in stats.summary()

    def test_cycle_collapses_into_one_component(self, const_lat):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        sol = solve(
            [c(k1, k2), c(k2, k1), c(k2, k3), c(const_lat.top, k1)], const_lat
        )
        stats = sol.stats
        assert stats.sccs == 2
        assert stats.collapsed_sccs == 1
        assert stats.largest_scc == 2
        # every member of the cycle carries the forced bound
        assert sol.least_of(k1) == sol.least_of(k2) == const_lat.top

    def test_self_loop_is_dropped(self, const_lat):
        k = fresh_qual_var()
        sol = solve([c(k, k)], const_lat)
        assert sol.stats.edges_before == 1
        assert sol.stats.edges_after == 0


class TestExplainThroughCollapsedCycle:
    def test_blame_path_spans_the_cycle(self, const_lat):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        nc = const_lat.negate("const")
        constraints = [
            c(const_lat.top, k1, "source"),
            c(k1, k2, "into cycle"),
            c(k2, k1, "back edge"),
            c(k2, k3, "out of cycle"),
            c(k3, nc, "sink"),
        ]
        with pytest.raises(UnsatisfiableError) as exc_info:
            solve(constraints, const_lat)
        exc = exc_info.value
        assert exc.path, "expected a non-empty blame path"
        reasons = [step.origin.reason for step in exc.path]
        assert reasons[0] == "source"
        assert reasons[-1] == "sink"
        assert "source" in exc.explain() and "sink" in exc.explain()

    def test_unsat_inside_the_cycle_itself(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        nc = const_lat.negate("const")
        constraints = [
            c(const_lat.top, k1, "source"),
            c(k1, k2, "cycle a"),
            c(k2, k1, "cycle b"),
            c(k2, nc, "sink"),
        ]
        with pytest.raises(UnsatisfiableError) as exc_info:
            solve(constraints, const_lat)
        exc = exc_info.value
        assert exc.path
        assert exc.path[-1].origin.reason == "sink"


class TestExplainPathCyclicProvenance:
    """Direct unit tests of the ``if cursor in seen: break`` branches."""

    def test_lower_chain_cycle_terminates(self):
        a, b = QualVar("a", 1), QualVar("b", 2)
        ab, ba = c(a, b, "a->b"), c(b, a, "b->a")
        # provenance walks backwards: b came from a, a came from b — a loop
        lower_pred = {b: (a, ab), a: (b, ba)}
        path = _explain_path(b, lower_pred, {}, {}, {})
        assert path  # terminated rather than looping forever
        assert len(path) <= 2

    def test_upper_chain_cycle_terminates(self):
        a, b = QualVar("a", 1), QualVar("b", 2)
        ab, ba = c(a, b, "a->b"), c(b, a, "b->a")
        upper_pred = {a: (b, ab), b: (a, ba)}
        path = _explain_path(a, {}, upper_pred, {}, {})
        assert path
        assert len(path) <= 2

    def test_endpoint_origins_are_attached(self, const_lat):
        a, b = QualVar("a", 1), QualVar("b", 2)
        ab = c(a, b, "edge")
        lower_origin = c(const_lat.top, a, "low")
        upper_origin = c(b, const_lat.bottom, "high")
        path = _explain_path(
            b, {b: (a, ab)}, {}, {a: lower_origin}, {b: [upper_origin]}
        )
        assert [s.origin.reason for s in path] == ["low", "edge", "high"]


class TestWitnessFallback:
    def test_violated_upper_preferred_over_first_recorded(self, const_lat):
        """Regression: the witness must be the *violated* recorded upper
        bound, not merely the first recorded (possibly loose) one."""
        k = fresh_qual_var()
        nc = const_lat.negate("const")
        constraints = [
            c(k, const_lat.top, "loose bound"),  # recorded first, never violated
            c(const_lat.top, k, "forcing lower"),
            c(k, nc, "tight bound"),
        ]
        with pytest.raises(UnsatisfiableError) as exc_info:
            solve(constraints, const_lat)
        exc = exc_info.value
        assert exc.constraint.origin.reason == "tight bound"
        assert exc.path[-1].origin.reason == "tight bound"

    def test_no_path_unsat_still_carries_real_constraint(self, const_lat):
        k = fresh_qual_var()
        nc = const_lat.negate("const")
        constraints = [c(const_lat.top, k, "low"), c(k, nc, "high")]
        with pytest.raises(UnsatisfiableError) as exc_info:
            solve(constraints, const_lat)
        exc = exc_info.value
        assert exc.path
        assert exc.constraint.origin.reason != "derived bound"
        assert exc.explain()


class TestCheckGround:
    def test_rejects_wrong_assignment(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        constraints = [c(const_lat.top, k1, "low"), c(k1, k2, "edge")]
        violated = check_ground(
            constraints,
            const_lat,
            {k1: const_lat.top, k2: const_lat.bottom},
        )
        assert violated is not None
        assert violated.origin.reason == "edge"

    def test_accepts_solver_solution(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        constraints = [c(const_lat.top, k1), c(k1, k2)]
        sol = solve(constraints, const_lat)
        assert check_ground(constraints, const_lat, sol.least) is None
        assert check_ground(constraints, const_lat, sol.greatest) is None


class TestIndexedSystem:
    def test_add_extends_add_many(self, const_lat):
        ks = [fresh_qual_var() for _ in range(4)]
        system = IndexedSystem(const_lat)
        system.add_many([c(a, b) for a, b in zip(ks, ks[1:])])
        system.add(c(const_lat.top, ks[0]))
        sol = system.solve()
        assert sol.least_of(ks[-1]) == const_lat.top
        assert sol.stats.constraints == 4

    def test_extra_vars_appear_unconstrained(self, const_lat):
        lonely = fresh_qual_var()
        sol = solve([], const_lat, extra_vars=[lonely])
        assert sol.is_unconstrained(lonely)

    def test_ground_conflict_raised_at_solve(self, const_lat):
        bad = c(const_lat.top, const_lat.bottom, "ground")
        system = IndexedSystem(const_lat)
        system.add(bad)
        with pytest.raises(UnsatisfiableError) as exc_info:
            system.solve()
        assert exc_info.value.constraint is bad
