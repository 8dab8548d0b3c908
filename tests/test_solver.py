"""Unit tests for the atomic qualifier-constraint solver (Section 3.1)."""

import pytest

from repro.qual.constraints import Origin, QualConstraint
from repro.qual.qtypes import fresh_qual_var
from repro.qual.qualifiers import const_lattice, const_nonzero_lattice
from repro.qual.solver import (
    Classification,
    UnsatisfiableError,
    check_ground,
    satisfiable,
    solve,
)


def c(lhs, rhs, reason="test"):
    return QualConstraint(lhs, rhs, Origin(reason))


class TestLeastSolution:
    def test_lower_bound_propagates_forward(self, const_lat):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        sol = solve(
            [c(const_lat.top, k1), c(k1, k2), c(k2, k3)], const_lat
        )
        assert sol.least_of(k3) == const_lat.top

    def test_no_bound_stays_bottom(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        sol = solve([c(k1, k2)], const_lat)
        assert sol.least_of(k1) == const_lat.bottom
        assert sol.least_of(k2) == const_lat.bottom

    def test_join_of_lower_bounds(self, fig2_lat):
        k = fresh_qual_var()
        sol = solve(
            [c(fig2_lat.atom("const"), k), c(fig2_lat.atom("dynamic"), k)],
            fig2_lat,
        )
        assert sol.least_of(k).has("const") and sol.least_of(k).has("dynamic")

    def test_cycle_converges(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        sol = solve(
            [c(k1, k2), c(k2, k1), c(const_lat.top, k1)], const_lat
        )
        assert sol.least_of(k1) == const_lat.top
        assert sol.least_of(k2) == const_lat.top


class TestGreatestSolution:
    def test_upper_bound_propagates_backward(self, const_lat):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        nc = const_lat.negate("const")
        sol = solve([c(k1, k2), c(k2, k3), c(k3, nc)], const_lat)
        assert sol.greatest_of(k1) == nc

    def test_unbounded_stays_top(self, const_lat):
        k = fresh_qual_var()
        sol = solve([c(const_lat.bottom, k)], const_lat)
        assert sol.greatest_of(k) == const_lat.top

    def test_meet_of_upper_bounds(self, fig2_lat):
        k = fresh_qual_var()
        sol = solve(
            [c(k, fig2_lat.negate("const")), c(k, fig2_lat.negate("dynamic"))],
            fig2_lat,
        )
        g = sol.greatest_of(k)
        assert not g.has("const") and not g.has("dynamic")


class TestUnsatisfiable:
    def test_ground_violation(self, const_lat):
        with pytest.raises(UnsatisfiableError):
            solve([c(const_lat.top, const_lat.bottom)], const_lat)

    def test_lower_exceeds_upper(self, const_lat):
        k = fresh_qual_var()
        with pytest.raises(UnsatisfiableError):
            solve(
                [c(const_lat.atom("const"), k), c(k, const_lat.negate("const"))],
                const_lat,
            )

    def test_conflict_through_chain(self, const_lat):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        with pytest.raises(UnsatisfiableError):
            solve(
                [
                    c(const_lat.atom("const"), k1),
                    c(k1, k2),
                    c(k2, k3),
                    c(k3, const_lat.negate("const")),
                ],
                const_lat,
            )

    def test_error_carries_origin(self, const_lat):
        k = fresh_qual_var()
        with pytest.raises(UnsatisfiableError) as err:
            solve(
                [
                    c(const_lat.atom("const"), k, "annotation at foo:3"),
                    c(k, const_lat.negate("const"), "assignment at foo:9"),
                ],
                const_lat,
            )
        assert "foo:9" in str(err.value)

    def test_satisfiable_helper(self, const_lat):
        k = fresh_qual_var()
        assert satisfiable([c(const_lat.bottom, k)], const_lat)
        assert not satisfiable([c(const_lat.top, const_lat.bottom)], const_lat)


class TestClassification:
    def test_must(self, const_lat):
        k = fresh_qual_var()
        sol = solve([c(const_lat.atom("const"), k)], const_lat)
        assert sol.classify(k, "const") is Classification.MUST

    def test_must_not(self, const_lat):
        k = fresh_qual_var()
        sol = solve([c(k, const_lat.negate("const"))], const_lat)
        assert sol.classify(k, "const") is Classification.MUST_NOT

    def test_either(self, const_lat):
        k = fresh_qual_var()
        sol = solve([], const_lat, extra_vars=[k])
        assert sol.classify(k, "const") is Classification.EITHER
        assert sol.is_unconstrained(k)

    def test_negative_qualifier_classification(self, cn_lat):
        k_must = fresh_qual_var()
        k_not = fresh_qual_var()
        k_free = fresh_qual_var()
        sol = solve(
            [
                # presence of a negative qualifier is forced by an upper
                # bound (present is low)...
                c(k_must, cn_lat.assertion_bound("nonzero")),
                # ...and forbidden by a lower bound.
                c(cn_lat.negate("nonzero"), k_not),
            ],
            cn_lat,
            extra_vars=[k_free],
        )
        assert sol.classify(k_must, "nonzero") is Classification.MUST
        assert sol.classify(k_not, "nonzero") is Classification.MUST_NOT
        assert sol.classify(k_free, "nonzero") is Classification.EITHER


class TestExtremesAreSolutions:
    def test_least_and_greatest_satisfy_system(self, fig2_lat):
        ks = [fresh_qual_var() for _ in range(5)]
        constraints = [
            c(fig2_lat.atom("const"), ks[0]),
            c(ks[0], ks[1]),
            c(ks[1], ks[2]),
            c(ks[3], ks[2]),
            c(ks[2], fig2_lat.top),
            c(ks[4], fig2_lat.negate("dynamic")),
        ]
        sol = solve(constraints, fig2_lat)
        assert check_ground(constraints, fig2_lat, sol.least) is None
        assert check_ground(constraints, fig2_lat, sol.greatest) is None

    def test_least_below_greatest(self, fig2_lat):
        ks = [fresh_qual_var() for _ in range(3)]
        constraints = [
            c(fig2_lat.atom("const"), ks[0]),
            c(ks[0], ks[1]),
            c(ks[1], ks[2]),
        ]
        sol = solve(constraints, fig2_lat)
        for k in ks:
            assert fig2_lat.leq(sol.least_of(k), sol.greatest_of(k))

    def test_check_ground_reports_violation(self, const_lat):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        constraints = [c(k1, k2)]
        bad = {k1: const_lat.top, k2: const_lat.bottom}
        assert check_ground(constraints, const_lat, bad) is constraints[0]


class TestScaling:
    def test_long_chain_linear(self, const_lat):
        # 5000-variable chain solves comfortably (the HR97 linear claim).
        ks = [fresh_qual_var() for _ in range(5000)]
        constraints = [c(const_lat.atom("const"), ks[0])]
        constraints += [c(ks[i], ks[i + 1]) for i in range(len(ks) - 1)]
        sol = solve(constraints, const_lat)
        assert sol.least_of(ks[-1]).has("const")

    def test_wide_fanout(self, const_lat):
        hub = fresh_qual_var()
        leaves = [fresh_qual_var() for _ in range(2000)]
        constraints = [c(const_lat.atom("const"), hub)]
        constraints += [c(hub, leaf) for leaf in leaves]
        sol = solve(constraints, const_lat)
        assert all(sol.least_of(leaf).has("const") for leaf in leaves)


class TestFlowPathDeterminism:
    """``shortest_flow_path`` must pick the same witness no matter how
    the constraint list was assembled (regression: the pre-fix picker
    broke ties by emission order, so cache-restored summaries could
    flip the reported path)."""

    @staticmethod
    def _spanned(lhs, rhs, filename, line, column=1, reason="flow"):
        from repro.qual.constraints import Origin, QualConstraint

        return QualConstraint(lhs, rhs, Origin(reason, filename, line, column))

    def _two_equal_paths(self, const_lat):
        # two seeds, two disjoint length-2 paths to the same target:
        #   top <= ka ; ka <= kt   (spans in a.c)
        #   top <= kb ; kb <= kt   (spans in b.c)
        ka, kb, kt = (fresh_qual_var() for _ in range(3))
        constraints = [
            self._spanned(const_lat.top, ka, "a.c", 1),
            self._spanned(ka, kt, "a.c", 2),
            self._spanned(const_lat.top, kb, "b.c", 1),
            self._spanned(kb, kt, "b.c", 2),
        ]
        return kt, constraints

    def test_tie_breaks_by_origin_span_not_list_order(self, const_lat):
        import itertools

        from repro.qual.solver import shortest_flow_path

        kt, constraints = self._two_equal_paths(const_lat)
        expected = None
        for perm in itertools.permutations(constraints):
            path = shortest_flow_path(perm, const_lat, kt, const_lat.bottom)
            assert path is not None and len(path) == 2
            # earliest origin span wins the tie: the a.c path
            assert [p.origin.filename for p in path] == ["a.c", "a.c"]
            if expected is None:
                expected = path
            assert path == list(expected)

    def test_tie_on_identical_spans_breaks_by_uid(self, const_lat):
        import itertools

        from repro.qual.solver import shortest_flow_path

        # both paths carry byte-identical origins; the seed whose
        # variable has the smaller uid must win, in every ordering
        ka, kb, kt = (fresh_qual_var() for _ in range(3))
        assert ka.uid < kb.uid
        constraints = [
            self._spanned(const_lat.top, ka, "same.c", 1),
            self._spanned(ka, kt, "same.c", 2),
            self._spanned(const_lat.top, kb, "same.c", 1),
            self._spanned(kb, kt, "same.c", 2),
        ]
        for perm in itertools.permutations(constraints):
            path = shortest_flow_path(perm, const_lat, kt, const_lat.bottom)
            assert path is not None
            assert path[0].rhs is ka

    def test_parallel_edges_pick_earliest_span(self, const_lat):
        from repro.qual.solver import shortest_flow_path

        # duplicate ka <= kt edges with different spans: the witness
        # must use the textually earliest one regardless of order
        ka, kt = fresh_qual_var(), fresh_qual_var()
        seed = self._spanned(const_lat.top, ka, "m.c", 1)
        early = self._spanned(ka, kt, "m.c", 5)
        late = self._spanned(ka, kt, "m.c", 9)
        for ordering in ([seed, early, late], [seed, late, early], [late, seed, early]):
            path = shortest_flow_path(ordering, const_lat, kt, const_lat.bottom)
            assert path == [seed, early]

    def test_satisfied_bound_yields_no_path(self, const_lat):
        from repro.qual.solver import shortest_flow_path

        kt, constraints = self._two_equal_paths(const_lat)
        assert shortest_flow_path(constraints, const_lat, kt, const_lat.top) is None
