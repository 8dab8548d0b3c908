"""Tests for transitive bound compression at generalisation time."""

import pytest

from repro.qual.constraints import Origin, QualConstraint
from repro.qual.poly import generalize
from repro.qual.qtypes import INT, REF, QCon, QType, QualVar, fresh_qual_var
from repro.qual.solver import satisfiable, solve


def c(lhs, rhs, reason="test"):
    return QualConstraint(lhs, rhs, Origin(reason))


def two_var_body(ka, kb):
    """A body mentioning exactly ``ka`` (outer) and ``kb`` (inner)."""
    return QType(ka, QCon(REF, (QType(kb, QCon(INT)),)))


class TestInteriorElimination:
    def test_chain_through_interior_is_compressed(self, const_lat):
        ka, ki, kb = (fresh_qual_var() for _ in range(3))
        body = two_var_body(ka, kb)
        constraints = [c(ka, ki, "in"), c(ki, kb, "out")]

        [plain] = generalize([body], constraints, set())
        assert ki in plain.quantified  # default keeps the chain whole

        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True
        )
        assert ki not in compressed.quantified
        assert set(compressed.quantified) == {ka, kb}
        assert [(cc.lhs, cc.rhs) for cc in compressed.constraints] == [(ka, kb)]

    def test_projection_onto_interface_is_preserved(self, fig2_lat):
        ka, ki, kb = (fresh_qual_var() for _ in range(3))
        body = two_var_body(ka, kb)
        constraints = [
            c(fig2_lat.atom("const"), ki, "lower"),
            c(ki, ka, "to a"),
            c(ki, kb, "to b"),
            c(kb, fig2_lat.negate("dynamic"), "upper"),
        ]
        [plain] = generalize([body], constraints, set())
        [compressed] = generalize(
            [body], constraints, set(), lattice=fig2_lat, compress=True
        )
        sol_plain = solve(plain.constraints, fig2_lat, extra_vars=[ka, kb])
        sol_comp = solve(compressed.constraints, fig2_lat, extra_vars=[ka, kb])
        for v in (ka, kb):
            assert sol_comp.least_of(v) == sol_plain.least_of(v)
            assert sol_comp.greatest_of(v) == sol_plain.greatest_of(v)

    def test_instantiation_copies_fewer_constraints(self, const_lat):
        ka, kb = fresh_qual_var(), fresh_qual_var()
        body = two_var_body(ka, kb)
        interior = [fresh_qual_var() for _ in range(4)]
        chain = [ka, *interior, kb]
        constraints = [c(a, b) for a, b in zip(chain, chain[1:])]
        [plain] = generalize([body], constraints, set())
        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True
        )
        assert len(compressed.constraints) < len(plain.constraints)
        _, carried = compressed.instantiate()
        assert len(carried) == len(compressed.constraints)


def nested_body(variables):
    """A ref-nest whose levels carry every given variable, innermost int."""
    out = QType(variables[-1], QCon(INT))
    for v in reversed(variables[:-1]):
        out = QType(v, QCon(REF, (out,)))
    return out


class TestFanGuard:
    def test_high_fan_interior_variable_is_kept(self, const_lat):
        outer = [fresh_qual_var() for _ in range(5)]
        ki = fresh_qual_var()
        body = nested_body(outer)  # every outer var is interface
        constraints = [c(v, ki) for v in outer[:2]]
        constraints += [c(ki, v) for v in outer[2:]]
        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True
        )
        # 2 lowers x 3 uppers = 6 products > 5 removed constraints: the
        # elimination would grow the system, so the variable survives.
        assert ki in compressed.quantified
        assert set(compressed.constraints) == set(constraints)


class TestGroundByProducts:
    def test_unsatisfiable_ground_product_is_kept(self, const_lat):
        ka = fresh_qual_var()
        ki = fresh_qual_var()
        nc = const_lat.negate("const")
        body = QType(ka, QCon(INT))
        constraints = [
            c(const_lat.top, ki, "forced low"),
            c(ki, nc, "forced high"),
            c(ki, ka, "tether"),
        ]
        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True
        )
        _, carried = compressed.instantiate()
        assert not satisfiable(carried, const_lat)

    def test_true_ground_product_is_dropped(self, const_lat):
        ka = fresh_qual_var()
        ki = fresh_qual_var()
        body = QType(ka, QCon(INT))
        constraints = [
            c(const_lat.bottom, ki, "low"),
            c(ki, const_lat.top, "high"),
            c(ki, ka, "tether"),
        ]
        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True
        )
        assert not any(
            isinstance(cc.lhs, type(const_lat.bottom))
            and isinstance(cc.rhs, type(const_lat.bottom))
            for cc in compressed.constraints
        )


class TestEnvVarsStayFree:
    def test_env_variables_are_never_quantified_or_eliminated(self, const_lat):
        ka = fresh_qual_var()
        kenv = fresh_qual_var()
        ki = fresh_qual_var()
        body = QType(ka, QCon(INT))
        constraints = [c(kenv, ki, "from env"), c(ki, ka, "to body")]
        # with no env restriction both kenv and ki are quantified interior
        # variables with no lower bounds: eliminating them is sound and
        # leaves nothing to carry
        [compressed] = generalize(
            [body], constraints, set(), lattice=const_lat, compress=True,
        )
        assert compressed.constraints == ()
        assert set(compressed.quantified) == {ka}

        [restricted] = generalize(
            [body], constraints, {kenv}, lattice=const_lat, compress=True
        )
        assert kenv not in restricted.quantified
        flat = [(cc.lhs, cc.rhs) for cc in restricted.constraints]
        assert (kenv, ka) in flat
