"""Unit tests for polymorphic constrained qualifier types (Section 3.2)."""

from repro.qual.constraints import QualConstraint
from repro.qual.poly import (
    QualScheme,
    generalize,
    monomorphic,
    rename_constraints,
    restrict_constraints,
    simplify_scheme,
)
from repro.qual.qtypes import fresh_qual_var, q_fun, q_int, q_ref, qual_vars
from repro.qual.qualifiers import const_lattice


class TestMonomorphic:
    def test_monomorphic_scheme(self):
        k = fresh_qual_var()
        scheme = monomorphic(q_int(k))
        assert scheme.is_monomorphic
        body, carried = scheme.instantiate()
        assert body == q_int(k)  # no renaming
        assert carried == []


class TestGeneralize:
    def test_quantifies_body_vars(self):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        body = q_fun(k1, q_int(k2), q_int(k2))
        [scheme] = generalize([body], [], set())
        assert set(scheme.quantified) == {k1, k2}

    def test_env_vars_not_quantified(self):
        k_env, k_local = fresh_qual_var(), fresh_qual_var()
        body = q_fun(k_local, q_int(k_env), q_int(k_local))
        [scheme] = generalize([body], [], {k_env})
        assert k_env not in scheme.quantified
        assert k_local in scheme.quantified

    def test_connected_vars_swept_in(self):
        k_body, k_mid, k_far = (fresh_qual_var() for _ in range(3))
        body = q_int(k_body)
        constraints = [
            QualConstraint(k_body, k_mid),
            QualConstraint(k_mid, k_far),
        ]
        [scheme] = generalize([body], constraints, set())
        assert set(scheme.quantified) == {k_body, k_mid, k_far}
        assert len(scheme.constraints) == 2

    def test_sweep_stops_at_env_vars(self):
        k_body, k_env = fresh_qual_var(), fresh_qual_var()
        constraints = [QualConstraint(k_body, k_env)]
        [scheme] = generalize([q_int(k_body)], constraints, {k_env})
        assert set(scheme.quantified) == {k_body}
        # the env-linking constraint is still carried (it mentions k_body)
        assert len(scheme.constraints) == 1

    def test_unrelated_constraints_not_carried(self):
        k_body, k_other1, k_other2 = (fresh_qual_var() for _ in range(3))
        constraints = [QualConstraint(k_other1, k_other2)]
        [scheme] = generalize([q_int(k_body)], constraints, {k_other1, k_other2})
        assert scheme.constraints == ()

    def test_constant_bounds_carried(self):
        lat = const_lattice()
        k = fresh_qual_var()
        constraints = [QualConstraint(lat.atom("const"), k)]
        [scheme] = generalize([q_int(k)], constraints, set())
        assert len(scheme.constraints) == 1


class TestInstantiate:
    def test_renames_quantified(self):
        k = fresh_qual_var()
        [scheme] = generalize([q_int(k)], [], set())
        body1, _ = scheme.instantiate()
        body2, _ = scheme.instantiate()
        assert body1.qual != k and body2.qual != k
        assert body1.qual != body2.qual  # fresh per instantiation

    def test_carried_constraints_renamed_consistently(self):
        lat = const_lattice()
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        body = q_fun(k1, q_int(k2), q_int(k2))
        constraints = [QualConstraint(k2, k1), QualConstraint(lat.atom("const"), k2)]
        [scheme] = generalize([body], constraints, set())
        new_body, carried = scheme.instantiate()
        new_vars = qual_vars(new_body)
        assert k1 not in new_vars and k2 not in new_vars
        # the renamed var/var constraint relates the new body's own vars
        var_pairs = [
            c for c in carried if not isinstance(c.lhs, type(lat.bottom))
        ]
        for c in carried:
            for side in (c.lhs, c.rhs):
                assert side not in (k1, k2)

    def test_free_vars_survive_instantiation(self):
        k_env, k_local = fresh_qual_var(), fresh_qual_var()
        constraints = [QualConstraint(k_local, k_env)]
        [scheme] = generalize([q_int(k_local)], constraints, {k_env})
        _body, carried = scheme.instantiate()
        assert any(c.rhs == k_env for c in carried)


class TestFreeVars:
    def test_free_qual_vars(self):
        k_bound, k_free = fresh_qual_var(), fresh_qual_var()
        scheme = QualScheme(
            (k_bound,),
            q_int(k_bound),
            (QualConstraint(k_bound, k_free),),
        )
        assert scheme.free_qual_vars() == {k_free}


class TestHelpers:
    def test_rename_constraints(self):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        renamed = rename_constraints(
            [QualConstraint(k1, k2)], {k1: k3}
        )
        assert renamed[0].lhs == k3 and renamed[0].rhs == k2

    def test_restrict_constraints(self):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        cs = [QualConstraint(k1, k2), QualConstraint(k3, k3)]
        kept = restrict_constraints(cs, {k1})
        assert kept == [cs[0]]

    def test_simplify_drops_unused_quantifier(self):
        k_used, k_unused = fresh_qual_var(), fresh_qual_var()
        scheme = QualScheme((k_used, k_unused), q_int(k_used), ())
        simplified = simplify_scheme(scheme)
        assert simplified.quantified == (k_used,)

    def test_simplify_dedupes_constraints(self):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        c = QualConstraint(k1, k2)
        scheme = QualScheme((k1, k2), q_int(k1), (c, c))
        assert len(simplify_scheme(scheme).constraints) == 1

    def test_str_rendering(self):
        k = fresh_qual_var()
        [scheme] = generalize([q_int(k)], [], set())
        assert "forall" in str(scheme)
        assert str(monomorphic(q_int(k))) == "int" or "k" in str(monomorphic(q_int(k)))
