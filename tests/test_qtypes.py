"""Unit tests for standard/qualified types and the Section 2.3/3.1
translations (strip, bottom embedding, spread)."""

import pytest

from repro.qual.lattice import LatticeElement
from repro.qual.qtypes import (
    FUN,
    INT,
    QCon,
    QType,
    QualVar,
    REF,
    ShapeVar,
    StdCon,
    StdVar,
    STD_INT,
    STD_UNIT,
    TypeConstructor,
    UNIT,
    UidBand,
    UidBandExhausted,
    Variance,
    apply_qual_subst,
    apply_shape_subst,
    embed_bottom,
    embed_const,
    format_qtype,
    fresh_qual_var,
    map_quals,
    q_fun,
    q_int,
    q_ref,
    q_var,
    qual_vars,
    quals_of,
    same_shape,
    shape_vars,
    spread,
    std_fun,
    std_ref,
    std_type_vars,
    strip,
    use_uid_band,
)
from repro.qual.qualifiers import const_lattice


class TestConstructors:
    def test_arities(self):
        assert INT.arity == 0
        assert UNIT.arity == 0
        assert FUN.arity == 2
        assert REF.arity == 1

    def test_fun_variance(self):
        assert FUN.variances == (Variance.CONTRAVARIANT, Variance.COVARIANT)

    def test_ref_invariant(self):
        assert REF.variances == (Variance.INVARIANT,)

    def test_std_wrong_arity_rejected(self):
        with pytest.raises(TypeError):
            StdCon(FUN, (STD_INT,))

    def test_qcon_wrong_arity_rejected(self):
        lat = const_lattice()
        with pytest.raises(TypeError):
            QCon(REF, (q_int(lat.bottom), q_int(lat.bottom)))


class TestStdTypes:
    def test_str_formats(self):
        assert str(STD_INT) == "int"
        assert str(std_fun(STD_INT, STD_UNIT)) == "(int -> unit)"
        assert str(std_ref(STD_INT)) == "ref(int)"
        assert str(StdVar("a")) == "a"

    def test_type_vars(self):
        t = std_fun(StdVar("a"), std_ref(StdVar("b")))
        assert std_type_vars(t) == {"a", "b"}
        assert std_type_vars(STD_INT) == set()

    def test_equality_structural(self):
        assert std_ref(STD_INT) == std_ref(STD_INT)
        assert std_ref(STD_INT) != std_ref(STD_UNIT)


class TestFreshVars:
    def test_fresh_vars_distinct(self):
        a, b = fresh_qual_var(), fresh_qual_var()
        assert a != b and a.uid != b.uid

    def test_hint_in_name(self):
        assert fresh_qual_var("zz").name.startswith("zz")


class TestUidBands:
    def test_band_allocates_contiguously(self):
        band = UidBand(100, 10)
        assert [band.take() for _ in range(3)] == [100, 101, 102]

    def test_band_exhaustion_raises(self):
        band = UidBand(0, 2)
        band.take()
        band.take()
        with pytest.raises(UidBandExhausted):
            band.take()

    def test_bands_nest_and_restore(self):
        with use_uid_band(UidBand(1 << 51, 16)):
            with use_uid_band(UidBand(1 << 52, 16)):
                assert fresh_qual_var().uid == 1 << 52
            assert fresh_qual_var().uid == 1 << 51


class TestQTypeAccessors:
    def test_constructor_and_args(self):
        lat = const_lattice()
        t = q_ref(lat.bottom, q_int(lat.bottom))
        assert t.constructor is REF
        assert len(t.args) == 1
        v = q_var(lat.bottom, "a")
        assert v.constructor is None
        assert v.args == ()

    def test_with_qual(self):
        lat = const_lattice()
        t = q_int(lat.bottom)
        t2 = t.with_qual(lat.top)
        assert t2.qual == lat.top and t2.shape == t.shape


class TestStripAndEmbed:
    def test_strip_removes_all_quals(self):
        lat = const_lattice()
        t = q_fun(lat.top, q_ref(lat.bottom, q_int(lat.top)), q_int(lat.bottom))
        assert strip(t) == std_fun(std_ref(STD_INT), STD_INT)

    def test_strip_shape_var(self):
        lat = const_lattice()
        assert strip(q_var(lat.bottom, "a")) == StdVar("a")

    def test_embed_bottom_roundtrip(self):
        lat = const_lattice()
        std = std_fun(std_ref(STD_INT), StdVar("a"))
        embedded = embed_bottom(std, lat)
        assert strip(embedded) == std
        assert all(q == lat.bottom for q in quals_of(embedded))

    def test_embed_const(self):
        lat = const_lattice()
        embedded = embed_const(std_ref(STD_INT), lat.top)
        assert all(q == lat.top for q in quals_of(embedded))


class TestSpread:
    def test_spread_strips_back(self):
        std = std_fun(std_ref(STD_INT), std_fun(STD_UNIT, StdVar("a")))
        assert strip(spread(std)) == std

    def test_spread_fresh_vars_everywhere(self):
        std = std_fun(STD_INT, STD_INT)
        q = spread(std)
        vars_seen = list(quals_of(q))
        assert all(isinstance(v, QualVar) for v in vars_seen)
        assert len(set(vars_seen)) == len(vars_seen)

    def test_spread_consistent_on_type_vars(self):
        # sp maps each standard type variable to ONE kappa alpha.
        std = std_fun(StdVar("a"), StdVar("a"))
        q = spread(std)
        dom, rng = q.args
        assert dom == rng
        assert isinstance(dom.shape, ShapeVar)

    def test_spread_shared_var_map(self):
        var_map = {}
        a = spread(StdVar("a"), var_map)
        b = spread(StdVar("a"), var_map)
        assert a == b

    def test_spread_custom_fresh(self):
        lat = const_lattice()
        q = spread(std_ref(STD_INT), fresh=lambda: lat.bottom)
        assert all(v == lat.bottom for v in quals_of(q))


class TestTraversals:
    def test_qual_vars_collects_all(self):
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        t = q_fun(k1, q_ref(k2, q_var(k3, "a")), q_int(k1))
        assert qual_vars(t) == {k1, k2, k3}

    def test_shape_vars(self):
        lat = const_lattice()
        t = q_fun(lat.bottom, q_var(lat.bottom, "a"), q_var(lat.bottom, "b"))
        assert shape_vars(t) == {"a", "b"}

    def test_quals_of_order_outermost_first(self):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        t = q_ref(k1, q_int(k2))
        assert list(quals_of(t)) == [k1, k2]

    def test_map_quals(self):
        lat = const_lattice()
        k = fresh_qual_var()
        t = q_ref(k, q_int(k))
        mapped = map_quals(t, lambda q: lat.top)
        assert all(q == lat.top for q in quals_of(mapped))

    def test_same_shape(self):
        lat = const_lattice()
        a = q_ref(lat.bottom, q_int(lat.top))
        b = q_ref(lat.top, q_int(lat.bottom))
        c = q_int(lat.bottom)
        assert same_shape(a, b)
        assert not same_shape(a, c)


class TestSubstitution:
    def test_apply_qual_subst(self):
        lat = const_lattice()
        k = fresh_qual_var()
        t = q_ref(k, q_int(k))
        out = apply_qual_subst(t, {k: lat.top})
        assert all(q == lat.top for q in quals_of(out))

    def test_apply_qual_subst_leaves_others(self):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        t = q_ref(k1, q_int(k2))
        out = apply_qual_subst(t, {k1: fresh_qual_var("r")})
        assert out.args[0].qual == k2

    def test_apply_shape_subst(self):
        lat = const_lattice()
        t = q_ref(lat.bottom, q_var(lat.top, "a"))
        replacement = q_int(lat.bottom)
        out = apply_shape_subst(t, {"a": replacement})
        assert out.args[0] == replacement


class TestFormatting:
    def test_format_constant_qualifiers(self):
        lat = const_lattice()
        t = q_ref(lat.top, q_int(lat.bottom))
        assert format_qtype(t) == "const ref(int)"

    def test_format_fun(self):
        lat = const_lattice()
        t = q_fun(lat.bottom, q_int(lat.top), q_int(lat.bottom))
        assert format_qtype(t) == "(const int -> int)"

    def test_format_vars(self):
        k = QualVar("k9", 9)
        assert format_qtype(QType(k, ShapeVar("a"))) == "k9 a"

    def test_str_dunder(self):
        lat = const_lattice()
        assert str(q_int(lat.bottom)) == "int"
