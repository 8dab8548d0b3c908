"""Unit tests for the constraint language (Section 3.1)."""

import pickle

import pytest

from repro.qual.constraints import (
    ConstraintSet,
    Origin,
    QualConstraint,
    SubtypeConstraint,
)
from repro.qual.qtypes import fresh_qual_var, q_int, q_ref
from repro.qual.qualifiers import const_lattice


class TestOrigin:
    def test_plain_reason(self):
        assert str(Origin("assignment")) == "assignment"

    def test_with_file_line_column(self):
        o = Origin("cast", filename="m.c", line=12, column=3)
        assert str(o) == "cast at m.c:12:3"

    def test_with_line_only(self):
        assert str(Origin("x", line=9)) == "x at line 9"

    def test_file_without_line(self):
        assert str(Origin("x", filename="a.c")) == "x at a.c"

    @pytest.mark.parametrize(
        "origin",
        [
            Origin("assignment"),
            Origin("cast", filename="m.c", line=12, column=3),
            Origin("declared const", filename="", line=None, column=7),
        ],
        ids=repr,
    )
    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, origin, protocol):
        loaded = pickle.loads(pickle.dumps(origin, protocol=protocol))
        assert loaded == origin
        assert repr(loaded) == repr(origin)
        assert hash(loaded) == hash(origin)

    def test_value_semantics_of_the_frozen_class(self):
        # slotted, no per-instance __dict__, and the hash and repr a frozen
        # dataclass over the same fields gives
        o = Origin("cast", filename="m.c", line=12, column=3)
        assert not hasattr(o, "__dict__")
        assert hash(o) == hash(("cast", "m.c", 12, 3))
        assert repr(o) == "Origin(reason='cast', filename='m.c', line=12, column=3)"
        assert o == Origin("cast", "m.c", 12, 3)
        assert o != Origin("cast", "m.c", 12, 4)
        assert len({o, Origin("cast", "m.c", 12, 3)}) == 1


class TestQualConstraint:
    def test_trivial(self, const_lat):
        k = fresh_qual_var()
        assert QualConstraint(k, k).is_trivial
        assert not QualConstraint(k, fresh_qual_var()).is_trivial

    def test_ground(self, const_lat):
        assert QualConstraint(const_lat.bottom, const_lat.top).is_ground
        assert not QualConstraint(fresh_qual_var(), const_lat.top).is_ground

    def test_str(self, const_lat):
        k = fresh_qual_var()
        text = str(QualConstraint(const_lat.atom("const"), k))
        assert "const" in text and "<=" in text

    def test_str_bottom_rendered(self, const_lat):
        text = str(QualConstraint(const_lat.bottom, fresh_qual_var()))
        assert "<none>" in text


class TestConstraintSet:
    def test_add_and_iterate(self, const_lat):
        cs = ConstraintSet()
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        cs.add_qual(k1, k2)
        cs.add_subtype(q_int(k1), q_int(k2))
        assert len(cs) == 2
        assert len(list(cs)) == 2

    def test_trivial_atomic_dropped(self):
        cs = ConstraintSet()
        k = fresh_qual_var()
        cs.add_qual(k, k)
        assert len(cs) == 0

    def test_add_equal_emits_both_directions(self, const_lat):
        cs = ConstraintSet()
        a, b = q_int(fresh_qual_var()), q_int(fresh_qual_var())
        cs.add_equal(a, b)
        assert len(cs.subtype_constraints) == 2

    def test_add_qual_equal(self):
        cs = ConstraintSet()
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        cs.add_qual_equal(k1, k2)
        pairs = {(c.lhs, c.rhs) for c in cs.atomic_constraints}
        assert pairs == {(k1, k2), (k2, k1)}

    def test_merge(self):
        a, b = ConstraintSet(), ConstraintSet()
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        a.add_qual(k1, k2)
        b.add_qual(k2, k1)
        b.quantify([k2])
        a.merge(b)
        assert len(a) == 2
        assert k2 in a.quantified

    def test_variables(self):
        cs = ConstraintSet()
        k1, k2, k3 = (fresh_qual_var() for _ in range(3))
        cs.add_qual(k1, k2)
        cs.add_subtype(q_ref(k3, q_int(k1)), q_ref(k3, q_int(k1)))
        assert cs.variables() == {k1, k2, k3}

    def test_copy_is_independent(self):
        cs = ConstraintSet()
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        cs.add_qual(k1, k2)
        clone = cs.copy()
        clone.add_qual(k2, k1)
        assert len(cs) == 1 and len(clone) == 2

    def test_str_mentions_quantifier(self):
        cs = ConstraintSet()
        k = fresh_qual_var()
        cs.add_qual(k, fresh_qual_var())
        cs.quantify([k])
        assert "exists" in str(cs)

    def test_rejects_non_constraint(self):
        with pytest.raises(TypeError):
            ConstraintSet().add("not a constraint")  # type: ignore[arg-type]

    def test_constructor_accepts_iterable(self):
        k1, k2 = fresh_qual_var(), fresh_qual_var()
        cs = ConstraintSet([QualConstraint(k1, k2)])
        assert len(cs) == 1

    def test_empty_str(self):
        assert str(ConstraintSet()) == "<empty>"
