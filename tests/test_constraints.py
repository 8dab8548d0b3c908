"""Unit tests for the constraint language (Section 3.1)."""

import pickle

import pytest

from repro.qual.constraints import Origin, QualConstraint
from repro.qual.qtypes import fresh_qual_var


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
