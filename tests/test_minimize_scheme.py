"""Tests for scheme minimisation (the Section 6 presentation problem).

Correctness criterion: minimisation must preserve the scheme's meaning —
the set of instantiations of the *body's* qualifier variables admitted
by the carried constraints.  The property test checks that by brute
force over small lattices.
"""

import itertools
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qual.constraints import QualConstraint
from repro.qual.poly import QualScheme, minimize_scheme
from repro.qual.qtypes import QualVar, q_fun, q_int, qual_vars
from repro.qual.qualifiers import const_lattice, const_nonzero_lattice
from repro.qual.solver import check_ground


def var(i):
    return QualVar(f"m{i}", 20_000_000 + i)


class TestCycleCollapse:
    def test_cycle_merges_variables(self):
        lat = const_lattice()
        a, b = var(1), var(2)
        scheme = QualScheme(
            (a, b),
            q_fun(a, q_int(b), q_int(b)),
            (QualConstraint(a, b), QualConstraint(b, a)),
        )
        out = minimize_scheme(scheme, lat)
        assert len(out.quantified) == 1
        assert not out.constraints  # the cycle collapsed away
        assert len(qual_vars(out.body)) == 1

    def test_three_cycle(self):
        lat = const_lattice()
        a, b, c = var(3), var(4), var(5)
        scheme = QualScheme(
            (a, b, c),
            q_int(a),
            (
                QualConstraint(a, b),
                QualConstraint(b, c),
                QualConstraint(c, a),
            ),
        )
        out = minimize_scheme(scheme, lat)
        assert out.quantified == (a,)  # body var kept as representative
        assert not out.constraints


class TestDeepGraphs:
    # The cycle step's SCC search is iterative: a <=-graph deeper than
    # the interpreter's recursion limit must not raise RecursionError.
    def test_long_cycle_collapses(self):
        lat = const_lattice()
        vs = [var(100_000 + i) for i in range(3000)]
        cycle = tuple(
            QualConstraint(a, b) for a, b in zip(vs, vs[1:] + vs[:1])
        )
        out = minimize_scheme(QualScheme(tuple(vs), q_int(vs[0]), cycle), lat)
        assert out.quantified == (vs[0],)
        assert not out.constraints

    def test_chain_past_recursion_limit(self):
        lat = const_lattice()
        n = sys.getrecursionlimit() + 200
        vs = [var(200_000 + i) for i in range(n)]
        chain = tuple(QualConstraint(a, b) for a, b in zip(vs, vs[1:]))
        body = q_fun(vs[0], q_int(vs[-1]), q_int(vs[-1]))
        out = minimize_scheme(QualScheme(tuple(vs), body, chain), lat)
        assert out.quantified == (vs[0], vs[-1])
        assert out.constraints == (QualConstraint(vs[0], vs[-1]),)


class TestInteriorElimination:
    def test_chain_through_interior(self):
        lat = const_lattice()
        a, mid, b = var(6), var(7), var(8)
        scheme = QualScheme(
            (a, mid, b),
            q_fun(a, q_int(a), q_int(b)),
            (QualConstraint(a, mid), QualConstraint(mid, b)),
        )
        out = minimize_scheme(scheme, lat)
        assert mid not in out.quantified
        assert QualConstraint(a, b) in out.constraints

    def test_interior_with_constant_bounds(self):
        lat = const_lattice()
        a, mid = var(9), var(10)
        scheme = QualScheme(
            (a, mid),
            q_int(a),
            (
                QualConstraint(lat.atom("const"), mid),
                QualConstraint(mid, a),
            ),
        )
        out = minimize_scheme(scheme, lat)
        assert mid not in out.quantified
        assert QualConstraint(lat.atom("const"), a) in out.constraints

    def test_unconstrained_interior_disappears(self):
        lat = const_lattice()
        a, junk = var(11), var(12)
        scheme = QualScheme((a, junk), q_int(a), ())
        out = minimize_scheme(scheme, lat)
        assert out.quantified == (a,)


class TestTransitiveReduction:
    def test_implied_edge_dropped(self):
        lat = const_lattice()
        a, b, c = var(13), var(14), var(15)
        scheme = QualScheme(
            (a, b, c),
            q_fun(a, q_int(b), q_int(c)),
            (
                QualConstraint(a, b),
                QualConstraint(b, c),
                QualConstraint(a, c),  # implied
            ),
        )
        out = minimize_scheme(scheme, lat)
        assert QualConstraint(a, c) not in out.constraints
        assert len(out.constraints) == 2

    def test_trivial_constant_bounds_dropped(self):
        lat = const_lattice()
        a = var(16)
        scheme = QualScheme(
            (a,),
            q_int(a),
            (
                QualConstraint(lat.bottom, a),  # trivial
                QualConstraint(a, lat.top),  # trivial
            ),
        )
        out = minimize_scheme(scheme, lat)
        assert not out.constraints


# ---------------------------------------------------------------------------
# The semantic preservation property
# ---------------------------------------------------------------------------

_VARS = [var(100 + i) for i in range(4)]


@st.composite
def schemes(draw):
    lattice = draw(st.sampled_from([const_lattice(), const_nonzero_lattice()]))
    elements = list(lattice.elements())
    body_count = draw(st.integers(min_value=1, max_value=2))
    body_vars = _VARS[:body_count]
    body = q_fun(body_vars[0], q_int(body_vars[-1]), q_int(body_vars[0]))
    n = draw(st.integers(min_value=0, max_value=5))
    constraints = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        if kind == 0:
            constraints.append(
                QualConstraint(
                    draw(st.sampled_from(_VARS)), draw(st.sampled_from(_VARS))
                )
            )
        elif kind == 1:
            constraints.append(
                QualConstraint(
                    draw(st.sampled_from(elements)), draw(st.sampled_from(_VARS))
                )
            )
        else:
            constraints.append(
                QualConstraint(
                    draw(st.sampled_from(_VARS)), draw(st.sampled_from(elements))
                )
            )
    return lattice, QualScheme(tuple(_VARS), body, tuple(constraints)), body_vars


def projection(lattice, scheme, body_vars):
    """All assignments of the body vars extendable to full solutions."""
    elements = list(lattice.elements())
    all_vars = sorted(
        set(scheme.quantified)
        | {
            q
            for c in scheme.constraints
            for q in (c.lhs, c.rhs)
            if isinstance(q, QualVar)
        }
        | set(body_vars),
        key=lambda v: v.uid,
    )
    admitted = set()
    for values in itertools.product(elements, repeat=len(all_vars)):
        assignment = dict(zip(all_vars, values))
        if check_ground(scheme.constraints, lattice, assignment) is None:
            admitted.add(tuple(assignment[v] for v in body_vars))
    return admitted


@given(schemes())
@settings(max_examples=120, deadline=None)
def test_minimize_preserves_body_solution_set(data):
    lattice, scheme, body_vars = data
    before = projection(lattice, scheme, body_vars)
    minimized = minimize_scheme(scheme, lattice)
    # the body may have been rewritten by cycle collapse: build the var
    # mapping by position in the body structure.
    from repro.qual.qtypes import quals_of

    mapping = dict(zip(quals_of(scheme.body), quals_of(minimized.body)))
    mapped_body_vars = [mapping[v] for v in body_vars]
    after_raw = projection(lattice, minimized, mapped_body_vars)
    assert before == after_raw


@given(schemes())
@settings(max_examples=60, deadline=None)
def test_minimize_never_grows(data):
    lattice, scheme, _ = data
    minimized = minimize_scheme(scheme, lattice)
    assert len(minimized.constraints) <= len(scheme.constraints)
    assert len(minimized.quantified) <= len(scheme.quantified)


def test_real_inferred_scheme_shrinks():
    """The paper's id function: the raw inferred scheme carries the
    internal plumbing; minimisation leaves the essential shape."""
    from repro.lam.infer import const_language, infer
    from repro.lam.parser import parse

    result = infer(
        parse("let id = fn x. x in id (ref 1) ni"),
        const_language(),
        polymorphic=True,
    )
    scheme = next(iter(result.let_schemes.values()))
    minimized = minimize_scheme(scheme, const_language().lattice)
    assert len(minimized.constraints) <= len(scheme.constraints)
    assert len(minimized.quantified) <= len(scheme.quantified)
