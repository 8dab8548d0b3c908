"""The indexed generalisation agrees with the reference one, scheme for
scheme.

:func:`repro.qual.poly.generalize` handles a whole binding group (an FDG
component, or every function of a polymorphic-recursion round) in one
pass over an index of its constraints, and compresses with bound lists
kept up to date.  :func:`repro.testkit.schemes.generalize_reference`
closes, restricts and compresses one body at a time by full rescans.
On random atomic systems — several members, environment variables below
the uid watermark or named by a set, duplicate and trivial constraints,
ground by-products — both must print the same schemes and carry the
same constraints, origins and order included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qual.constraints import Origin, QualConstraint
from repro.qual.poly import generalize
from repro.qual.qtypes import INT, REF, QCon, QType, fresh_qual_var
from repro.qual.qualifiers import paper_figure2_lattice
from repro.testkit.schemes import generalize_reference

LATTICE = paper_figure2_lattice()
CONSTANTS = list(LATTICE.elements())


def nested_body(variables):
    """A ref-nest whose levels carry the given variables, innermost int."""
    out = QType(variables[-1], QCon(INT))
    for v in reversed(variables[:-1]):
        out = QType(v, QCon(REF, (out,)))
    return out


@st.composite
def groups(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    variables = [fresh_qual_var() for _ in range(n)]
    env_count = draw(st.integers(min_value=0, max_value=n - 1))
    # variables twice as often as constants
    endpoint = st.one_of(
        st.sampled_from(variables),
        st.sampled_from(variables),
        st.sampled_from(CONSTANTS),
    )
    pairs = draw(st.lists(st.tuples(endpoint, endpoint), max_size=30))
    reasons = st.sampled_from(["flow", "call", "declared const", "return"])
    constraints = [QualConstraint(a, b, Origin(draw(reasons))) for a, b in pairs]
    members = draw(st.integers(min_value=1, max_value=3))
    bodies = [
        nested_body(
            draw(st.lists(st.sampled_from(variables), min_size=1, max_size=4))
        )
        for _ in range(members)
    ]
    compress = draw(st.booleans())
    return variables, env_count, constraints, bodies, compress


def rendered(scheme):
    return (
        str(scheme),
        tuple(v.uid for v in scheme.quantified),
        tuple(repr(c) for c in scheme.constraints),
    )


@settings(max_examples=400, deadline=None)
@given(groups())
def test_watermark_groups_match_the_reference(group):
    variables, env_count, constraints, bodies, compress = group
    boundary = variables[env_count].uid
    env_vars = set(variables[:env_count])
    indexed = generalize(
        bodies, constraints, boundary, lattice=LATTICE, compress=compress
    )
    assert len(indexed) == len(bodies)
    for body, scheme in zip(bodies, indexed):
        expected = generalize_reference(
            body, constraints, env_vars, lattice=LATTICE, compress=compress
        )
        assert rendered(scheme) == rendered(expected)


@settings(max_examples=200, deadline=None)
@given(groups(), st.data())
def test_set_environments_match_the_reference(group, data):
    variables, _env_count, constraints, bodies, compress = group
    env_vars = set(data.draw(st.lists(st.sampled_from(variables), max_size=5)))
    indexed = generalize(
        bodies, constraints, env_vars, lattice=LATTICE, compress=compress
    )
    for body, scheme in zip(bodies, indexed):
        expected = generalize_reference(
            body, constraints, env_vars, lattice=LATTICE, compress=compress
        )
        assert rendered(scheme) == rendered(expected)


def test_members_share_the_index_but_not_their_closures():
    ka, kb, ki, kj = (fresh_qual_var() for _ in range(4))
    constraints = [
        QualConstraint(ka, ki, Origin("a")),
        QualConstraint(kb, kj, Origin("b")),
    ]
    first, second = generalize(
        [QType(ka, QCon(INT)), QType(kb, QCon(INT))], constraints, ka.uid
    )
    assert [str(c) for c in first.constraints] == [str(constraints[0])]
    assert [str(c) for c in second.constraints] == [str(constraints[1])]


def test_long_interior_chain_compresses_to_one_constraint():
    # one body variable at each end of a chain through 3,000 interior
    # variables: each elimination touches only its two neighbours
    chain = [fresh_qual_var() for _ in range(3002)]
    constraints = [
        QualConstraint(a, b, Origin("link")) for a, b in zip(chain, chain[1:])
    ]
    [scheme] = generalize(
        [nested_body([chain[0], chain[-1]])],
        constraints,
        chain[0].uid,
        lattice=LATTICE,
        compress=True,
    )
    assert scheme.quantified == (chain[0], chain[-1])
    assert [(c.lhs, c.rhs) for c in scheme.constraints] == [(chain[0], chain[-1])]


def test_victims_follow_current_fans_not_queued_ones():
    # z goes first (fan 2, lowest uid); eliminating it raises x's fan
    # from 2 to 3, so y (fan 2) must go before x although x's queued
    # entry still reads 2 with the smaller uid
    a, b, c, e, f, g, h = (fresh_qual_var() for _ in range(7))
    z, x, y = (fresh_qual_var() for _ in range(3))
    pairs = [
        (a, z), (c, z), (z, x),
        (e, x), (x, b),
        (f, y), (y, g), (y, h),
    ]
    constraints = [
        QualConstraint(lo, hi, Origin(f"o{i}")) for i, (lo, hi) in enumerate(pairs)
    ]
    body = nested_body([a, b, c, e, f, g, h])
    [scheme] = generalize(
        [body], constraints, a.uid, lattice=LATTICE, compress=True
    )
    expected = generalize_reference(
        body, constraints, set(), lattice=LATTICE, compress=True
    )
    assert rendered(scheme) == rendered(expected)
    assert [(c.lhs, c.rhs) for c in scheme.constraints] == [
        (f, g), (f, h), (e, b), (a, b), (c, b),
    ]
