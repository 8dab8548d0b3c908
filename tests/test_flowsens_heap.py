"""Tests for the heap-cell layer of the flow-sensitive prototype:
weak updates on aliased cells vs strong updates on locals, all through
the one walker (:func:`repro.flowsens.analysis.analyze_flow`)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flowsens import analysis as analysis_module
from repro.flowsens.analysis import FlowAnalysis, analyze_flow
from repro.flowsens.language import (
    AnnotStmt,
    Assign,
    AssertStmt,
    CopyPtr,
    Havoc,
    If,
    Literal,
    LoadCell,
    NewCell,
    Refine,
    StoreCell,
    VarRef,
    While,
    block,
)
from repro.flowsens.analysis import FlowError
from repro.qual.qualifiers import nonnull_lattice, taint_lattice


@pytest.fixture
def taint():
    return taint_lattice()


def lit(lattice, *names):
    return Literal(lattice.element(*names))


class TestWeakCellUpdates:
    def test_store_then_load(self, taint):
        program = block(
            NewCell("p", "buf"),
            StoreCell("p", lit(taint, "tainted")),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok  # the tainted store reaches the load

    def test_weak_update_does_not_forget(self, taint):
        # unlike a local, overwriting a cell does NOT clear it: the old
        # value may still be visible through an alias, so stores join.
        program = block(
            NewCell("p", "buf"),
            StoreCell("p", lit(taint, "tainted")),
            StoreCell("p", lit(taint)),  # "clean" store joins, not replaces
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok

    def test_local_contrast_is_strong(self, taint):
        # the same history on a LOCAL is fine: assignment is strong.
        program = block(
            Assign("x", lit(taint, "tainted")),
            Assign("x", lit(taint)),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok

    def test_clean_cell_passes(self, taint):
        program = block(
            NewCell("p", "buf"),
            StoreCell("p", lit(taint)),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok


class TestAliasing:
    def test_alias_sees_store(self, taint):
        program = block(
            NewCell("p", "buf"),
            CopyPtr("q", "p"),
            StoreCell("q", lit(taint, "tainted")),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert not analyze_flow(program, taint).ok

    def test_distinct_sites_independent(self, taint):
        program = block(
            NewCell("p", "dirty_site"),
            NewCell("q", "clean_site"),
            StoreCell("p", lit(taint, "tainted")),
            StoreCell("q", lit(taint)),
            LoadCell("x", "q"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok

    def test_merge_unions_points_to(self, taint):
        program = block(
            Assign("flag", lit(taint)),
            NewCell("a", "site_a"),
            NewCell("b", "site_b"),
            CopyPtr("p", "a"),
            If("flag", then=(CopyPtr("p", "b"),), else_=()),
            StoreCell("p", lit(taint, "tainted")),  # may hit either site
            LoadCell("x", "a"),
            AssertStmt("x", taint.element(), label="sink-a"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok  # site_a may have been written

    def test_pointer_reassignment_is_strong(self, taint):
        program = block(
            NewCell("p", "old"),
            StoreCell("p", lit(taint, "tainted")),
            NewCell("p", "fresh"),  # strong update of the POINTER
            StoreCell("p", lit(taint)),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok


class TestLoops:
    def test_points_to_fixpoint_through_loop(self, taint):
        # p alternates between two cells across iterations; the store
        # must be seen to reach both.
        program = block(
            Assign("n", lit(taint)),
            NewCell("a", "site_a"),
            NewCell("b", "site_b"),
            CopyPtr("p", "a"),
            While(
                "n",
                body=(
                    StoreCell("p", lit(taint, "tainted")),
                    CopyPtr("p", "b"),
                ),
            ),
            LoadCell("x", "b"),
            AssertStmt("x", taint.element(), label="sink-b"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok  # second iteration stores through b

    def test_loop_clean_stores_ok(self, taint):
        program = block(
            Assign("n", lit(taint)),
            NewCell("p", "acc"),
            While("n", body=(StoreCell("p", lit(taint)),)),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok


class TestErrors:
    def test_store_through_non_pointer(self, taint):
        program = block(
            Assign("x", lit(taint)),
            StoreCell("x", lit(taint)),
        )
        with pytest.raises(FlowError):
            analyze_flow(program, taint)

    def test_load_through_undefined(self, taint):
        with pytest.raises(FlowError):
            analyze_flow(block(LoadCell("x", "ghost")), taint)

    def test_copy_of_non_pointer(self, taint):
        program = block(Assign("x", lit(taint)), CopyPtr("q", "x"))
        with pytest.raises(FlowError):
            analyze_flow(program, taint)

    def test_scalar_layer_still_works(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            AnnotStmt("x", taint.element("tainted")),
            AssertStmt("x", taint.element("tainted"), label="ok"),
        )
        assert analyze_flow(program, taint).ok


class TestWeakUpdateCorners:
    """The corners the lowering leans on: branch merges over aliased
    cells, points-to joins at loop heads, and CopyPtr chains."""

    def test_aliased_cells_merge_across_branches(self, taint):
        # p -> site_a on one branch, site_b on the other; after the
        # merge a store through p must weak-update BOTH cells.
        program = block(
            Assign("flag", lit(taint)),
            NewCell("a", "site_a"),
            NewCell("b", "site_b"),
            If("flag", then=(CopyPtr("p", "a"),), else_=(CopyPtr("p", "b"),)),
            StoreCell("p", lit(taint, "tainted")),
            LoadCell("x", "b"),
            AssertStmt("x", taint.element(), label="sink-b"),
        )
        assert not analyze_flow(program, taint).ok

    def test_branch_merge_keeps_unaliased_cell_clean(self, taint):
        # a third cell never aliased by p must not be hit by the store.
        program = block(
            Assign("flag", lit(taint)),
            NewCell("a", "site_a"),
            NewCell("b", "site_b"),
            NewCell("c", "site_c"),
            If("flag", then=(CopyPtr("p", "a"),), else_=(CopyPtr("p", "b"),)),
            StoreCell("p", lit(taint, "tainted")),
            LoadCell("x", "c"),
            AssertStmt("x", taint.element(), label="sink-c"),
        )
        assert analyze_flow(program, taint).ok

    def test_loop_head_join_carries_body_alias(self, taint):
        # the alias q -> p's cell is created inside the body; the join
        # at the loop head must keep it live for the store on the next
        # iteration, so p's cell is dirty after the loop.
        program = block(
            Assign("n", lit(taint)),
            NewCell("p", "site"),
            While(
                "n",
                body=(
                    CopyPtr("q", "p"),
                    StoreCell("q", lit(taint, "tainted")),
                ),
            ),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert not analyze_flow(program, taint).ok

    def test_loop_head_join_unions_entry_and_back_edge(self, taint):
        # at the head p may point to site_a (entry) or site_b (back
        # edge); a store at the top of the body must hit both.
        program = block(
            Assign("n", lit(taint)),
            NewCell("a", "site_a"),
            NewCell("b", "site_b"),
            CopyPtr("p", "a"),
            While(
                "n",
                body=(
                    StoreCell("p", lit(taint, "tainted")),
                    CopyPtr("p", "b"),
                ),
            ),
            LoadCell("x", "a"),
            AssertStmt("x", taint.element(), label="sink-a"),
        )
        assert not analyze_flow(program, taint).ok

    def test_copyptr_chain_three_deep(self, taint):
        program = block(
            NewCell("p", "site"),
            CopyPtr("q", "p"),
            CopyPtr("r", "q"),
            StoreCell("r", lit(taint, "tainted")),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert not analyze_flow(program, taint).ok

    def test_copyptr_chain_broken_by_strong_repoint(self, taint):
        # repointing q at a fresh cell breaks the chain: the store
        # through q no longer reaches p's cell.
        program = block(
            NewCell("p", "site"),
            CopyPtr("q", "p"),
            NewCell("q", "fresh"),
            StoreCell("q", lit(taint, "tainted")),
            LoadCell("x", "p"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        assert analyze_flow(program, taint).ok


class TestOneWalker:
    """Checks are recorded by the loop's exit pass only: points-to
    trials observe nothing, whatever the body does to the pointers."""

    def test_loop_assert_reported_once_without_pointers(self, taint):
        program = block(
            Assign("n", lit(taint, "tainted")),
            While("n", body=(AssertStmt("n", taint.element(), label="in-loop"),)),
        )
        result = analyze_flow(program, taint)
        assert [p[1] for p in result.check_points] == ["in-loop"]
        assert len(result.failures) == 1

    def test_loop_assert_reported_once_when_points_to_grows(self, taint):
        # the CopyPtr grows p's set at the head, which takes two trial
        # passes before the exit pass; none of them may record the check.
        program = block(
            Assign("n", lit(taint, "tainted")),
            NewCell("p", "site_a"),
            NewCell("q", "site_b"),
            While(
                "n",
                body=(
                    AssertStmt("n", taint.element(), label="in-loop"),
                    CopyPtr("p", "q"),
                ),
            ),
        )
        result = analyze_flow(program, taint)
        assert [p[1] for p in result.check_points] == ["in-loop"]
        assert len(result.failures) == 1

    def test_trial_passes_emit_no_constraints(self, taint, monkeypatch):
        # the exit pass's site sets contain every trial's, so its flows
        # cover the trials'; a trial's own variables reach no constraint
        program = block(
            Assign("n", lit(taint, "tainted")),
            NewCell("p", "site_a"),
            NewCell("q", "site_b"),
            While(
                "n",
                body=(
                    StoreCell("p", VarRef("n")),
                    LoadCell("x", "p"),
                    CopyPtr("p", "q"),
                ),
            ),
            LoadCell("y", "q"),
            AssertStmt("y", taint.element(), label="sink"),
        )
        trial_vars, mentioned = _trial_and_mentioned(program, taint, monkeypatch)
        assert trial_vars
        assert not trial_vars & mentioned
        assert not analyze_flow(program, taint).ok

    def test_foreign_literal_rejected_with_cells(self, taint):
        program = block(
            NewCell("p", "buf"),
            StoreCell("p", Literal(nonnull_lattice().element())),
        )
        with pytest.raises(FlowError, match="not from lattice"):
            analyze_flow(program, taint)


_SCALARS = ("x", "y", "z")
_POINTERS = ("p", "q")
_LATTICE = taint_lattice()
_LEVELS = st.sampled_from([_LATTICE.element(), _LATTICE.element("tainted")])
_VALUES = st.one_of(
    st.sampled_from(_SCALARS).map(VarRef), _LEVELS.map(Literal)
)


def _statements(children):
    """Scalar and pointer variables stay disjoint, so every generated
    program is well formed: pointers are only (re)pointed, scalars
    only assigned."""
    scalar, pointer = st.sampled_from(_SCALARS), st.sampled_from(_POINTERS)
    sites = st.sampled_from(("s1", "s2", "s3"))
    return st.one_of(
        st.builds(Assign, scalar, _VALUES),
        st.builds(Havoc, scalar),
        st.builds(AssertStmt, scalar, _LEVELS),
        st.builds(AnnotStmt, scalar, _LEVELS),
        st.builds(NewCell, pointer, sites),
        st.builds(CopyPtr, pointer, pointer),
        st.builds(StoreCell, pointer, _VALUES),
        st.builds(LoadCell, scalar, pointer),
        st.builds(If, scalar, children, children),
        st.builds(While, scalar, children),
        st.builds(Refine, scalar, st.just("tainted"), children),
    )


_PROGRAMS = st.recursive(
    st.lists(_statements(st.just(())), max_size=4).map(tuple),
    lambda children: st.lists(_statements(children), max_size=4).map(tuple),
    max_leaves=12,
)


def _check_occurrences(stmts) -> int:
    total = 0
    for stmt in stmts:
        if isinstance(stmt, (AssertStmt, AnnotStmt)):
            total += 1
        elif isinstance(stmt, If):
            total += _check_occurrences(stmt.then) + _check_occurrences(stmt.else_)
        elif isinstance(stmt, (While, Refine)):
            total += _check_occurrences(stmt.body)
    return total


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
def test_each_check_is_recorded_once(body):
    prologue = tuple(Assign(x, Literal(_LATTICE.element())) for x in _SCALARS) + (
        NewCell("p", "s1"),
        NewCell("q", "s2"),
    )
    result = analyze_flow(prologue + body, _LATTICE)
    assert len(result.check_points) == _check_occurrences(body)


def _trial_and_mentioned(program, lattice, monkeypatch):
    """(variables drawn during loop trials, variables the constraints
    mention) for one run of the walker.  A cell's variable is left out
    even when a trial allocates the site first: it is shared by every
    pass and flow-insensitive, so the exit pass rightly reuses it."""
    analysis = FlowAnalysis(lattice)
    trial_vars = set()
    real = analysis_module.fresh_qual_var

    def fresh(prefix):
        var = real(prefix)
        if not analysis._recording:
            trial_vars.add(var)
        return var

    monkeypatch.setattr(analysis_module, "fresh_qual_var", fresh)
    analysis.analyze(program)
    mentioned = {q for c in analysis.constraints for q in (c.lhs, c.rhs)}
    return trial_vars - set(analysis.cell_vars.values()), mentioned


@settings(max_examples=150, deadline=None)
@given(_PROGRAMS)
# a trial allocates s3 first; its cell variable is the exit pass's too
@example((While("x", (NewCell("p", "s3"), StoreCell("p", VarRef("x")))),))
def test_no_constraint_mentions_a_trial_variable(body):
    prologue = tuple(Assign(x, Literal(_LATTICE.element())) for x in _SCALARS) + (
        NewCell("p", "s1"),
        NewCell("q", "s2"),
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        trial_vars, mentioned = _trial_and_mentioned(
            prologue + body, _LATTICE, monkeypatch
        )
    assert not trial_vars & mentioned
