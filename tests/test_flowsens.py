"""Tests for the flow-sensitive qualifier prototype (Section 6).

The headline behaviours: strong updates forget old qualifiers; weak
flows keep them; conditional refinement makes the lclint null-check
pattern typecheck flow-sensitively — none of which the base
(flow-insensitive) framework can express, which
``test_contrast_with_flow_insensitive`` demonstrates directly.
"""

import pytest

from repro.flowsens import (
    AnnotStmt,
    Assign,
    AssertStmt,
    CopyPtr,
    FlowAnalysis,
    FlowError,
    Havoc,
    If,
    Join,
    Literal,
    NewCell,
    Refine,
    StoreCell,
    VarRef,
    While,
    analyze_flow,
    block,
)
from repro.flowsens.analysis import _State
from repro.qual.qualifiers import nonnull_lattice, taint_lattice


@pytest.fixture
def taint():
    return taint_lattice()


@pytest.fixture
def nn():
    return nonnull_lattice()


def lit(lattice, *names):
    return Literal(lattice.element(*names))


class TestStrongVsWeakUpdates:
    def test_strong_update_forgets(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            Assign("x", lit(taint)),  # strong update: clean again
            AssertStmt("x", taint.element(), label="sink"),
        )
        result = analyze_flow(program, taint)
        assert result.ok

    def test_flow_insensitive_would_reject(self, taint):
        # the same value-history expressed as one location in the base
        # framework: a single qualifier must cover both writes.
        from repro.lam.check import is_well_typed
        from repro.lam.infer import plain_language
        from repro.lam.parser import parse

        source = """
        let x = ref ({tainted} 1) in
        let u = (x := 0) in
        (!x)|{}
        ni ni
        """
        assert not is_well_typed(parse(source), plain_language(taint))

    def test_weak_flow_keeps_qualifier(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            Assign("y", lit(taint)),  # unrelated statement: weak for x
            AssertStmt("x", taint.element(), label="sink"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok
        assert result.failures[0].variable == "x"

    def test_copy_propagates(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            Assign("y", VarRef("x")),
            AssertStmt("y", taint.element(), label="sink"),
        )
        assert not analyze_flow(program, taint).ok

    def test_join_taints(self, taint):
        program = block(
            Assign("a", lit(taint, "tainted")),
            Assign("b", lit(taint)),
            Assign("c", Join(VarRef("a"), VarRef("b"))),
            AssertStmt("c", taint.element(), label="sink"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok
        assert result.final_value("c").has("tainted")


class TestAnnotations:
    def test_annot_raises_and_checks(self, taint):
        program = block(
            Assign("x", lit(taint)),
            AnnotStmt("x", taint.element("tainted")),
        )
        result = analyze_flow(program, taint)
        assert result.ok
        assert result.final_value("x").has("tainted")

    def test_annot_downward_fails(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            AnnotStmt("x", taint.element(), label="cannot-lower"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok
        assert result.failures[0].kind == "annot"


class TestBranchesAndLoops:
    def test_if_merge_joins(self, taint):
        program = block(
            Assign("flag", lit(taint)),
            Assign("x", lit(taint)),
            If(
                "flag",
                then=(Assign("x", lit(taint, "tainted")),),
                else_=(),
            ),
            AssertStmt("x", taint.element(), label="after-if"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok  # one branch taints x

    def test_if_both_branches_clean(self, taint):
        program = block(
            Assign("flag", lit(taint)),
            Assign("x", lit(taint, "tainted")),
            If(
                "flag",
                then=(Assign("x", lit(taint)),),
                else_=(Assign("x", lit(taint)),),
            ),
            AssertStmt("x", taint.element(), label="after-if"),
        )
        assert analyze_flow(program, taint).ok

    def test_loop_fixpoint(self, taint):
        # x becomes tainted on some iteration: after the loop it may be.
        program = block(
            Assign("n", lit(taint)),
            Assign("x", lit(taint)),
            While(
                "n",
                body=(Assign("x", Join(VarRef("x"), lit(taint, "tainted"))),),
            ),
            AssertStmt("x", taint.element(), label="after-loop"),
        )
        result = analyze_flow(program, taint)
        assert not result.ok

    def test_loop_strong_update_each_iteration(self, taint):
        # x is cleaned at the top of every iteration before use.
        program = block(
            Assign("n", lit(taint)),
            Assign("x", lit(taint)),
            While(
                "n",
                body=(
                    Assign("x", lit(taint, "tainted")),
                    Assign("x", lit(taint)),
                ),
            ),
            AssertStmt("x", taint.element(), label="after-loop"),
        )
        assert analyze_flow(program, taint).ok


class TestRefinement:
    """The lclint pattern: a null test enables the dereference."""

    def test_refined_branch_passes(self, nn):
        maybe_null = nn.element()  # nonnull absent: may be null
        program = block(
            Assign("p", Literal(maybe_null)),
            Refine(
                "p",
                "nonnull",
                body=(
                    AssertStmt(
                        "p", nn.assertion_bound("nonnull"), label="deref"
                    ),
                ),
            ),
        )
        assert analyze_flow(program, nn).ok

    def test_unrefined_deref_fails(self, nn):
        program = block(
            Assign("p", Literal(nn.element())),
            AssertStmt("p", nn.assertion_bound("nonnull"), label="deref"),
        )
        result = analyze_flow(program, nn)
        assert not result.ok
        assert result.failures[0].label == "deref"

    def test_refinement_does_not_leak_past_merge(self, nn):
        program = block(
            Assign("p", Literal(nn.element())),
            Refine("p", "nonnull", body=()),
            # after the merge p may again be null (the not-taken path)
            AssertStmt("p", nn.assertion_bound("nonnull"), label="after"),
        )
        result = analyze_flow(program, nn)
        assert not result.ok

    def test_contrast_with_flow_insensitive(self, nn):
        # the base framework cannot express the refined deref at all:
        from repro.apps.nonnull import check_source

        assert not check_source(
            "let p = {} ref 5 in if 1 then !p else 0 fi ni"
        ).safe
        # ...while the flow-sensitive prototype accepts the same shape
        # (test then dereference), which is exactly the Section 6 gap.
        program = block(
            Assign("p", Literal(nn.element())),
            Refine(
                "p",
                "nonnull",
                body=(
                    AssertStmt("p", nn.assertion_bound("nonnull"), label="ok"),
                ),
            ),
        )
        assert analyze_flow(program, nn).ok


class TestErrorsAndPlumbing:
    def test_undefined_variable_use(self, taint):
        with pytest.raises(FlowError):
            analyze_flow(block(Assign("x", VarRef("ghost"))), taint)

    def test_undefined_assert(self, taint):
        with pytest.raises(FlowError):
            analyze_flow(block(AssertStmt("ghost", taint.element())), taint)

    def test_initial_environment(self, taint):
        program = block(AssertStmt("input", taint.element(), label="sink"))
        result = analyze_flow(
            program, taint, initial={"input": taint.element("tainted")}
        )
        assert not result.ok

    def test_havoc_is_unconstrained(self, taint):
        program = block(
            Havoc("x"),
            AssertStmt("x", taint.element(), label="sink"),
        )
        # least solution of an unconstrained input is bottom: the linter
        # does not flag it (nothing tainted demonstrably flows).
        assert analyze_flow(program, taint).ok

    def test_final_value_unknown_var(self, taint):
        result = analyze_flow(block(Assign("x", lit(taint))), taint)
        with pytest.raises(FlowError):
            result.final_value("y")

    def test_wrong_lattice_literal(self, nn, taint):
        program = block(Assign("x", lit(taint, "tainted")))
        with pytest.raises(FlowError):
            analyze_flow(program, nn)

    def test_failure_str(self, taint):
        program = block(
            Assign("x", lit(taint, "tainted")),
            AssertStmt("x", taint.element(), label="sink-7"),
        )
        result = analyze_flow(program, taint)
        assert "sink-7" in str(result.failures[0])


class TestStateThreading:
    """One state is threaded along each path: straight-line statements
    update it in place, and only forks copy it.  Counted, not timed, so
    the analysis stays linear in program length."""

    #: copies per If/While/Refine visit: If and Refine copy once, a
    #: While copies its head and its exit pass, plus one per points-to
    #: trial (one when the body adds no site).
    COPIES_PER_FORK = 3

    @staticmethod
    def straightline(lattice, n):
        stmts = [Assign("x0", lit(lattice, "tainted"))]
        stmts += [Assign(f"x{i}", VarRef(f"x{i - 1}")) for i in range(1, n)]
        stmts.append(AssertStmt(f"x{n - 1}", lattice.element(), label="sink"))
        return block(*stmts)

    @staticmethod
    def branchy(lattice, depth):
        inner: tuple = (Assign("x", lit(lattice, "tainted")),)
        for _ in range(depth):
            inner = (If("flag", then=inner, else_=(Assign("y", lit(lattice)),)),)
        return block(Assign("flag", lit(lattice)), Assign("x", lit(lattice)), *inner)

    @staticmethod
    def loopy(lattice, width, loops):
        stmts = [Assign("n", lit(lattice))]
        stmts += [Assign(f"v{i}", lit(lattice)) for i in range(width)]
        body = tuple(
            Assign(f"v{i}", Join(VarRef(f"v{i}"), VarRef(f"v{(i + 1) % width}")))
            for i in range(width)
        )
        stmts += [While("n", body=body) for _ in range(loops)]
        return block(*stmts)

    @staticmethod
    def pointer_loops(lattice, loops):
        """Nested loops over pointers, so the points-to trials run, with
        a branch and a refinement inside every body."""
        body: tuple = (
            NewCell("q", "inner"),
            If("n", then=(CopyPtr("p", "q"),), else_=()),
            Refine("x", "tainted", body=(StoreCell("p", VarRef("x")),)),
        )
        for _ in range(loops):
            body = (While("n", body=body), CopyPtr("p", "p"))
        return block(
            Assign("n", lit(lattice)),
            Assign("x", lit(lattice)),
            NewCell("p", "outer"),
            *body,
        )

    @staticmethod
    def count(monkeypatch, program, lattice):
        """(state copies, If/While/Refine visits) of one analysis."""
        counts = {"copies": 0, "forks": 0}
        copy, stmt = _State.copy, FlowAnalysis._stmt

        def counting_copy(self):
            counts["copies"] += 1
            return copy(self)

        def counting_stmt(self, node, state):
            if isinstance(node, (If, While, Refine)):
                counts["forks"] += 1
            return stmt(self, node, state)

        monkeypatch.setattr(_State, "copy", counting_copy)
        monkeypatch.setattr(FlowAnalysis, "_stmt", counting_stmt)
        analyze_flow(program, lattice)
        monkeypatch.undo()
        return counts["copies"], counts["forks"]

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_straight_line_code_copies_no_state(self, monkeypatch, taint, n):
        copies, forks = self.count(monkeypatch, self.straightline(taint, n), taint)
        assert (copies, forks) == (0, 0)

    @pytest.mark.parametrize(
        "shape",
        ["branchy", "loopy", "pointer_loops"],
    )
    def test_copies_bounded_by_forks(self, monkeypatch, taint, shape):
        program = {
            "branchy": lambda: self.branchy(taint, 30),
            "loopy": lambda: self.loopy(taint, 8, 10),
            "pointer_loops": lambda: self.pointer_loops(taint, 3),
        }[shape]()
        copies, forks = self.count(monkeypatch, program, taint)
        assert forks > 0
        assert copies <= self.COPIES_PER_FORK * forks

    def test_threading_keeps_branch_states_apart(self, taint):
        # The else-branch runs on the state the then-branch was copied
        # from: neither branch may see the other's update.
        program = block(
            Assign("flag", lit(taint)),
            Assign("x", lit(taint)),
            If(
                "flag",
                then=(Assign("x", lit(taint, "tainted")),),
                else_=(AssertStmt("x", taint.element(), label="else"),),
            ),
        )
        assert analyze_flow(program, taint).ok
