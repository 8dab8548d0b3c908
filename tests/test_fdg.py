"""Unit tests for the function dependence graph (Definition 4) and its
SCC decomposition."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfront.sema import Program
from repro.constinfer.fdg import FunctionDependenceGraph


def graph_of(source):
    return FunctionDependenceGraph.build(Program.from_source(source))


class TestBuild:
    def test_edges_to_defined_functions_only(self):
        g = graph_of(
            """
            extern int lib(int);
            int callee(void) { return 0; }
            int caller(void) { return callee() + lib(1); }
            """
        )
        assert g.edges["caller"] == {"callee"}

    def test_vertices_are_defined_functions(self):
        g = graph_of("extern int lib(int); int f(void) { return 0; }")
        assert g.vertices == ["f"]

    def test_occurrence_not_call_still_edge(self):
        g = graph_of(
            """
            int target(void) { return 0; }
            void user(void) { int (*p)(void) = target; }
            """
        )
        assert "target" in g.edges["user"]


class TestSCCs:
    def test_straight_line_reverse_topological(self):
        g = graph_of(
            """
            int c(void) { return 0; }
            int b(void) { return c(); }
            int a(void) { return b(); }
            """
        )
        order = [component[0] for component in g.sccs()]
        assert order.index("c") < order.index("b") < order.index("a")

    def test_mutual_recursion_single_component(self):
        g = graph_of(
            """
            int is_odd(int n);
            int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }
            int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }
            """
        )
        components = g.sccs()
        assert ["is_even", "is_odd"] in components

    def test_self_recursion(self):
        g = graph_of("int fact(int n) { return n ? n * fact(n - 1) : 1; }")
        assert g.sccs() == [["fact"]]
        assert g.is_recursive(["fact"])

    def test_non_recursive_component(self):
        g = graph_of("int f(void) { return 1; }")
        assert not g.is_recursive(["f"])

    def test_callees_before_callers_with_scc(self):
        g = graph_of(
            """
            int base(void) { return 1; }
            int pong(int n);
            int ping(int n) { return n ? pong(n - 1) : base(); }
            int pong(int n) { return ping(n); }
            int top(void) { return ping(3); }
            """
        )
        components = g.sccs()
        index = {name: i for i, comp in enumerate(components) for name in comp}
        assert index["base"] < index["ping"]
        assert index["ping"] == index["pong"]
        assert index["ping"] < index["top"]

    def test_all_functions_covered_once(self):
        g = graph_of(
            """
            int a(void) { return b(); }
            int b(void) { return a(); }
            int c(void) { return a(); }
            int d(void) { return 0; }
            """
        )
        components = g.sccs()
        flattened = [name for comp in components for name in comp]
        assert sorted(flattened) == ["a", "b", "c", "d"]
        assert len(flattened) == len(set(flattened))

    def test_large_chain_no_recursion_limit(self):
        # the iterative Tarjan must handle deep chains
        n = 3000
        parts = ["int f0(void) { return 0; }"]
        for i in range(1, n):
            parts.append(f"int f{i}(void) {{ return f{i-1}(); }}")
        g = graph_of("\n".join(parts))
        components = g.sccs()
        assert len(components) == n
        assert components[0] == ["f0"]
        assert components[-1] == [f"f{n-1}"]


@st.composite
def random_graphs(draw):
    """Small directed graphs with self-loops, cycles and isolated nodes."""
    names = [f"f{i}" for i in range(draw(st.integers(1, 12)))]
    edges = {
        name: set(draw(st.lists(st.sampled_from(names), max_size=4)))
        for name in names
    }
    return FunctionDependenceGraph.from_edges(set(names), edges)


def _reachable(g, start):
    seen = {start}
    frontier = [start]
    while frontier:
        for succ in g.edges[frontier.pop()]:
            if succ not in seen:
                seen.add(succ)
                frontier.append(succ)
    return seen


@settings(max_examples=300, deadline=None)
@given(random_graphs())
def test_sccs_are_mutual_reachability_classes(g):
    components = g.sccs()
    flattened = [name for comp in components for name in comp]
    assert sorted(flattened) == sorted(g.vertices)
    reach = {v: _reachable(g, v) for v in g.vertices}
    index = {name: i for i, comp in enumerate(components) for name in comp}
    for comp in components:
        assert comp == sorted(comp)
        for v in comp:
            assert {w for w in g.vertices if w in reach[v] and v in reach[w]} == set(comp)
    # callees first: an edge stays in its component or points earlier
    for v in g.vertices:
        for w in g.edges[v]:
            assert index[w] <= index[v]


class TestWavefronts:
    def test_levels_partition_sccs(self):
        g = graph_of(
            """
            int base(void) { return 1; }
            int other(void) { return 2; }
            int mid(void) { return base(); }
            int top(void) { return mid() + other(); }
            """
        )
        levels = g.wavefronts()
        flattened = [comp for level in levels for comp in level]
        assert sorted(flattened) == sorted(g.sccs())

    def test_leaves_in_level_zero(self):
        g = graph_of(
            """
            int base(void) { return 1; }
            int other(void) { return 2; }
            int top(void) { return base() + other(); }
            """
        )
        levels = g.wavefronts()
        assert levels[0] == [["base"], ["other"]]
        assert levels[1] == [["top"]]

    def test_edges_cross_to_strictly_lower_levels(self):
        g = graph_of(
            """
            int c(void) { return 0; }
            int pong(int n);
            int ping(int n) { return n ? pong(n - 1) : c(); }
            int pong(int n) { return ping(n); }
            int b(void) { return c(); }
            int a(void) { return b() + ping(2); }
            """
        )
        levels = g.wavefronts()
        level_of = {
            name: depth
            for depth, level in enumerate(levels)
            for comp in level
            for name in comp
        }
        for src, targets in g.edges.items():
            for dst in targets:
                if level_of[src] != level_of[dst]:
                    assert level_of[dst] < level_of[src]
                else:
                    # same level only within one SCC (mutual recursion)
                    assert any(
                        src in comp and dst in comp
                        for level in levels
                        for comp in level
                    )

    def test_concatenation_is_callees_first(self):
        g = graph_of(
            """
            int c(void) { return 0; }
            int b(void) { return c(); }
            int a(void) { return b(); }
            """
        )
        order = [comp[0] for level in g.wavefronts() for comp in level]
        assert order.index("c") < order.index("b") < order.index("a")

    def test_levels_sorted_for_determinism(self):
        g = graph_of(
            """
            int zeta(void) { return 1; }
            int alpha(void) { return 2; }
            int mid(void) { return zeta() + alpha(); }
            """
        )
        levels = g.wavefronts()
        assert levels[0] == sorted(levels[0])

    def test_diamond_dependency_depths(self):
        g = graph_of(
            """
            int bottom(void) { return 0; }
            int left(void) { return bottom(); }
            int right(void) { return bottom(); }
            int top(void) { return left() + right(); }
            """
        )
        levels = g.wavefronts()
        assert levels == [[["bottom"]], [["left"], ["right"]], [["top"]]]
