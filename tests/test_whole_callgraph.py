"""Tests for the cross-TU call graph and its function-pointer
resolution (address-taken + type-shape filter)."""

from repro.whole.callgraph import WholeProgramCallGraph
from repro.whole.linker import link_sources


def build(sources):
    linked = link_sources(sources)
    assert linked.diagnostics == []
    return WholeProgramCallGraph.build(linked.program)


def test_direct_cross_tu_edges():
    graph = build(
        {
            "a.c": "int base(void) { return 1; }\n",
            "b.c": "extern int base(void);\nint lift(void) { return base() + 1; }\n",
        }
    )
    assert graph.direct["lift"] == {"base"}
    assert graph.direct["base"] == set()


def test_address_taken_via_assignment():
    graph = build(
        {
            "a.c": "int f(int x) { return x; }\n",
            "b.c": (
                "extern int f(int x);\n"
                "int (*fp)(int);\n"
                "void wire(void) { fp = f; }\n"
                "int call(void) { return fp(3); }\n"
            ),
        }
    )
    assert graph.address_taken == {"f"}
    assert graph.indirect["call"] == {"f"}
    (site,) = graph.indirect_sites
    assert site.caller == "call"
    assert site.targets == ("f",)


def test_directly_called_functions_are_not_address_taken():
    graph = build(
        {
            "a.c": "int f(int x) { return x; }\nint g(void) { return f(1); }\n",
        }
    )
    assert graph.address_taken == set()


def test_address_taken_in_global_initializer_table():
    graph = build(
        {
            "ops.c": "int inc(int x) { return x + 1; }\nint dec(int x) { return x - 1; }\n",
            "table.c": (
                "extern int inc(int x);\n"
                "extern int dec(int x);\n"
                "int (*ops[2])(int) = { inc, dec };\n"
                "int run(int i, int v) { return ops[i](v); }\n"
            ),
        }
    )
    assert graph.address_taken == {"dec", "inc"}
    assert graph.indirect["run"] == {"dec", "inc"}


def test_arity_filter_prunes_candidates():
    graph = build(
        {
            "a.c": (
                "int unary(int x) { return x; }\n"
                "int binary(int x, int y) { return x + y; }\n"
            ),
            "b.c": (
                "extern int unary(int x);\n"
                "extern int binary(int x, int y);\n"
                "int (*u)(int);\n"
                "int (*b)(int, int);\n"
                "void wire(void) { u = unary; b = binary; }\n"
                "int call_u(void) { return u(1); }\n"
                "int call_b(void) { return b(1, 2); }\n"
            ),
        }
    )
    assert graph.indirect["call_u"] == {"unary"}
    assert graph.indirect["call_b"] == {"binary"}


def test_pointer_depth_shape_filter():
    # both candidates are unary, but one takes char* and one takes int:
    # the declared pointer type disambiguates by per-param pointer depth
    graph = build(
        {
            "a.c": (
                "int by_value(int x) { return x; }\n"
                "int by_pointer(char *p) { return 1; }\n"
            ),
            "b.c": (
                "extern int by_value(int x);\n"
                "extern int by_pointer(char *p);\n"
                "int (*fp)(char *);\n"
                "void wire(void) { fp = by_value; fp = by_pointer; }\n"
                "int call(char *s) { return fp(s); }\n"
            ),
        }
    )
    assert graph.indirect["call"] == {"by_pointer"}


def test_varargs_arity_compatibility():
    graph = build(
        {
            "a.c": "int many(int first, ...) { return first; }\n",
            "b.c": (
                "extern int many(int first, ...);\n"
                "int (*fp)(int, ...);\n"
                "void wire(void) { fp = many; }\n"
                "int call(void) { return fp(1, 2, 3); }\n"
            ),
        }
    )
    assert graph.indirect["call"] == {"many"}


def test_function_graph_contains_resolution_edges():
    graph = build(
        {
            "a.c": "int target(int x) { return x; }\n",
            "b.c": (
                "extern int target(int x);\n"
                "int (*fp)(int);\n"
                "void wire(void) { fp = target; }\n"
                "int call(void) { return fp(9); }\n"
            ),
        }
    )
    fdg = graph.function_graph()
    assert "target" in fdg.edges["call"]
    # wire names target, so the occurrence edge is there too
    assert "target" in fdg.edges["wire"]


def test_stats_shape():
    graph = build(
        {
            "a.c": "int f(int x) { return x; }\n",
            "b.c": (
                "extern int f(int x);\n"
                "int (*fp)(int);\n"
                "void wire(void) { fp = f; }\n"
                "int call(void) { return fp(0); }\n"
            ),
        }
    )
    stats = graph.stats()
    assert stats["functions"] == 3
    assert stats["address_taken"] == 1
    assert stats["indirect_sites"] == 1
    assert stats["indirect_edges"] == 1


def test_each_body_is_walked_once_per_program(monkeypatch):
    """The FDG, the call graph, the library-prototype filter, the
    checker and the suggester all read one cached walk per body."""
    import sys

    from repro.cfront import sema
    from repro.checker.engine import check_program
    from repro.checker.suggest import suggest_program
    from repro.constinfer.fdg import FunctionDependenceGraph
    from repro.testkit.cgen import generate_c_corpus

    linked = link_sources(generate_c_corpus(10).sources())
    program = linked.program
    walks: dict[int, int] = {}
    walk = sema.expressions_of

    def counting(node):
        walks[id(node)] = walks.get(id(node), 0) + 1
        return walk(node)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "expressions_of", None) is walk:
            monkeypatch.setattr(module, "expressions_of", counting)

    FunctionDependenceGraph.build(program)
    graph = WholeProgramCallGraph.build(program)
    program.library_prototypes()
    check_program(program)
    suggest_program(program)

    bodies = [id(fdef.body) for fdef in program.functions.values()]
    assert sorted(walks.get(body, 0) for body in set(bodies)) == [1] * len(bodies)
    # the corpus exercises the indirect-call and cast readers
    assert graph.indirect_sites
    assert any(o.casts for o in program.occurrences().values())
