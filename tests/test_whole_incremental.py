"""The incremental re-link API in :mod:`repro.whole`: TU dependence
graphs, ``affected_units``, and the per-group summary cache that
``run_whole_poly`` keys on them.

The load-bearing property, checked directly: after an edit, a re-link
over a shared cache misses exactly the groups of ``affected_units`` of
the edit (their summary-key digests moved) and hits every other group —
so serving those summaries warm is sound."""

from repro.constinfer.cache import AnalysisCache
from repro.whole import (
    TUSummary,
    affected_units,
    dependency_closure,
    link_sources,
    run_whole_poly,
    tu_dependence_graph,
)
from repro.whole.summary import summary_source_key

# A three-unit chain: top.c calls mid.c's helper, which calls leaf.c's.
LEAF = (
    "char *getenv(const char *name);\n"
    'char *leaf_get(void) { return getenv("X"); }\n'
)
MID = (
    "extern char *leaf_get(void);\n"
    "char *mid_get(void) { return leaf_get(); }\n"
)
TOP = (
    "int printf(const char *fmt, ...);\n"
    "extern char *mid_get(void);\n"
    "void top(void) { printf(mid_get()); }\n"
)


def chain_sources():
    return {"leaf.c": LEAF, "mid.c": MID, "top.c": TOP}


def linked_chain(sources=None):
    return link_sources(sources or chain_sources())


def test_tu_dependence_graph_shape():
    graph = tu_dependence_graph(linked_chain())
    assert graph.vertices == ["leaf.c", "mid.c", "top.c"]  # sorted list
    assert graph.edges["top.c"] == {"mid.c"}
    assert graph.edges["mid.c"] == {"leaf.c"}
    assert graph.edges["leaf.c"] == set()


def test_dependency_closure_is_downward():
    graph = tu_dependence_graph(linked_chain())
    assert dependency_closure(("top.c",), graph) == ("leaf.c", "mid.c", "top.c")
    assert dependency_closure(("mid.c",), graph) == ("leaf.c", "mid.c")
    assert dependency_closure(("leaf.c",), graph) == ("leaf.c",)


def test_affected_units_is_upward():
    graph = tu_dependence_graph(linked_chain())
    assert affected_units(graph, {"leaf.c"}) == ("leaf.c", "mid.c", "top.c")
    assert affected_units(graph, {"mid.c"}) == ("mid.c", "top.c")
    assert affected_units(graph, {"top.c"}) == ("top.c",)
    assert affected_units(graph, {"not-linked.c"}) == ()


class RecordingCache(AnalysisCache):
    """A cache that records the group of every summary it stores: each
    summary miss re-analyses its group and stores it once."""

    def __init__(self, root):
        super().__init__(root)
        self.stored = []

    def put(self, key, value):
        if isinstance(value, TUSummary):
            self.stored.append(value.group)
        super().put(key, value)


def relink(cache, sources=None):
    """Re-link over ``cache``; returns the run and the re-analysed units."""
    cache.stored.clear()
    run = run_whole_poly(linked_chain(sources), cache=cache)
    assert run.summary_misses == len(cache.stored)
    assert run.summary_hits == len(run.schedule) - run.summary_misses
    return run, {unit for group in cache.stored for unit in group}


def test_cold_relink_misses_every_group(tmp_path):
    run, missed = relink(RecordingCache(tmp_path))
    assert missed == {"leaf.c", "mid.c", "top.c"}
    assert (run.summary_hits, run.summary_misses) == (0, 3)  # one group per unit


def test_body_edit_moves_exactly_the_affected_digests(tmp_path):
    cache = RecordingCache(tmp_path)
    relink(cache)

    # Edit mid.c's function *body* (no signature/global changes).
    edited = chain_sources()
    edited["mid.c"] = (
        "extern char *leaf_get(void);\n"
        "char *mid_get(void) { char *tmp = leaf_get(); return tmp; }\n"
    )
    run, missed = relink(cache, edited)

    graph = tu_dependence_graph(linked_chain(edited))
    assert missed == set(affected_units(graph, {"mid.c"}))
    assert missed == {"mid.c", "top.c"}
    assert run.summary_hits == 1  # leaf summary stays warm


def test_leaf_edit_moves_every_digest(tmp_path):
    cache = RecordingCache(tmp_path)
    relink(cache)
    edited = chain_sources()
    edited["leaf.c"] = LEAF + "\n"
    run, missed = relink(cache, edited)
    assert missed == {"leaf.c", "mid.c", "top.c"}
    assert run.summary_hits == 0


def test_layout_change_moves_all_digests(tmp_path):
    """Adding a global shifts the shared uid layer, so every group must
    miss — even units textually untouched."""
    cache = RecordingCache(tmp_path)
    relink(cache)
    edited = chain_sources()
    edited["top.c"] = "int new_global;\n" + TOP
    run, missed = relink(cache, edited)
    assert missed == {"leaf.c", "mid.c", "top.c"}
    assert run.summary_hits == 0


def test_unchanged_relink_hits_every_group(tmp_path):
    cache = RecordingCache(tmp_path)
    relink(cache)
    run, missed = relink(cache)
    assert missed == set()
    assert (run.summary_hits, run.summary_misses) == (3, 0)


def test_digest_depends_on_layout_component():
    sources = chain_sources()
    group = ("leaf.c",)
    assert summary_source_key(
        group, group, sources, "layout-a", 0
    ) != summary_source_key(group, group, sources, "layout-b", 0)


def test_independent_units_do_not_invalidate_each_other(tmp_path):
    sources = {
        "a.c": "int a(void) { return 1; }\n",
        "b.c": "int b(void) { return 2; }\n",
    }
    graph = tu_dependence_graph(link_sources(sources))
    assert affected_units(graph, {"a.c"}) == ("a.c",)
    cache = RecordingCache(tmp_path)
    relink(cache, sources)
    sources["a.c"] = "int a(void) { return 3; }\n"
    run, missed = relink(cache, sources)
    assert missed == {"a.c"}
    assert run.summary_hits == 1
