"""Tests for whole-program polymorphic inference: determinism across
repeat runs and any cold/warm cache mix, per-TU summary caching with
dependency-closure invalidation, cross-TU schemes, and the
concatenation-equivalence property (linking a.c + b.c must classify
exactly like analysing their textual concatenation, modulo static
renaming)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constinfer.analysis import ConstInference
from repro.constinfer.cache import AnalysisCache
from repro.constinfer.engine import run_poly
from repro.qual.qtypes import QualVar
from repro.whole import engine as whole_engine
from repro.whole import link_sources, run_whole_poly
from repro.whole.engine import WHOLE_UID_BASE

FOUR_TUS = {
    "util.c": (
        "extern char *getenv(const char *name);\n"
        "char *read_env(const char *k) { return getenv(k); }\n"
        "static int twice(int x) { return x + x; }\n"
        "int scale(int x) { return twice(x); }\n"
    ),
    "ops.c": (
        "int add(int a, int b) { return a + b; }\n"
        "int sub(int a, int b) { return a - b; }\n"
    ),
    "table.c": (
        "extern int add(int a, int b);\n"
        "extern int sub(int a, int b);\n"
        "int (*ops[2])(int, int);\n"
        "void setup(void) { ops[0] = add; ops[1] = sub; }\n"
        "int apply(int i, int a, int b) { return ops[i](a, b); }\n"
    ),
    "main.c": (
        "extern char *read_env(const char *k);\n"
        "extern int apply(int i, int a, int b);\n"
        "extern int scale(int x);\n"
        "int main(void) { read_env(\"X\"); return apply(0, scale(1), 2); }\n"
    ),
}


def run_fingerprint(result):
    """Everything observable about a run, as one comparable value."""
    run = result.run
    sol = run.solution
    return (
        tuple(str(c) for c in run.inference.constraints),
        tuple(sorted(((v.uid, v.name), str(q)) for v, q in sol.least.items())),
        tuple(sorted(((v.uid, v.name), str(q)) for v, q in sol.greatest.items())),
        tuple(
            (name, str(run.inference.schemes[name]))
            for name in sorted(run.inference.schemes)
        ),
        tuple(
            (p.function, p.where, p.depth, p.declared, run.classify(p).name)
            for p in run.positions
        ),
    )


def classification_multiset(run):
    return sorted(
        (p.function, p.where, p.depth, p.declared, run.classify(p).name)
        for p in run.positions
    )


def test_repeat_runs_are_identical():
    a = run_fingerprint(run_whole_poly(link_sources(FOUR_TUS)))
    b = run_fingerprint(run_whole_poly(link_sources(FOUR_TUS)))
    assert a == b


def test_all_uids_live_in_the_whole_band_space():
    result = run_whole_poly(link_sources(FOUR_TUS))
    for constraint in result.run.inference.constraints:
        for side in (constraint.lhs, constraint.rhs):
            uid = getattr(side, "uid", None)
            if uid is not None:
                assert uid >= WHOLE_UID_BASE


def test_group_summaries_concatenate_to_the_run(tmp_path, monkeypatch):
    """Each group's summary is exactly the slice of the run it added:
    the shared-layer head, then every group's summary in schedule order,
    then the global-initializer tail."""
    stored = []
    store_summary = whole_engine.store_summary

    def capture(cache, summary, **kwargs):
        stored.append(summary)
        return store_summary(cache, summary, **kwargs)

    tail_start = []
    analyze_global_initializers = ConstInference.analyze_global_initializers

    def mark_tail(self):
        tail_start.append(len(self.constraints))
        return analyze_global_initializers(self)

    monkeypatch.setattr(whole_engine, "store_summary", capture)
    monkeypatch.setattr(ConstInference, "analyze_global_initializers", mark_tail)
    sources = dict(FOUR_TUS)
    sources["table.c"] += "int limit = 2;\nint *limit_ptr = &limit;\n"
    result = run_whole_poly(link_sources(sources), cache=AnalysisCache(tmp_path))
    inference = result.run.inference

    assert [summary.group for summary in stored] == result.schedule
    groups = [c for summary in stored for c in summary.constraints]
    (tail,) = tail_start
    head = tail - len(groups)
    assert inference.constraints[head:tail] == groups
    assert len(inference.constraints) > tail  # limit_ptr's initializer
    shared_band_end = WHOLE_UID_BASE + whole_engine._UID_BAND_SIZE
    for constraint in inference.constraints[:head]:
        for side in (constraint.lhs, constraint.rhs):
            if isinstance(side, QualVar):
                assert WHOLE_UID_BASE <= side.uid < shared_band_end
    assert inference.positions == [
        p for summary in stored for p in summary.positions
    ]


def test_cold_warm_and_partial_cache_identical(tmp_path):
    cache = AnalysisCache(tmp_path)
    cold = run_whole_poly(link_sources(FOUR_TUS), cache=cache)
    assert cold.summary_hits == 0
    assert cold.summary_misses == 4

    warm = run_whole_poly(link_sources(FOUR_TUS), cache=cache)
    assert warm.summary_hits == 4
    assert warm.summary_misses == 0
    assert warm.run.timings.from_cache

    no_cache = run_whole_poly(link_sources(FOUR_TUS))
    assert run_fingerprint(cold) == run_fingerprint(warm) == run_fingerprint(no_cache)


def test_editing_a_leaf_reanalyses_only_dependents(tmp_path):
    cache = AnalysisCache(tmp_path)
    run_whole_poly(link_sources(FOUR_TUS), cache=cache)

    # main.c depends on everything; editing it re-analyses only main.c
    edited = dict(FOUR_TUS)
    edited["main.c"] = edited["main.c"].replace("scale(1)", "scale(2)")
    result = run_whole_poly(link_sources(edited), cache=cache)
    assert result.summary_misses == 1
    assert result.summary_hits == 3

    # ops.c is a root: editing it re-analyses ops.c and its dependents
    # (table.c via the pointer table, main.c via apply) but not util.c
    edited2 = dict(FOUR_TUS)
    edited2["ops.c"] = edited2["ops.c"].replace("a + b", "b + a")
    result2 = run_whole_poly(link_sources(edited2), cache=cache)
    assert result2.summary_misses == 3
    assert result2.summary_hits == 1


def test_adding_a_global_invalidates_every_summary(tmp_path):
    cache = AnalysisCache(tmp_path)
    run_whole_poly(link_sources(FOUR_TUS), cache=cache)
    edited = dict(FOUR_TUS)
    edited["ops.c"] += "int extra_global;\n"
    # the shared uid layout shifted: nothing may be served warm
    result = run_whole_poly(link_sources(edited), cache=cache)
    assert result.summary_hits == 0


def test_mentioning_another_library_function_invalidates_every_summary(tmp_path):
    """Only mentioned library functions get shared-band signatures, so
    an edit that starts calling one shifts the shared uid layout."""
    sources = dict(FOUR_TUS)
    sources["util.c"] = "extern char *strdup(const char *s);\n" + sources["util.c"]
    cache = AnalysisCache(tmp_path)
    run_whole_poly(link_sources(sources), cache=cache)
    sources["main.c"] += "char *copy(const char *s) { return strdup(s); }\n"
    warm = run_whole_poly(link_sources(sources), cache=cache)
    assert warm.summary_hits == 0
    assert run_fingerprint(warm) == run_fingerprint(
        run_whole_poly(link_sources(sources))
    )


def test_cross_tu_mutual_recursion_forms_one_group():
    sources = {
        "even.c": (
            "extern int is_odd(int n);\n"
            "int is_even(int n) { return n == 0 ? 1 : is_odd(n - 1); }\n"
        ),
        "odd.c": (
            "extern int is_even(int n);\n"
            "int is_odd(int n) { return n == 0 ? 0 : is_even(n - 1); }\n"
        ),
    }
    result = run_whole_poly(link_sources(sources))
    assert result.schedule == [("even.c", "odd.c")]
    assert result.run.solution is not None


def test_schemes_are_polymorphic_across_tus():
    sources = {
        "id.c": "char *identity(char *p) { return p; }\n",
        "use.c": (
            "extern char *identity(char *p);\n"
            "extern char *getenv(const char *name);\n"
            "char *reuse(char *clean) {\n"
            "    char *dirty = identity(getenv(\"X\"));\n"
            "    return identity(clean);\n"
            "}\n"
        ),
    }
    result = run_whole_poly(link_sources(sources))
    scheme = result.run.inference.schemes["identity"]
    assert scheme.quantified  # generalised, not monomorphic


def test_whole_matches_concatenation_fixed_pair():
    a = (
        "extern char *getenv(const char *name);\n"
        "char *source(void) { return getenv(\"V\"); }\n"
    )
    b = (
        "extern char *source(void);\n"
        "char *relay(void) { return source(); }\n"
    )
    whole = run_whole_poly(link_sources({"a.c": a, "b.c": b})).run
    concat = run_poly(__import__("repro.cfront.sema", fromlist=["Program"]).Program.from_source(a + b))
    assert classification_multiset(whole) == classification_multiset(concat)


# -- the concatenation-equivalence property (satellite) -----------------

_SNIPPETS_A = [
    "int give(void) { return 42; }\n",
    "char *pass_through(char *p) { return p; }\n",
    "int twice_up(int x) { return x + x; }\n",
    "extern char *getenv(const char *name);\nchar *fetch(void) { return getenv(\"K\"); }\n",
    "int shared_value;\nint read_shared(void) { return shared_value; }\n",
]

_SNIPPETS_B = [
    "extern int give(void);\nint taken(void) { return give(); }\n",
    "extern char *pass_through(char *p);\nchar *loop_it(char *q) { return pass_through(pass_through(q)); }\n",
    "extern int twice_up(int x);\nint four_x(int x) { return twice_up(twice_up(x)); }\n",
    "extern char *fetch(void);\nchar *hand_off(void) { return fetch(); }\n",
    "extern int shared_value;\nint bump_shared(void) { shared_value = shared_value + 1; return shared_value; }\n",
    "int lonely(int z) { return z; }\n",
]


@settings(max_examples=25, deadline=None)
@given(
    a_parts=st.lists(st.sampled_from(_SNIPPETS_A), min_size=1, max_size=3, unique=True),
    b_parts=st.lists(st.sampled_from(_SNIPPETS_B), min_size=1, max_size=3, unique=True),
)
def test_whole_program_equals_textual_concatenation(a_parts, b_parts):
    """Linking {a.c, b.c} (no statics involved) must classify every
    interesting position exactly as analysing one concatenated unit:
    the linker model adds no spurious merging and loses no flows."""
    from repro.cfront.sema import Program

    a_text = "".join(a_parts)
    b_text = "".join(b_parts)
    whole = run_whole_poly(link_sources({"a.c": a_text, "b.c": b_text})).run
    concat = run_poly(Program.from_source(a_text + b_text, filename="concat.c"))
    assert classification_multiset(whole) == classification_multiset(concat)


def test_whole_matches_concatenation_with_static_renaming():
    """With same-named statics in both units, whole-program equals the
    concatenation in which the statics are *manually* alpha-renamed —
    the 'modulo static renaming' clause."""
    from repro.cfront.sema import Program

    a = "static int mark;\nint get_a(void) { return mark; }\n"
    b = "static int mark;\nint get_b(void) { mark = 2; return mark; }\n"
    whole = run_whole_poly(link_sources({"a.c": a, "b.c": b})).run
    renamed = a.replace("mark", "mark_one") + b.replace("mark", "mark_two")
    concat = run_poly(Program.from_source(renamed))
    assert classification_multiset(whole) == classification_multiset(concat)
