"""Behavioural tests for the polymorphic const-inference engine
(Section 4.3): per-SCC generalisation, instantiation at call sites, and
the mono-vs-poly gap the paper measures."""

import itertools

from repro.cfront.sema import Program
from repro.constinfer.engine import run_mono, run_poly
from repro.qual import qtypes
from repro.qual.solver import Classification


def both(source):
    program = Program.from_source(source)
    return run_mono(program), run_poly(program)


def verdicts(run):
    return {
        f"{p.function}/{p.where}@{p.depth}": v
        for p, v in run.classified_positions()
    }


ID_MIXED_USE = """
int *id(int *x) { return x; }
void writer_use(void) { int a; *id(&a) = 1; }
int reader_use(void) { int b; return *id(&b); }
"""


class TestPolyGap:
    def test_id_poisoned_monomorphically(self):
        mono, _poly = both(ID_MIXED_USE)
        v = verdicts(mono)
        assert v["id/param 0 (x)@1"] is Classification.MUST_NOT
        assert v["id/return@1"] is Classification.MUST_NOT

    def test_id_recovered_polymorphically(self):
        _mono, poly = both(ID_MIXED_USE)
        v = verdicts(poly)
        assert v["id/param 0 (x)@1"] is Classification.EITHER
        assert v["id/return@1"] is Classification.EITHER

    def test_counts_poly_geq_mono(self):
        mono, poly = both(ID_MIXED_USE)
        assert poly.inferred_const_count() >= mono.inferred_const_count()
        assert poly.inferred_const_count() - mono.inferred_const_count() == 2

    def test_total_positions_agree(self):
        mono, poly = both(ID_MIXED_USE)
        assert mono.total_positions() == poly.total_positions()

    def test_selector_three_position_gap(self):
        source = """
        int *sel(int *a, int *b, int w) { if (w) return a; return b; }
        void put(void) { int x, y; *sel(&x, &y, 1) = 7; }
        int get(void) { int u, v; return *sel(&u, &v, 0); }
        """
        mono, poly = both(source)
        assert poly.inferred_const_count() - mono.inferred_const_count() == 3

    def test_declared_consts_identical_both_modes(self):
        source = """
        int rd(const char *s) { return *s; }
        int use(void) { char b[2]; b[0] = 0; return rd(b); }
        """
        mono, poly = both(source)
        assert mono.declared_count() == poly.declared_count() == 1


class TestSchemes:
    def test_schemes_created_for_defined_functions(self):
        program = Program.from_source(ID_MIXED_USE)
        poly = run_poly(program)
        assert "id" in poly.inference.schemes
        assert poly.inference.schemes["id"].quantified

    def test_writer_constraint_carried_into_instantiations(self):
        # f writes through its parameter: EVERY caller's argument must be
        # non-const, even under polymorphism (the constraint is carried
        # and re-emitted per instantiation).
        source = """
        void wr(int *p) { *p = 1; }
        void relay(int *q) { wr(q); }
        """
        _mono, poly = both(source)
        v = verdicts(poly)
        assert v["wr/param 0 (p)@1"] is Classification.MUST_NOT
        assert v["relay/param 0 (q)@1"] is Classification.MUST_NOT

    def test_mutually_recursive_scc_shares_monomorphically(self):
        # Within an SCC, uses are monomorphic: a write in one member
        # poisons the chain threaded through both.
        source = """
        void pong(int *p, int n);
        void ping(int *p, int n) { if (n) pong(p, n - 1); }
        void pong(int *p, int n) { *p = n; ping(p, n - 1); }
        """
        _mono, poly = both(source)
        v = verdicts(poly)
        assert v["ping/param 0 (p)@1"] is Classification.MUST_NOT
        assert v["pong/param 0 (p)@1"] is Classification.MUST_NOT

    def test_globals_stay_monomorphic(self):
        # A function returning a pointer to a global: the global's cell
        # is shared, but the *scheme* may still generalise the return
        # var; the global itself is pinned by the write.
        source = """
        int slot;
        int *get(void) { return &slot; }
        void set(void) { *get() = 3; }
        int read_it(void) { return *get(); }
        """
        mono, poly = both(source)
        mv, pv = verdicts(mono), verdicts(poly)
        assert mv["get/return@1"] is Classification.MUST_NOT
        assert pv["get/return@1"] is Classification.EITHER

    def test_library_bounds_shared_across_instantiations(self):
        # library conservatism survives polymorphism: lib is monomorphic
        source = """
        extern void lib_touch(int *p);
        void wrap(int *q) { lib_touch(q); }
        void wrap2(int *r) { lib_touch(r); }
        """
        _mono, poly = both(source)
        v = verdicts(poly)
        assert v["wrap/param 0 (q)@1"] is Classification.MUST_NOT
        assert v["wrap2/param 0 (r)@1"] is Classification.MUST_NOT


class TestTraversalOrder:
    def test_callee_generalised_before_caller(self):
        # caller appears before callee in the source; reverse topological
        # traversal still generalises the callee first, so the caller
        # instantiates a scheme rather than sharing variables.
        source = """
        void use_both(void) { int a; int b; *pick(&a) = 1; pick(&b); }
        int *pick(int *x) { return x; }
        int peek(void) { int c; return *pick(&c); }
        """
        _mono, poly = both(source)
        v = verdicts(poly)
        assert v["pick/param 0 (x)@1"] is Classification.EITHER

    def test_chain_of_sccs(self):
        source = """
        int leaf(int *p) { return *p; }
        int mid(int *p) { return leaf(p); }
        int top(int *p) { return mid(p); }
        void dirty(void) { int z; *alias(&z) = 1; }
        int *alias(int *w) { return w; }
        """
        mono, poly = both(source)
        assert poly.inferred_const_count() >= mono.inferred_const_count()
        v = verdicts(poly)
        for name, param in [("leaf", "p"), ("mid", "p"), ("top", "p")]:
            assert v[f"{name}/param 0 ({param})@1"] is Classification.EITHER

    def test_repeat_runs_are_byte_identical(self):
        # globals, a shared struct field, a mutually recursive SCC and
        # library calls: with the fresh-uid counter pinned, two runs
        # number every variable and emit every constraint identically
        program = Program.from_source("""
        int *shared;
        struct node { int *payload; };
        int leaf_a(int *p) { return *p; }
        int leaf_b(const char *s) { return s ? 1 : 0; }
        int pong(int n);
        int ping(int n) { return n ? pong(n - 1) : leaf_a(shared); }
        int pong(int n) { return ping(n); }
        void store(struct node *n, int *v) { n->payload = v; }
        int top(struct node *n) { store(n, shared); return ping(3) + leaf_b("x"); }
        """)

        def pinned_snapshot():
            saved = qtypes._fresh_counter
            qtypes._fresh_counter = itertools.count(1 << 40)
            try:
                run = run_poly(program)
            finally:
                qtypes._fresh_counter = saved
            return (
                [(str(p.var), p.function, p.where, p.depth, p.declared)
                 for p in run.positions],
                [repr(c) for c in run.inference.constraints],
                [run.classify(p).name for p in run.positions],
            )

        assert pinned_snapshot() == pinned_snapshot()


class TestTimingsRecorded:
    def test_elapsed_positive(self):
        mono, poly = both(ID_MIXED_USE)
        assert mono.elapsed_seconds > 0
        assert poly.elapsed_seconds > 0

    def test_modes_labelled(self):
        mono, poly = both(ID_MIXED_USE)
        assert mono.mode == "mono" and poly.mode == "poly"

    def test_stage_timings_populated(self):
        _mono, poly = both(ID_MIXED_USE)
        assert poly.timings is not None
        assert poly.timings.congen_seconds >= 0
        assert poly.timings.generalize_seconds > 0
        assert poly.timings.solve_seconds > 0
        assert not poly.timings.from_cache
