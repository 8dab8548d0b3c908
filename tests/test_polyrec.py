"""Tests for polymorphic-recursive const inference (Section 4.3: the
FDG-free alternative to let-style polymorphism)."""

import dataclasses

import pytest

from repro.benchsuite.suite import PAPER_BENCHMARKS, generate_source
from repro.cfront.sema import Program
from repro.constinfer.engine import run_mono, run_poly, run_polyrec
from repro.qual.solver import Classification


def verdicts(run):
    return {p.describe(): v for p, v in run.classified_positions()}


MIXED = """
int *id(int *x) { return x; }
void put(void) { int a; *id(&a) = 1; }
int get(void) { int b; return *id(&b); }
"""


class TestAgreementWithLetPoly:
    def test_counts_match_on_mixed_use(self):
        program = Program.from_source(MIXED)
        poly = run_poly(program)
        polyrec = run_polyrec(program)
        assert polyrec.inferred_const_count() == poly.inferred_const_count()
        assert verdicts(polyrec) == verdicts(poly)

    def test_counts_match_on_benchmark(self):
        from repro.benchsuite import PAPER_BENCHMARKS, load_program

        program, _c, _l = load_program(PAPER_BENCHMARKS[0])
        poly = run_poly(program)
        polyrec = run_polyrec(program)
        assert verdicts(polyrec) == verdicts(poly)

    @pytest.mark.parametrize("spec", PAPER_BENCHMARKS, ids=lambda s: s.name)
    def test_verdicts_match_on_natural_length_programs(self, spec):
        # polyrec generalises each round in one indexed pass, so every
        # Table 2 program runs at natural length in tier-1
        source = generate_source(dataclasses.replace(spec, lines=0))
        program = Program.from_source(source, spec.name)
        poly = run_poly(program)
        polyrec = run_polyrec(program)
        keyed = lambda run: {
            (p.function, p.where, p.depth): v for p, v in run.classified_positions()
        }
        assert len(keyed(poly)) == len(poly.positions) == spec.total
        assert keyed(polyrec) == keyed(poly)

    def test_beats_mono(self):
        program = Program.from_source(MIXED)
        assert (
            run_polyrec(program).inferred_const_count()
            > run_mono(program).inferred_const_count()
        )


class TestRecursion:
    def test_self_recursive_reader(self):
        source = """
        int walk(int *p, int n) { if (n) { return walk(p, n - 1); } return *p; }
        """
        run = run_polyrec(Program.from_source(source))
        v = verdicts(run)
        assert v["walk: param 0 (p) depth 1"] is Classification.EITHER

    def test_self_recursive_writer(self):
        source = """
        void zap(int *p, int n) { if (n) { *p = n; zap(p, n - 1); } }
        """
        run = run_polyrec(Program.from_source(source))
        v = verdicts(run)
        assert v["zap: param 0 (p) depth 1"] is Classification.MUST_NOT

    def test_mutual_recursion_without_fdg(self):
        # polyrec never builds the FDG; mutual recursion converges by
        # fixpoint iteration instead.
        source = """
        int pong(int *q, int n);
        int ping(int *q, int n) { if (n) return pong(q, n - 1); return *q; }
        int pong(int *q, int n) { return ping(q, n); }
        """
        run = run_polyrec(Program.from_source(source))
        v = verdicts(run)
        assert v["ping: param 0 (q) depth 1"] is Classification.EITHER
        assert v["pong: param 0 (q) depth 1"] is Classification.EITHER

    def test_mutual_recursion_with_write(self):
        source = """
        void b(int *q, int n);
        void a(int *q, int n) { if (n) b(q, n - 1); }
        void b(int *q, int n) { *q = n; a(q, n); }
        """
        run = run_polyrec(Program.from_source(source))
        v = verdicts(run)
        assert v["a: param 0 (q) depth 1"] is Classification.MUST_NOT
        assert v["b: param 0 (q) depth 1"] is Classification.MUST_NOT


class TestFixpointMachinery:
    def test_converges_within_cap(self):
        # a chain of functions needs several rounds for summaries to
        # stabilise without dependency ordering.
        source = """
        int l0(int *p) { return *p; }
        int l1(int *p) { return l0(p); }
        int l2(int *p) { return l1(p); }
        int l3(int *p) { return l2(p); }
        void sink(void) { int x; *grab(&x) = 1; }
        int *grab(int *y) { return y; }
        """
        program = Program.from_source(source)
        run = run_polyrec(program)
        v = verdicts(run)
        for name in ("l0", "l1", "l2", "l3"):
            assert v[f"{name}: param 0 (p) depth 1"] is Classification.EITHER
        assert v["grab: param 0 (y) depth 1"] is Classification.EITHER

    def test_iteration_cap_respected(self):
        program = Program.from_source(MIXED)
        run = run_polyrec(program, max_iterations=1)
        # one round = monomorphic assumptions everywhere: still sound,
        # counts sit between mono and poly.
        mono = run_mono(program)
        poly = run_poly(program)
        assert (
            mono.inferred_const_count()
            <= run.inferred_const_count()
            <= poly.inferred_const_count()
        )

    def test_mode_label_and_timing(self):
        run = run_polyrec(Program.from_source(MIXED))
        assert run.mode == "polyrec"
        assert run.elapsed_seconds > 0

    def test_globals_and_fields_survive_iterations(self):
        source = """
        struct st { int *slot; };
        int table;
        void put(struct st *s, int *p) { s->slot = p; }
        void zap(struct st *t) { *(t->slot) = 2; }
        int *get(void) { return &table; }
        void wr(void) { *get() = 1; }
        """
        run = run_polyrec(Program.from_source(source))
        v = verdicts(run)
        # field sharing must hold across fixpoint rounds:
        assert v["put: param 1 (p) depth 1"] is Classification.MUST_NOT
        # and the global-getter gap still resolves polymorphically:
        assert v["get: return depth 1"] is Classification.EITHER
