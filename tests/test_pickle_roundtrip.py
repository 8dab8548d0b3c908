"""Pickling round-trips for everything the process-pool suite runner
and the on-disk analysis cache ship between processes: parsed
:class:`Program` objects, generated constraint systems (constraints and
positions in one blob, preserving qualifier-variable identity), and
solved :class:`Solution` objects."""

import pickle

import pytest

from repro.cfront.sema import Program
from repro.constinfer.engine import run_mono, run_poly
from repro.qual.lattice import QualifierLattice
from repro.qual.qualifiers import const_lattice
from repro.qual.solver import solve
from repro.qual.qtypes import QualVar

SOURCE = """
struct point { int *coords; };
int *shared_cell;
const char *greet(const char *name) { return name; }
int deref(int *p) { return *p; }
void touch(struct point *pt) { *pt->coords = 1; }
int use(int *q) { shared_cell = q; return deref(q); }
"""


def roundtrip(value):
    return pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


class TestProgramPickling:
    def test_program_roundtrips(self):
        program = Program.from_source(SOURCE)
        copy = roundtrip(program)
        assert sorted(copy.functions) == sorted(program.functions)
        assert sorted(copy.globals) == sorted(program.globals)
        assert sorted(copy.structs) == sorted(program.structs)

    def test_unpickled_program_analyzes_identically(self):
        program = Program.from_source(SOURCE)
        copy = roundtrip(program)
        original = run_mono(program)
        again = run_mono(copy)
        key = lambda run: sorted(
            (p.function, p.where, p.depth, run.classify(p).name)
            for p in run.positions
        )
        assert key(original) == key(again)


class TestLatticePickling:
    def test_lattice_roundtrips(self):
        lattice = const_lattice()
        copy = roundtrip(lattice)
        assert isinstance(copy, QualifierLattice)
        assert copy.names == lattice.names

    def test_elements_reintern_into_their_lattice(self):
        lattice = const_lattice()
        element = lattice.top
        copy = roundtrip(element)
        # structural equality survives; the copy is interned in *its*
        # (rebuilt) lattice and equal to the original
        assert copy == element
        assert copy.present == element.present

    def test_element_identity_within_one_blob(self):
        lattice = const_lattice()
        pair = roundtrip((lattice.top, lattice.top))
        assert pair[0] is pair[1]


class TestConstraintSystemPickling:
    def test_constraints_and_positions_share_variables(self):
        """The cache stores (constraints, positions) as ONE blob exactly
        so that a variable appearing in both keeps a single identity."""
        program = Program.from_source(SOURCE)
        run = run_mono(program)
        constraints, positions = roundtrip(
            (run.inference.constraints, run.inference.positions)
        )
        assert len(constraints) == len(run.inference.constraints)
        assert len(positions) == len(run.inference.positions)
        by_uid = {}
        for c in constraints:
            for side in (c.lhs, c.rhs):
                if isinstance(side, QualVar):
                    assert by_uid.setdefault((side.uid, side.name), side) is side
        for p in positions:
            known = by_uid.get((p.var.uid, p.var.name))
            if known is not None:
                assert known is p.var

    def test_unpickled_system_solves_identically(self):
        program = Program.from_source(SOURCE)
        run = run_poly(program)
        constraints, positions = roundtrip(
            (run.inference.constraints, run.inference.positions)
        )
        lattice = None
        for c in constraints:
            for side in (c.lhs, c.rhs):
                owner = getattr(side, "lattice", None)
                if owner is not None:
                    lattice = owner
                    break
            if lattice:
                break
        assert lattice is not None
        solution = solve(constraints, lattice, extra_vars=[p.var for p in positions])
        for original_pos, copied_pos in zip(run.positions, positions):
            assert (
                solution.classify(copied_pos.var, "const")
                == run.solution.classify(original_pos.var, "const")
            )


class TestSolutionPickling:
    def test_solution_roundtrips_with_classifications(self):
        program = Program.from_source(SOURCE)
        run = run_mono(program)
        copy = roundtrip(run.solution)
        for p in roundtrip(run.inference.positions):
            # classify by uid/name-equal variables from the same blob
            matching = [q for q in run.positions if q.var.uid == p.var.uid]
            assert matching
            assert copy.classify(p.var, "const") == run.solution.classify(
                matching[0].var, "const"
            )

    def test_stats_survive(self):
        program = Program.from_source(SOURCE)
        run = run_mono(program)
        copy = roundtrip(run.solution)
        assert copy.stats == run.solution.stats


class TestBenchmarkRowPickling:
    def test_row_roundtrips(self):
        from repro.benchsuite.suite import run_benchmark, scaling_spec

        row = run_benchmark(scaling_spec(1))
        copy = roundtrip(row)
        assert copy == row
