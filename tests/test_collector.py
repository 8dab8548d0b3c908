"""The const-inference engines pause CPython's cyclic collector while
they run.  That is only safe if the pause always restores the prior
collector state and an engine run leaves no cyclic garbage that grows
with the program: these tests pin both."""

import dataclasses
import functools
import gc

import pytest

from repro.benchsuite.suite import generate_source, spec_by_name
from repro.cfront.ctypes import CBase, CFunc, CPointer, lvalue_qtype
from repro.cfront.sema import Program
from repro.constinfer.engine import _collector_paused, run_mono, run_poly, run_polyrec

#: Cyclic objects an engine run may leave behind, whatever the program's
#: size (a constant handful of per-run bookkeeping objects).
MAX_CYCLIC_OBJECTS = 16


@pytest.fixture
def collector_state():
    """Restore the collector's state however a test leaves it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPaused:
    def test_enabled_stays_enabled(self, collector_state):
        gc.enable()
        with _collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_disabled_stays_disabled(self, collector_state):
        gc.disable()
        with _collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()

    def test_restores_state_when_body_raises(self, collector_state):
        gc.enable()
        with pytest.raises(ValueError):
            with _collector_paused():
                raise ValueError("boom")
        assert gc.isenabled()

    def test_nests(self, collector_state):
        gc.enable()
        with _collector_paused():
            with _collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    @pytest.mark.parametrize("engine", [run_mono, run_poly, run_polyrec])
    def test_engine_restores_state(self, collector_state, engine):
        program = Program.from_source("int f(int *p) { return *p; }", "t")
        gc.enable()
        engine(program)
        assert gc.isenabled()
        gc.disable()
        engine(program)
        assert not gc.isenabled()


@functools.lru_cache(maxsize=None)
def natural_length_program(name: str) -> Program:
    spec = dataclasses.replace(spec_by_name(name), lines=0)
    return Program.from_source(generate_source(spec), spec.name)


class TestNoCyclicGarbage:
    # A small and a large generated program per engine.  run_polyrec
    # generalises every function over the whole program's constraints
    # each round, so its large case is patch-2.5 (294 functions, ~1.5 s)
    # rather than ssh-1.2.26 (982 functions, ~16 s).
    @pytest.mark.parametrize(
        "name, engine",
        [
            ("woman-3.0a", run_mono),
            ("ssh-1.2.26", run_mono),
            ("woman-3.0a", run_poly),
            ("ssh-1.2.26", run_poly),
            ("woman-3.0a", run_polyrec),
            ("patch-2.5", run_polyrec),
        ],
    )
    def test_engine_run_leaves_constant_cycles(self, collector_state, name, engine):
        program = natural_length_program(name)
        gc.disable()
        run = engine(program)  # warm-up: first-use caches and interning
        del run
        gc.collect()
        run = engine(program)
        del run
        assert gc.collect() <= MAX_CYCLIC_OBJECTS

    def test_lvalue_translation_leaves_no_cycles(self, collector_state):
        gc.disable()
        types = [
            CPointer(CPointer(CBase("char", frozenset({"const"})))),
            CFunc(CPointer(CBase("int")), (CPointer(CBase("char")), CBase("int"))),
        ]
        gc.collect()
        for i in range(1000):
            lvalue_qtype(types[i % len(types)])
        assert gc.collect() == 0
