"""Tests for the synthetic benchmark generator and suite: determinism,
exact position-mix realisation, and the Table 1/2 spec integrity."""

import pytest

from repro.benchsuite.generator import (
    BenchmarkGenerator,
    PositionMix,
    generate_benchmark,
)
from repro.benchsuite.suite import (
    PAPER_BENCHMARKS,
    PAPER_TIMINGS,
    generate_source,
    load_program,
    run_benchmark,
    spec_by_name,
)
from repro.cfront.sema import Program
from repro.constinfer.engine import run_mono, run_poly


class TestPositionMix:
    def test_from_table2(self):
        mix = PositionMix.from_table2(50, 67, 72, 95)
        assert (mix.declared, mix.mono_extra, mix.poly_extra, mix.other) == (
            50, 17, 5, 23,
        )
        assert (mix.mono, mix.poly, mix.total) == (67, 72, 95)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            PositionMix.from_table2(10, 5, 20, 30)


class TestGeneratorDeterminism:
    def test_same_seed_same_source(self):
        mix = PositionMix(3, 3, 3, 3)
        a = generate_benchmark("x", 7, mix, 300)
        b = generate_benchmark("x", 7, mix, 300)
        assert a == b

    def test_different_seed_different_source(self):
        mix = PositionMix(3, 3, 3, 3)
        a = generate_benchmark("x", 7, mix, 300)
        b = generate_benchmark("x", 8, mix, 300)
        assert a != b


@pytest.mark.parametrize(
    "mix",
    [
        PositionMix(0, 0, 0, 0),
        PositionMix(5, 0, 0, 0),
        PositionMix(0, 5, 0, 0),
        PositionMix(0, 0, 1, 0),   # single gap position (global getter)
        PositionMix(0, 0, 2, 0),   # forwarder
        PositionMix(0, 0, 3, 0),   # selector
        PositionMix(0, 0, 7, 0),   # composed: 3 + 3 + ... remainders
        PositionMix(0, 0, 0, 4),
        PositionMix(4, 6, 5, 3),
    ],
)
def test_generator_realises_exact_mix(mix):
    source = generate_benchmark("probe", 99, mix, target_lines=0)
    program = Program.from_source(source)
    mono, poly = run_mono(program), run_poly(program)
    assert mono.total_positions() == mix.total
    assert mono.declared_count() == mix.declared
    assert mono.inferred_const_count() == mix.mono
    assert poly.inferred_const_count() == mix.poly


class TestLineTargets:
    def test_padding_reaches_target(self):
        mix = PositionMix(1, 1, 1, 1)
        source = generate_benchmark("padded", 5, mix, target_lines=800)
        lines = source.count("\n") + 1
        assert lines >= 800
        # padding should not wildly overshoot
        assert lines < 800 * 1.25

    def test_units_alone_can_exceed_target(self):
        mix = PositionMix(10, 10, 9, 10)
        source = generate_benchmark("tight", 5, mix, target_lines=10)
        assert source.count("\n") + 1 > 10


class TestSuiteSpecs:
    def test_six_benchmarks(self):
        assert len(PAPER_BENCHMARKS) == 6
        names = [s.name for s in PAPER_BENCHMARKS]
        assert names[0] == "woman-3.0a" and names[-1] == "uucp-1.04"

    def test_counts_are_the_papers(self):
        uucp = spec_by_name("uucp-1.04")
        assert (uucp.declared, uucp.mono, uucp.poly, uucp.total) == (
            433, 1116, 1299, 1773,
        )

    def test_timings_recorded_for_all(self):
        assert set(PAPER_TIMINGS) == {s.name for s in PAPER_BENCHMARKS}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            spec_by_name("emacs")

    def test_generate_source_cached(self):
        spec = PAPER_BENCHMARKS[0]
        assert generate_source(spec) is generate_source(spec)


class TestEndToEnd:
    def test_smallest_benchmark_reproduces_paper_counts(self):
        spec = spec_by_name("woman-3.0a")
        row = run_benchmark(spec)
        assert (row.declared, row.mono, row.poly, row.total_possible) == (
            spec.declared, spec.mono, spec.poly, spec.total,
        )

    def test_load_program_parses(self):
        program, compile_seconds, lines = load_program(PAPER_BENCHMARKS[0])
        assert compile_seconds > 0
        assert lines >= PAPER_BENCHMARKS[0].lines
        assert program.functions


class TestSuiteParallelism:
    def test_process_pool_rows_match_serial(self):
        from repro.benchsuite.suite import benchmark_rows, scaling_specs

        specs = scaling_specs((1, 2))
        serial = benchmark_rows(specs)
        pooled = benchmark_rows(specs, jobs=2)
        key = lambda r: (r.name, r.declared, r.mono, r.poly, r.total_possible)
        assert [key(r) for r in serial] == [key(r) for r in pooled]

    def test_pool_preserves_spec_order(self):
        from repro.benchsuite.suite import benchmark_rows, scaling_specs

        specs = scaling_specs((2, 1))
        rows = benchmark_rows(specs, jobs=2)
        assert [r.name for r in rows] == ["sweep-2", "sweep-1"]
