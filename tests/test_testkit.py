"""The testkit's own tests: generator guarantees, oracle agreement on
the shipped engines, and the mutation smoke test — a deliberately broken
solver must be caught by the differential matrix and delta-debugged to a
tiny reproducer (the end-to-end proof that the harness can actually
catch and shrink an engine bug)."""

import subprocess
import sys

import pytest

from repro.lam.infer import QualTypeError, infer
from repro.lam.parser import parse
from repro.qual.lattice import LatticeElement
from repro.qual.solver import solve
from repro.testkit import (
    Disagreement,
    EngineConfig,
    FuzzSession,
    check_c_corpus,
    check_lambda,
    reduce_c_corpus,
    reduce_lambda,
)
from repro.testkit.cgen import generate_c_corpus
from repro.testkit.cli import build_parser, parse_budget, parse_engines
from repro.testkit.lamgen import generate_lambda
from repro.testkit.oracles import ALL_ORACLES
from repro.testkit.reduce import (
    emit_lambda_regression,
    failure_predicate,
    size_of,
)
from repro.testkit.transforms import insert_dead_lets, rename_vars


class TestLambdaGenerator:
    def test_deterministic_in_seed(self):
        assert str(generate_lambda(7).expr) == str(generate_lambda(7).expr)
        assert str(generate_lambda(7).expr) != str(generate_lambda(8).expr)

    def test_well_typed_by_construction(self):
        for seed in range(50):
            generated = generate_lambda(seed)
            infer(generated.expr, generated.language)  # must not raise

    def test_programs_roundtrip_through_parser(self):
        for seed in range(20):
            generated = generate_lambda(seed)
            assert str(parse(generated.source())) == generated.source()

    def test_strip_fallback_is_rare(self):
        stripped = sum(generate_lambda(s).stripped for s in range(100))
        assert stripped < 15


class TestCCorpusGenerator:
    def test_deterministic_in_seed(self):
        assert generate_c_corpus(3).sources() == generate_c_corpus(3).sources()

    def test_units_are_parseable(self):
        from repro.cfront.sema import Program

        corpus = generate_c_corpus(5)
        for name, text in corpus.sources().items():
            Program.from_source(text, name)

    def test_repartition_keeps_modules(self):
        corpus = generate_c_corpus(5)
        moved = corpus.repartitioned(999)
        assert [m.name for m in moved.modules] == [m.name for m in corpus.modules]
        assert all(a < moved.n_units for a in moved.assignment)


class TestTransforms:
    def test_rename_is_deterministic_and_capture_free(self):
        expr = next(
            e
            for e in (generate_lambda(s).expr for s in range(30))
            if "fn " in str(e) or "let " in str(e)  # has binders to rename
        )
        once, twice = rename_vars(expr, salt=1), rename_vars(expr, salt=1)
        assert str(once) == str(twice)
        assert str(once) != str(expr)

    def test_dead_lets_grow_the_program(self):
        expr = generate_lambda(11).expr
        grown = insert_dead_lets(expr, seed=3)
        assert size_of(grown) >= size_of(expr)


class TestOracleMatrix:
    def test_lambda_sweep_is_clean(self):
        for seed in range(25):
            generated = generate_lambda(seed)
            assert check_lambda(generated.expr, generated.language) == []

    def test_c_sweep_is_clean(self):
        for seed in range(3):
            assert check_c_corpus(generate_c_corpus(seed)) == []

    def test_oracle_filter_restricts_families(self):
        generated = generate_lambda(0)
        config = EngineConfig(oracles=frozenset({"solver"}))
        assert config.enabled("solver")
        assert not config.enabled("cache")
        assert check_lambda(generated.expr, generated.language, config) == []


def buggy_solve(constraints, lattice, extra_vars=()):
    """The seeded mutant: silently drops every constraint whose constant
    lower bound mentions ``const`` — annotated values stop propagating."""
    kept = [
        c
        for c in constraints
        if not (isinstance(c.lhs, LatticeElement) and "const" in c.lhs.present)
    ]
    return solve(kept, lattice, extra_vars=extra_vars)


class TestMutationSmokeTest:
    """Acceptance: an injected solver bug is caught by the matrix and
    reduced to a reproducer of at most 10 AST nodes."""

    def find_catch(self, config):
        for seed in range(100):
            generated = generate_lambda(seed)
            found = check_lambda(generated.expr, generated.language, config)
            if found:
                return generated, found
        pytest.fail("mutant solver survived 100 generated programs")

    def test_bug_is_caught_and_reduced_small(self):
        config = EngineConfig(solve_fn=buggy_solve, oracles=frozenset({"solver"}))
        generated, found = self.find_catch(config)
        assert all(d.oracle == "solver" for d in found)

        predicate = failure_predicate(generated.language, {"solver"}, config)
        reduced = reduce_lambda(generated.expr, predicate)
        assert size_of(reduced) <= 10
        assert predicate(reduced)
        # the reproducer survives a print/parse round trip
        assert predicate(parse(str(reduced)))

    def test_emitted_regression_test_is_executable(self, tmp_path):
        config = EngineConfig(solve_fn=buggy_solve, oracles=frozenset({"solver"}))
        generated, found = self.find_catch(config)
        predicate = failure_predicate(generated.language, {"solver"}, config)
        reduced = reduce_lambda(generated.expr, predicate)

        text = emit_lambda_regression(reduced, found, generated.seed)
        namespace = {}
        exec(compile(text, "test_repro.py", "exec"), namespace)
        # Against the honest engines the reduced program is clean, so
        # the emitted test passes — it guards against regression.
        namespace["test_reduced_reproducer"]()

    def test_honest_engines_never_trigger_the_predicate(self):
        generated = generate_lambda(0)
        predicate = failure_predicate(generated.language, {"solver"})
        with pytest.raises(ValueError):
            reduce_lambda(generated.expr, predicate)


class TestFuzzSession:
    def test_clean_session_report(self):
        report = FuzzSession(seed=1, budget_seconds=30.0, max_programs=12).run()
        assert report.programs == 12
        assert report.lambda_programs + report.c_corpora == 12
        assert report.c_corpora >= 1
        assert report.ok
        assert "all oracles agree" in report.summary()

    def test_buggy_session_writes_artifacts(self, tmp_path):
        config = EngineConfig(solve_fn=buggy_solve, oracles=frozenset({"solver"}))
        report = FuzzSession(
            seed=0,
            budget_seconds=60.0,
            max_programs=12,
            config=config,
            out_dir=tmp_path,
        ).run()
        assert not report.ok
        assert report.failures
        for failure in report.failures:
            assert failure.artifact is not None
            assert "def test_reduced_reproducer" in open(failure.artifact).read()
        assert "FAILURE" in report.summary()
        assert '"failures"' in report.to_json()


class TestCli:
    def test_budget_units(self):
        assert parse_budget("90") == 90.0
        assert parse_budget("90s") == 90.0
        assert parse_budget("5m") == 300.0
        assert parse_budget("1h") == 3600.0

    def test_engines_validation(self):
        assert parse_engines("solver,cache") == frozenset({"solver", "cache"})
        with pytest.raises(Exception):
            parse_engines("solver,warp-drive")

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seed == 0 and args.budget == 60.0 and args.engines is None

    def test_module_entry_point(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.testkit",
                "fuzz",
                "--seed",
                "1",
                "--programs",
                "6",
                "--budget",
                "60s",
                "--quiet",
                "--json",
                str(tmp_path / "report.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "all oracles agree" in result.stdout
        assert (tmp_path / "report.json").exists()


class TestReducerProperties:
    def test_reduction_is_monotone(self):
        config = EngineConfig(solve_fn=buggy_solve, oracles=frozenset({"solver"}))
        for seed in range(40):
            generated = generate_lambda(seed)
            if not check_lambda(generated.expr, generated.language, config):
                continue
            predicate = failure_predicate(generated.language, {"solver"}, config)
            reduced = reduce_lambda(generated.expr, predicate)
            assert size_of(reduced) <= size_of(generated.expr)
            break
        else:
            pytest.fail("no catch to reduce")

    def test_c_reducer_requires_failing_input(self):
        corpus = generate_c_corpus(0)
        with pytest.raises(ValueError):
            reduce_c_corpus(corpus, lambda _: False)
