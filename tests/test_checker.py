"""Tests for the qlint checker subsystem: per-check planted violations
(with provenance spans on every flow step), provably shortest taint
paths, suppression comments, fingerprints/baselines, the batch runner,
and the lambda adapter."""

import json

import pytest

from repro.checker import (
    Baseline,
    Diagnostic,
    Span,
    apply_suppressions,
    assign_fingerprints,
    check_by_name,
    check_lambda_source,
    check_paths,
    check_source,
    render_human,
    render_json,
)

TAINT_SRC = """\
char *getenv(const char *n);
int printf(const char *f, ...);
int main(void) {
    char *a = getenv("X");
    char *b = a;
    char *c = b;
    char *d = c;
    printf(d);
    printf(a);
    return 0;
}
"""

NULL_SRC = """\
void *malloc(unsigned long n);
int main(void) {
    int *p = malloc(16);
    *p = 3;
    return 0;
}
"""

CAST_SRC = """\
void f(const char *s) {
    char *w = (char *)s;
    w[0] = 'x';
}
"""

BINDING_SRC = """\
int rand(void);
void *alloca(int n);
int main(void) {
    int n = rand() + 1;
    alloca(n);
    return 0;
}
"""

CLEAN_SRC = """\
int printf(const char *f, ...);
int main(void) {
    printf("%d", 42);
    return 0;
}
"""


def findings(source, name="unit.c", checks=None):
    if checks is None:
        return check_source(source, filename=name)
    return check_source(source, filename=name, checks=tuple(checks))


class TestPlantedViolations:
    def test_tainted_format_reported(self):
        diags = [d for d in findings(TAINT_SRC) if d.check == "tainted-format"]
        assert len(diags) == 1
        assert diags[0].severity == "error"
        assert "printf" in diags[0].message

    def test_every_flow_step_has_valid_span(self):
        for source in (TAINT_SRC, NULL_SRC, CAST_SRC, BINDING_SRC):
            for diag in findings(source):
                assert diag.flow, f"{diag.check} has no flow path"
                for step in diag.flow:
                    assert step.span.is_valid, f"{diag.check}: {step.note}"
                assert diag.span.is_valid

    def test_nonnull_deref_reported_at_deref_site(self):
        diags = [d for d in findings(NULL_SRC) if d.check == "nonnull-deref"]
        assert len(diags) == 1
        # primary span is the dereference, line 4
        assert diags[0].span.line == 4
        assert "malloc" in diags[0].message
        assert diags[0].flow[-1].note == "dereferenced here"

    def test_cast_away_const_reported(self):
        diags = [d for d in findings(CAST_SRC) if d.check == "casts-away-const"]
        assert len(diags) == 1
        assert diags[0].span.line == 2
        assert "casts away const" in diags[0].message

    def test_for_init_declaration_is_scoped_to_its_loop(self):
        # The loop's `const char *p` shadows the outer `char *p` only
        # inside the loop; the cast after it converts the outer one.
        source = (
            "void use(char *q);\n"
            "void f(const char *s) {\n"
            "    char *p = 0;\n"
            "    for (const char *p = s; *p; p++) { use((char *)p); }\n"
            "    use((char *)p);\n"
            "}\n"
        )
        diags = findings(source, checks=[check_by_name("casts-away-const")])
        assert [(d.span.line, d.span.column) for d in diags] == [(4, 44)]

    def test_block_declaration_is_scoped_to_its_block(self):
        source = (
            "void use(char *q);\n"
            "void f(const char *s) {\n"
            "    char *p = 0;\n"
            "    { const char *p = s; use((char *)p); }\n"
            "    use((char *)p);\n"
            "}\n"
        )
        diags = findings(source, checks=[check_by_name("casts-away-const")])
        assert [d.span.line for d in diags] == [4]

    def test_declaration_is_in_scope_in_its_own_initialiser(self):
        # As in C, the inner `s` is in scope in its own initialiser, so
        # the cast converts a `char *` and casts nothing away.
        source = (
            "void use(char *q);\n"
            "void f(const char *s) { { char *s = (char *)s; use(s); } }\n"
        )
        assert findings(source, checks=[check_by_name("casts-away-const")]) == []

    def test_binding_time_survives_arithmetic(self):
        diags = [d for d in findings(BINDING_SRC) if d.check == "binding-time"]
        assert len(diags) == 1
        assert "rand" in diags[0].message or "alloca" in diags[0].message

    def test_clean_unit_reports_nothing(self):
        assert findings(CLEAN_SRC) == []


class TestShortestPath:
    def test_taint_path_is_the_hand_computed_shortest(self):
        """Two routes reach the printf sink: a -> b -> c -> d -> printf
        (5 constraint hops) and a -> printf directly (2 hops).  BFS must
        return the short one: seed, initializer of a, call argument."""
        [diag] = [d for d in findings(TAINT_SRC) if d.check == "tainted-format"]
        notes = [step.note for step in diag.flow]
        assert notes == [
            "tainted source getenv",
            "initializer of a",
            "call argument",
        ]
        assert [step.span.line for step in diag.flow] == [1, 4, 9]

    def test_solver_flow_path_unit(self):
        from repro.qual.constraints import Origin, QualConstraint
        from repro.qual.qtypes import fresh_qual_var
        from repro.qual.qualifiers import make_lattice
        from repro.qual.solver import shortest_flow_path

        lattice = make_lattice("tainted")
        a, b, c, sink = (fresh_qual_var(n) for n in "abcs")
        seed = lattice.atom("tainted")
        constraints = [
            QualConstraint(seed, a, Origin("seed")),
            QualConstraint(a, b, Origin("e1")),
            QualConstraint(b, c, Origin("e2")),
            QualConstraint(c, sink, Origin("e3")),
            QualConstraint(a, sink, Origin("direct")),
        ]
        path = shortest_flow_path(
            constraints, lattice, sink, lattice.assertion_bound("tainted")
        )
        assert [c.origin.reason for c in path] == ["seed", "direct"]

    def test_no_path_when_bound_satisfied(self):
        from repro.qual.constraints import Origin, QualConstraint
        from repro.qual.qtypes import fresh_qual_var
        from repro.qual.qualifiers import make_lattice
        from repro.qual.solver import shortest_flow_path

        lattice = make_lattice("tainted")
        a = fresh_qual_var("a")
        constraints = [QualConstraint(lattice.bottom, a, Origin("clean"))]
        assert (
            shortest_flow_path(
                constraints, lattice, a, lattice.assertion_bound("tainted")
            )
            is None
        )


class TestSuppression:
    def test_allow_comment_silences_exactly_that_diagnostic(self):
        source = (
            "void *malloc(unsigned long n);\n"
            "int f(void) {\n"
            "    int *p = malloc(4);\n"
            "    int *q = malloc(4);\n"
            "    /* qlint: allow(nonnull-deref) */\n"
            "    *p = 1;\n"
            "    *q = 2;\n"
            "    return 0;\n"
            "}\n"
        )
        diags = check_source(source, filename="s.c")
        diags = apply_suppressions(diags, {"s.c": source})
        nonnull = [d for d in diags if d.check == "nonnull-deref"]
        assert len(nonnull) == 2
        by_line = {d.span.line: d.suppressed for d in nonnull}
        assert by_line[6] is True  # guarded by the allow comment above
        assert by_line[7] is False  # untouched

    def test_allow_by_qualifier_name(self):
        source = "line one\n/* qlint: allow(tainted) */\nflagged line\n"
        diag = Diagnostic(
            check="tainted-format",
            qualifier="tainted",
            severity="error",
            message="m",
            span=Span("f.c", 3, 1),
        )
        [out] = apply_suppressions([diag], {"f.c": source})
        assert out.suppressed

    def test_unrelated_allow_does_not_suppress(self):
        source = "/* qlint: allow(casts-away-const) */\nflagged\n"
        diag = Diagnostic(
            check="tainted-format",
            qualifier="tainted",
            severity="error",
            message="m",
            span=Span("f.c", 2, 1),
        )
        [out] = apply_suppressions([diag], {"f.c": source})
        assert not out.suppressed


class TestFingerprintsAndBaseline:
    def _diag(self, message="m", line=2):
        return Diagnostic(
            check="tainted-format",
            qualifier="tainted",
            severity="error",
            message=message,
            span=Span("f.c", line, 1),
        )

    def test_fingerprint_stable_under_line_insertion(self):
        source_v1 = "int x;\nbad line\n"
        source_v2 = "int x;\n// new comment\nbad line\n"
        [d1] = assign_fingerprints([self._diag(line=2)], {"f.c": source_v1})
        [d2] = assign_fingerprints([self._diag(line=3)], {"f.c": source_v2})
        assert d1.fingerprint and d1.fingerprint == d2.fingerprint

    def test_identical_lines_disambiguated(self):
        source = "bad\nbad\n"
        out = assign_fingerprints(
            [self._diag(line=1), self._diag(line=2)], {"f.c": source}
        )
        assert out[0].fingerprint != out[1].fingerprint

    def test_baseline_roundtrip_and_compare(self, tmp_path):
        source = "aaa\nbbb\n"
        diags = assign_fingerprints(
            [self._diag(line=1), self._diag(line=2, message="other")],
            {"f.c": source},
        )
        baseline = Baseline.from_diagnostics(diags)
        path = tmp_path / "baseline.json"
        baseline.save(path)
        loaded = Baseline.load(path)
        new, lost = loaded.compare(diags)
        assert new == [] and lost == set()
        new, lost = loaded.compare(diags[:1])
        assert new == [] and lost == {diags[1].fingerprint}
        extra = assign_fingerprints([self._diag(message="brand new")], {"f.c": source})
        new, _ = loaded.compare(diags + extra)
        assert [d.message for d in new] == ["brand new"]


class TestRunner:
    def _write_corpus(self, tmp_path):
        (tmp_path / "bug.c").write_text(NULL_SRC)
        (tmp_path / "ok.c").write_text(CLEAN_SRC)
        sub = tmp_path / "nested"
        sub.mkdir()
        (sub / "cast.c").write_text(CAST_SRC)
        return tmp_path

    def test_batch_walks_directories(self, tmp_path):
        corpus = self._write_corpus(tmp_path)
        report = check_paths([corpus])
        assert len(report.files) == 3
        assert {d.check for d in report.diagnostics} == {
            "nonnull-deref",
            "casts-away-const",
        }
        assert report.errors == {}
        assert report.exit_code == 1  # nonnull-deref is an error

    def test_cache_warm_run_matches_cold(self, tmp_path):
        corpus = self._write_corpus(tmp_path)
        cache = tmp_path / ".cache"
        cold = check_paths([corpus], cache_dir=cache)
        warm = check_paths([corpus], cache_dir=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == 3
        assert warm.cache_hits == 3 and warm.cache_misses == 0
        assert [d.to_dict() for d in warm.diagnostics] == [
            d.to_dict() for d in cold.diagnostics
        ]

    def test_jobs_parallel_is_deterministic(self, tmp_path):
        corpus = self._write_corpus(tmp_path)
        serial = check_paths([corpus])
        parallel = check_paths([corpus], jobs=2)
        assert [d.to_dict() for d in parallel.diagnostics] == [
            d.to_dict() for d in serial.diagnostics
        ]

    def test_unparseable_file_reported_not_fatal(self, tmp_path):
        (tmp_path / "broken.c").write_text("int main( {{{\n")
        (tmp_path / "ok.c").write_text(CLEAN_SRC)
        report = check_paths([tmp_path])
        assert list(report.errors) == [str(tmp_path / "broken.c")]
        assert report.exit_code == 1

    def test_unknown_check_name_rejected(self, tmp_path):
        with pytest.raises(KeyError):
            check_paths([tmp_path], checks=["no-such-check"])


class TestRenderers:
    def test_human_includes_caret_and_flow(self):
        diags = findings(TAINT_SRC, name="t.c")
        diags = assign_fingerprints(diags, {"t.c": TAINT_SRC})
        text = render_human(diags, {"t.c": TAINT_SRC})
        assert "t.c:9:11: error:" in text
        assert "qualifier flow:" in text
        assert "^" in text
        assert "tainted source getenv" in text

    def test_human_empty(self):
        assert render_human([]) == "qlint: no findings\n"

    def test_json_roundtrips(self):
        diags = findings(TAINT_SRC, name="t.c")
        payload = json.loads(render_json(diags))
        assert payload["tool"] == "qlint"
        assert payload["diagnostics"][0]["check"] == "tainted-format"
        assert payload["diagnostics"][0]["flow"]


class TestConstViolationDegradation:
    def test_write_through_const_becomes_diagnostic(self):
        source = "void f(void) {\n    const int x = 1;\n    *(&x) = 2;\n}\n"
        diags = check_source(source, filename="c.c")
        const = [d for d in diags if d.check == "const-violation"]
        assert len(const) == 1
        assert const[0].severity == "error"
        assert const[0].span.is_valid

    def test_message_does_not_depend_on_process_history(self):
        """Qualifier-variable uids come from a process-wide counter, so a
        message naming them would change with whatever ran before it —
        and the message feeds the fingerprint."""
        from pathlib import Path

        from repro.checker.runner import analyze

        target = Path(__file__).resolve().parent.parent / "examples" / "realworld" / "args.c"

        def const_findings():
            report = analyze([str(target)], best_effort=True)
            return [
                (d.message, d.fingerprint)
                for d in report.diagnostics
                if d.check == "const-violation"
            ]

        first = const_findings()
        assert first
        assert const_findings() == first


class TestLambdaAdapter:
    def test_insecure_program_reports_flow(self):
        diags = check_lambda_source(
            "let x = {tainted} 7 in (x)|{} ni", filename="leak.lam"
        )
        assert len(diags) == 1
        assert diags[0].qualifier == "tainted"
        assert diags[0].flow
        assert all(step.span.file == "leak.lam" for step in diags[0].flow)

    def test_secure_program_is_clean(self):
        assert check_lambda_source("let x = 7 in (x)|{} ni") == []

    def test_registry_lookup(self):
        assert check_by_name("tainted-format").qualifier == "tainted"
        with pytest.raises(KeyError):
            check_by_name("bogus")


class TestConfigInCacheKey:
    """The active check configuration participates in the cache content
    hash: cached diagnostics must never be served for a different set
    (or definition) of checks."""

    def test_config_digest_is_stable_and_order_sensitive(self):
        from repro.checker.checks import config_digest

        a = config_digest(("tainted-format", "casts-away-const"))
        assert a == config_digest(("tainted-format", "casts-away-const"))
        assert a != config_digest(("casts-away-const", "tainted-format"))
        assert a != config_digest(("tainted-format",))

    def test_changing_active_checks_misses_the_cache(self, tmp_path):
        (tmp_path / "bug.c").write_text(TAINT_SRC)
        cache = tmp_path / ".cache"
        cold = check_paths([tmp_path], cache_dir=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        narrowed = check_paths(
            [tmp_path], checks=("casts-away-const",), cache_dir=cache
        )
        # same source, different configuration: a fresh cache entry
        assert (narrowed.cache_hits, narrowed.cache_misses) == (0, 1)
        assert narrowed.diagnostics == []
        # and the original configuration still hits its own entry
        warm = check_paths([tmp_path], cache_dir=cache)
        assert (warm.cache_hits, warm.cache_misses) == (1, 0)
        assert [d.to_dict() for d in warm.diagnostics] == [
            d.to_dict() for d in cold.diagnostics
        ]

    @staticmethod
    def _count_digests(monkeypatch):
        from repro.checker import runner

        calls = []
        real = runner.config_digest

        def counting(check_names):
            calls.append(check_names)
            return real(check_names)

        monkeypatch.setattr(runner, "config_digest", counting)
        return calls

    @pytest.mark.parametrize("whole", [False, True])
    def test_config_digest_is_computed_once_per_run(self, tmp_path, monkeypatch, whole):
        from repro.checker.runner import analyze

        for index in range(3):
            (tmp_path / f"unit{index}.c").write_text(f"{TAINT_SRC}/* {index} */\n")
        calls = self._count_digests(monkeypatch)
        cache = tmp_path / ".cache"
        for expected_hits in (0, 1 if whole else 3):  # cold, then warm
            calls.clear()
            report = analyze([tmp_path], whole_program=whole, cache_dir=cache)
            assert report.diagnostics
            assert report.cache_hits == expected_hits
            assert len(calls) == 1

    def test_config_digest_is_computed_once_per_daemon_request(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import Session

        for index in range(3):
            (tmp_path / f"unit{index}.c").write_text(f"{TAINT_SRC}/* {index} */\n")
        calls = self._count_digests(monkeypatch)
        session = Session(cache_dir=str(tmp_path / ".cache"))
        try:
            for whole in (False, True, False, True):
                calls.clear()
                session.analyze({"paths": [str(tmp_path)], "whole_program": whole})
                assert len(calls) == 1
        finally:
            session.close()

    def test_rule_edited_between_runs_misses_the_cache(self, tmp_path, monkeypatch):
        import dataclasses

        from repro.checker import checks

        (tmp_path / "bug.c").write_text(TAINT_SRC)
        cache = tmp_path / ".cache"
        cold = check_paths([tmp_path], cache_dir=cache)
        assert (cold.cache_hits, cold.cache_misses) == (0, 1)
        edited = tuple(
            dataclasses.replace(check, severity="note")
            if check.name == "tainted-format"
            else check
            for check in checks.ALL_CHECKS
        )
        monkeypatch.setattr(checks, "ALL_CHECKS", edited)
        rerun = check_paths([tmp_path], cache_dir=cache)
        # same source and check names, edited rule: a fresh entry
        assert (rerun.cache_hits, rerun.cache_misses) == (0, 1)
        assert {d.severity for d in rerun.diagnostics} == {"note"}
