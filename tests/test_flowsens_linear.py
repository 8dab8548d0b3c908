"""Tests for the linearity/resource pack (repro.flowsens.linear):
double-free, use-after-free, and leak-on-exit-path detection over
lowered C, with flow-path diagnostics and the clean-code guarantees."""

import pytest

from repro.cfront.sema import Program
from repro.flowsens.linear import (
    DOUBLE_FREE,
    RESOURCE_LEAK,
    USE_AFTER_FREE,
    analyze_function_resources,
    analyze_lowered,
)
from repro.flowsens.lower import lower_function
from repro.qual.qualifiers import resource_lattice

PROTOS = """
void *malloc(unsigned long size);
void free(void *ptr);
unsigned long strlen(const char *s);
int getchar(void);
int mystery(char *s);
"""


@pytest.fixture
def lattice():
    return resource_lattice()


def findings(source, name, lattice):
    program = Program.from_source(PROTOS + source, filename="t.c")
    lowered = lower_function(program.functions[name], lattice)
    return analyze_function_resources(lowered, lattice)


class TestPlantedBugs:
    def test_double_free_on_merged_path(self, lattice):
        out = findings(
            "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "if (getchar() < 0) { free(p); }\n"
            "free(p); return 0; }",
            "f",
            lattice,
        )
        kinds = {fnd.kind for fnd in out}
        assert DOUBLE_FREE in kinds
        bug = next(fnd for fnd in out if fnd.kind == DOUBLE_FREE)
        assert bug.variable == "p"
        assert len(bug.flow) >= 2  # the first free, then the second

    def test_leak_on_early_exit_path(self, lattice):
        out = findings(
            "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "if (getchar() < 0) return -2;\n"
            "free(p); return 0; }",
            "f",
            lattice,
        )
        leaks = [fnd for fnd in out if fnd.kind == RESOURCE_LEAK]
        assert leaks and leaks[0].variable == "p"
        assert len(leaks[0].flow) >= 2  # allocation, then the exit

    def test_use_after_free(self, lattice):
        out = findings(
            "unsigned long f(void) { char *p = malloc(8);\n"
            "if (!p) return 0;\n"
            "free(p);\n"
            "return strlen(p); }",
            "f",
            lattice,
        )
        assert USE_AFTER_FREE in {fnd.kind for fnd in out}

    def test_alias_double_free(self, lattice):
        out = findings(
            "void f(void) { char *p = malloc(8); char *q = p;\n"
            "free(q); free(p); }",
            "f",
            lattice,
        )
        assert DOUBLE_FREE in {fnd.kind for fnd in out}

    def test_findings_are_deterministically_ordered(self, lattice):
        src = (
            "void f(void) { char *p = malloc(8); char *q = malloc(8);\n"
            "free(p); free(p); free(q); free(q); }"
        )
        a = findings(src, "f", lattice)
        b = findings(src, "f", lattice)
        assert [
            (x.kind, x.variable, x.line, x.col) for x in a
        ] == [(x.kind, x.variable, x.line, x.col) for x in b]


class TestCleanCode:
    def test_balanced_alloc_free_is_clean(self, lattice):
        out = findings(
            "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "unsigned long n = strlen(p);\n"
            "free(p); return (int)n; }",
            "f",
            lattice,
        )
        assert out == []

    def test_ownership_handoff_by_return_is_clean(self, lattice):
        out = findings(
            "char *f(void) { char *p = malloc(8);\n"
            "if (!p) return 0;\n"
            "return p; }",
            "f",
            lattice,
        )
        assert out == []

    def test_escape_to_unknown_callee_suppresses_leak(self, lattice):
        # mystery() may take ownership, so no leak is claimed
        out = findings(
            "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "return mystery(p); }",
            "f",
            lattice,
        )
        assert out == []

    def test_free_on_every_path_is_clean(self, lattice):
        out = findings(
            "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "if (getchar() < 0) { free(p); return -2; }\n"
            "free(p); return 0; }",
            "f",
            lattice,
        )
        assert out == []

    def test_unstructured_function_reports_nothing(self, lattice):
        out = findings(
            "void f(void) { char *p = malloc(8); goto out;\nout: free(p); free(p); }",
            "f",
            lattice,
        )
        assert out == []


class TestLoops:
    def test_free_inside_loop_is_double_free(self, lattice):
        out = findings(
            "void f(void) { char *p = malloc(8);\n"
            "int n = getchar();\n"
            "while (n) { free(p); n = getchar(); }\n"
            "}",
            "f",
            lattice,
        )
        assert DOUBLE_FREE in {fnd.kind for fnd in out}

    def test_realloc_style_loop_is_clean(self, lattice):
        out = findings(
            "void f(void) { int n = getchar();\n"
            "while (n) { char *p = malloc(8);\n"
            "if (p) { free(p); }\n"
            "n = getchar(); }\n"
            "}",
            "f",
            lattice,
        )
        assert out == []


class TestReportShape:
    def test_report_carries_evidence_for_suggestions(self, lattice):
        program = Program.from_source(
            PROTOS
            + "int f(void) { char *p = malloc(8);\n"
            "if (!p) return -1;\n"
            "free(p); return 0; }",
            filename="t.c",
        )
        lowered = lower_function(program.functions["f"], lattice)
        report = analyze_lowered(lowered, lattice)
        assert report.function.name == "f"
        assert "p" in report.evidence
        ev = report.evidence["p"]
        assert ev.qualifier == "alloc"
        assert ev.path_length >= 1 and ev.fan_in >= 1

    @pytest.mark.parametrize(
        "body, expected",
        [
            pytest.param(
                "int f(void) { char *p = malloc(8);\n"
                "if (!p) return -1;\n"
                "free(p); return 0; }",
                ("t.c", 7, 31),
                id="straight-line",
            ),
            pytest.param(
                "int f(int n) {\n"
                "    char *p;\n"
                "    while (n > 0) {\n"
                "        p = malloc(4);\n"
                "        free(p);\n"
                "        n--;\n"
                "    }\n"
                "    return 0; }",
                ("t.c", 10, 19),
                id="loop-body",
            ),
            pytest.param(
                "int f(int c) {\n"
                "    char *p;\n"
                "    if (c) { p = 0; }\n"
                "    else { p = malloc(4); free(p); }\n"
                "    return 0; }",
                ("t.c", 10, 22),
                id="else-branch",
            ),
            pytest.param(
                "int f(void) {\n"
                "    char *p = malloc(4);\n"
                "    free(p);\n"
                "    p = malloc(8);\n"
                "    free(p);\n"
                "    return 0; }",
                ("t.c", 8, 21),
                id="first-of-two",
            ),
            pytest.param(
                "int f(int c) {\n"
                "    char *p;\n"
                "    if (c) { p = malloc(4); free(p); }\n"
                "    else { p = malloc(8); free(p); }\n"
                "    return 0; }",
                ("t.c", 9, 24),
                id="then-before-else",
            ),
        ],
    )
    def test_evidence_names_the_first_allocation(self, lattice, body, expected):
        # PROTOS is six lines, so the body starts on line 7; a call's
        # span is its argument list's "(".
        program = Program.from_source(PROTOS + body, filename="t.c")
        lowered = lower_function(program.functions["f"], lattice)
        ev = analyze_lowered(lowered, lattice).evidence["p"]
        assert (ev.file, ev.line, ev.col) == expected

    def test_flow_steps_carry_spans(self, lattice):
        out = findings(
            "void f(void) { char *p = malloc(8); free(p); free(p); }",
            "f",
            lattice,
        )
        bug = next(fnd for fnd in out if fnd.kind == DOUBLE_FREE)
        for step in bug.flow:
            assert step.file == "t.c"
            assert step.note
