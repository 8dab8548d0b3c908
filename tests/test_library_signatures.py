"""Library signatures are built only for the functions a program
mentions (Section 4.2's rule is about what a *call* might do, so a
prototype nothing names constrains nothing).

Pinned here: how many signatures a unit full of unmentioned prototypes
builds; that qlint's output does not see those prototypes; that every
engine builds the signatures it needs in the shared-cell pass, before
the first SCC watermark and inside the shared band; and that a declared
but unmentioned source or sink rule function keeps its seeds and
obligations."""

import pytest

from repro.cfront.sema import Program
from repro.checker.checks import ALL_CHECKS, lattice_for
from repro.checker.engine import (
    CheckerInference,
    _collect_obligations,
    _seed_checks,
    check_program,
)
from repro.checker.render import render_report
from repro.checker.runner import analyze
from repro.constinfer import engine
from repro.constinfer.analysis import ConstInference
from repro.constinfer.engine import generate_mono, run_mono, run_poly, run_polyrec
from repro.testkit.cgen import CCorpus, CCorpusGenerator
from repro.whole import engine as whole_engine
from repro.whole import link_sources, run_whole_poly
from repro.whole.engine import WHOLE_UID_BASE

#: Prototypes nothing in :data:`UNIT` names; pointer parameters, so the
#: library rule would pin them, and one declared-const level.
UNMENTIONED = "".join(
    f"int unused_{i}(char *buf, const char *src, int **out);\n" for i in range(40)
)

UNIT = """\
char *getenv(const char *name);
int printf(const char *fmt, ...);
int strlen_like(const char *s);
void fill(char *dst, int n);
typedef int (*handler)(const char *);
int on_quit(const char *arg);
handler table[2] = { on_quit, strlen_like };

int on_quit(const char *arg) { return arg[0]; }

int report(void) {
    char *home = getenv("HOME");
    char local[8];
    fill(local, (int)sizeof(local));
    printf(home);
    return on_quit(home);
}
"""


def _count_built(monkeypatch):
    """Record every prototype signature a run creates (not reuses)."""
    built: list[str] = []
    real = ConstInference.prototype_signature

    def spy(self, decl):
        if decl.name not in self.signatures:
            built.append(decl.name)
        return real(self, decl)

    monkeypatch.setattr(ConstInference, "prototype_signature", spy)
    return built


class TestOnlyMentionedPrototypes:
    def test_unmentioned_prototypes_build_no_signature(self, monkeypatch):
        built = _count_built(monkeypatch)
        run_mono(Program.from_source(UNMENTIONED + UNIT, "u.c"))
        # strlen_like is mentioned only in the global initializer.
        assert built == ["getenv", "printf", "strlen_like", "fill"]

    def test_generated_corpus_unit(self, monkeypatch):
        """A unit of a generated corpus declares the whole corpus's API
        and mentions a few of its functions."""
        gen = CCorpusGenerator(5)
        for _ in range(3):
            gen.mod_plain_reader()
            gen.mod_forwarder_family()
            gen.mod_dispatch_family()
        gen.mod_driver()
        # one dispatch family alone in u1.c, the rest in u0.c
        assignment = [0] * len(gen.modules)
        assignment[5] = 1
        unit = CCorpus(5, gen.modules, assignment, 2)
        program = Program.from_source(unit.sources()["u1.c"], "u1.c")
        undefined = program.undefined_function_names()
        mentioned = set().union(*(o.names for o in program.occurrences().values()))
        built = _count_built(monkeypatch)
        run_mono(program)
        assert built == [n for n in program.prototypes if n in undefined & mentioned]
        assert 0 < len(built) < len(undefined) // 4

    def test_checker_output_ignores_unmentioned_prototypes(self, tmp_path):
        """Appended after every use, the extra prototypes shift no line
        a finding sits on; every check's report stays the same."""
        names = tuple(c.name for c in ALL_CHECKS)
        reports = []
        for text in (UNIT, UNIT + UNMENTIONED):
            path = tmp_path / "u.c"
            path.write_text(text)
            report = analyze([str(path)], checks=names)
            reports.append(render_report(report, format="sarif"))
        assert "tainted-format" in reports[0]
        assert reports[1] == reports[0]

    def test_unmentioned_prototypes_add_no_constraints(self):
        small = Program.from_source(UNIT, "u.c")
        big = Program.from_source(UNMENTIONED + UNIT, "u.c")
        lattice = lattice_for(ALL_CHECKS)
        counts = []
        for program in (small, big):
            inference = CheckerInference(program, lattice, ALL_CHECKS)
            generate_mono(inference)
            counts.append(len(inference.constraints))
        assert counts[0] == counts[1]


GUARD_SOURCES = {
    "lib.c": UNMENTIONED
    + "int helper(char *p);\n"
    + "int count(const char *s) { return s[0]; }\n"
    + "int helper(char *p) { p[0] = 1; return count(p); }\n",
    "main.c": UNIT
    + "int helper(char *p);\n"
    + "void init_only(char *dst, int n);\n"
    + "void (*late)(char *, int) = init_only;\n"
    + "int main(void) { char b[4]; return helper(b) + report(); }\n",
}


@pytest.fixture
def created_after_shared_pass(monkeypatch):
    """Names of library signatures created after the shared-cell pass
    ended, whichever engine runs; and every library signature's uids."""
    state = {"shared_done": False, "late": [], "uids": []}
    real_pass = engine._create_shared_cells
    real_sig = ConstInference.prototype_signature

    def shared_pass(inference):
        real_pass(inference)
        state["shared_done"] = True

    def spy(self, decl):
        if decl.name not in self.signatures and state["shared_done"]:
            state["late"].append(decl.name)
        sig = real_sig(self, decl)
        state["uids"].extend(
            level.var.uid for cell in sig.params for level in cell.levels
        )
        return sig

    monkeypatch.setattr(engine, "_create_shared_cells", shared_pass)
    monkeypatch.setattr(whole_engine, "_create_shared_cells", shared_pass)
    monkeypatch.setattr(ConstInference, "prototype_signature", spy)
    return state


class TestWatermarkSafety:
    """Every library signature an engine needs is built in the shared
    pass, so the uid watermark of the first SCC lies above it and no
    signature is generalised as SCC-local."""

    @pytest.mark.parametrize("run", [run_poly, run_polyrec, run_mono])
    def test_per_unit_engines(self, created_after_shared_pass, monkeypatch, run):
        boundaries: list[int] = []
        real_boundary = engine._uid_boundary

        def boundary():
            boundaries.append(real_boundary())
            return boundaries[-1]

        monkeypatch.setattr(engine, "_uid_boundary", boundary)
        program = Program.from_sources(GUARD_SOURCES)
        result = run(program)
        assert result.inference.signatures.keys() >= {"getenv", "init_only", "strlen_like"}
        assert created_after_shared_pass["late"] == []
        uids = created_after_shared_pass["uids"]
        assert uids
        if run is not run_mono:
            assert max(uids) < boundaries[0]

    def test_whole_program_engine(self, created_after_shared_pass):
        result = run_whole_poly(link_sources(GUARD_SOURCES))
        assert result.run.inference.signatures.keys() >= {"getenv", "init_only"}
        assert created_after_shared_pass["late"] == []
        band_end = WHOLE_UID_BASE + (1 << 20)
        assert all(
            WHOLE_UID_BASE <= uid < band_end
            for uid in created_after_shared_pass["uids"]
        )


class TestRuleFunctions:
    """Seeds and sink obligations read the rule functions' signatures, so
    the checker builds them for every declared rule function, mentioned
    or not."""

    SOURCE = (
        "char *getenv(const char *name);\n"
        "int printf(const char *fmt, ...);\n"
        "int quiet(void) { return 0; }\n"
    )

    def test_unmentioned_rule_functions_keep_seeds_and_obligations(self):
        program = Program.from_source(self.SOURCE, "r.c")
        checks = tuple(c for c in ALL_CHECKS if c.name == "tainted-format")
        inference = CheckerInference(program, lattice_for(checks), checks)
        generate_mono(inference)
        seeds = _seed_checks(inference, checks)
        obligations = _collect_obligations(inference, checks)
        assert "getenv" in seeds.values()
        assert any(ob.site[1] == "printf" for ob in obligations)

    def test_plain_inference_skips_them(self):
        inference = ConstInference(Program.from_source(self.SOURCE, "r.c"))
        generate_mono(inference)
        assert not inference.signatures.keys() & {"getenv", "printf"}

    def test_no_findings_from_unmentioned_rule_functions(self):
        program = Program.from_source(self.SOURCE, "r.c")
        assert check_program(program, ALL_CHECKS) == []
