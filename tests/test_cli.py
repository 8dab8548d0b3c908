"""Tests for the two command-line drivers (quals-lam, quals-const)."""

import io
import sys
from pathlib import Path

import pytest

from repro.constinfer.cli import main as const_main
from repro.lam.cli import main as lam_main

REALWORLD_ARGS = str(
    Path(__file__).resolve().parent.parent / "examples" / "realworld" / "args.c"
)


@pytest.fixture
def lam_file(tmp_path):
    path = tmp_path / "prog.lam"
    path.write_text("let r = ref 10 in let u = (r := 32) in !r ni ni\n")
    return str(path)


@pytest.fixture
def c_file(tmp_path):
    path = tmp_path / "mod.c"
    path.write_text(
        """
        int peek(int *p) { return *p; }
        void poke(int *q) { *q = 1; }
        int *id(int *x) { return x; }
        void use(void) { int v; *id(&v) = 2; }
        """
    )
    return str(path)


class TestLamCli:
    def test_check(self, lam_file, capsys):
        assert lam_main(["check", lam_file]) == 0
        out = capsys.readouterr().out
        assert "type:" in out and "constraints:" in out

    def test_check_poly_prints_schemes(self, tmp_path, capsys):
        path = tmp_path / "poly.lam"
        path.write_text("let id = fn x. x in id (ref 1) ni\n")
        assert lam_main(["check", "--poly", str(path)]) == 0
        assert "forall" in capsys.readouterr().out

    def test_check_rejects_bad_program(self, tmp_path, capsys):
        path = tmp_path / "bad.lam"
        path.write_text("let r = {const} ref 1 in r := 2 ni\n")
        assert lam_main(["check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_run(self, lam_file, capsys):
        assert lam_main(["run", lam_file]) == 0
        out = capsys.readouterr().out
        assert "32" in out

    def test_trace(self, lam_file, capsys):
        assert lam_main(["trace", lam_file]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") > 3

    def test_derive(self, lam_file, capsys):
        assert lam_main(["derive", lam_file]) == 0
        out = capsys.readouterr().out
        assert "(Let)" in out and "(Assign')" in out

    def test_derive_rejects_ill_typed(self, tmp_path, capsys):
        path = tmp_path / "bad.lam"
        path.write_text("let r = {const} ref 1 in r := 2 ni\n")
        assert lam_main(["derive", str(path)]) == 1

    def test_qualifier_selection(self, tmp_path, capsys):
        path = tmp_path / "nz.lam"
        path.write_text("({nonzero} 1)|{nonzero}\n")
        assert lam_main(["check", "--qualifiers", "nonzero", str(path)]) == 0

    def test_unknown_qualifier(self, lam_file, capsys):
        assert lam_main(["check", "--qualifiers", "bogus", lam_file]) == 2

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "syntax.lam"
        path.write_text("let x = in\n")
        assert lam_main(["check", str(path)]) == 1

    def test_stuck_program(self, tmp_path, capsys):
        path = tmp_path / "stuck.lam"
        path.write_text("x\n")
        assert lam_main(["run", str(path)]) == 1
        assert "stuck" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "run", "trace", "derive"])
    def test_missing_file(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.lam"
        assert lam_main([command, str(missing)]) == 1
        assert capsys.readouterr().err == (
            f"error: {missing}: No such file or directory\n"
        )

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["check", "run", "trace", "derive"])
    def test_undecodable_byte_is_a_lex_error(
        self, command, source, tmp_path, monkeypatch, capsys
    ):
        text = b"let x = \xe9 in x ni\n"
        if source == "stdin":
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text)))
            name = "-"
        else:
            path = tmp_path / "latin1.lam"
            path.write_bytes(text)
            name = str(path)
        assert lam_main([command, name]) == 1
        assert capsys.readouterr().err == (
            "error: unexpected character '\ufffd' at 1:9\n"
        )


class TestConstCli:
    def test_report(self, c_file, capsys):
        assert const_main(["report", c_file]) == 0
        out = capsys.readouterr().out
        assert "peek" in out and "must NOT be const" in out

    def test_report_poly(self, c_file, capsys):
        assert const_main(["report", c_file, "--poly"]) == 0
        out = capsys.readouterr().out
        assert "poly const inference" in out

    def test_report_limit(self, c_file, capsys):
        assert const_main(["report", c_file, "--limit", "1"]) == 0

    def test_report_polyrec_engine(self, c_file, capsys):
        assert const_main(["report", c_file, "--engine", "polyrec"]) == 0
        out = capsys.readouterr().out
        assert "polyrec const inference" in out

    def test_engine_overrides_poly_flag(self, c_file, capsys):
        assert const_main(["report", c_file, "--poly", "--engine", "mono"]) == 0
        assert "mono const inference" in capsys.readouterr().out

    def test_table(self, c_file, capsys):
        assert const_main(["table", c_file]) == 0
        out = capsys.readouterr().out
        assert "Declared" in out

    def test_annotate(self, c_file, capsys):
        assert const_main(["annotate", c_file]) == 0
        out = capsys.readouterr().out
        assert "const int *p" in out

    def test_annotate_single_file_only(self, c_file, capsys):
        assert const_main(["annotate", c_file, c_file]) == 2

    def test_no_files(self, capsys):
        assert const_main(["report"]) == 2

    # args.c includes headers this CLI has no -I for, so it does not parse
    @pytest.mark.parametrize("engine", ["mono", "poly", "polyrec"])
    def test_report_front_end_error_is_one_line(self, engine, capsys):
        assert const_main(["report", REALWORLD_ARGS, "--engine", engine]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {REALWORLD_ARGS}: expected declaration specifiers"
        )
        assert captured.err.count("\n") == 1

    def test_table_front_end_error_is_one_line(self, capsys):
        assert const_main(["table", REALWORLD_ARGS]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["report", "table", "annotate", "whole"])
    def test_front_end_error_names_the_failing_file(
        self, command, c_file, tmp_path, capsys
    ):
        bad = tmp_path / "bad.c"
        bad.write_text("int f(void) { return (int; }\n")
        assert const_main([command, c_file, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: expected ')' at 1:26 (found PUNCT ';')\n"
        )

    def test_lex_error_names_the_failing_file(self, c_file, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int x = 1 @ 2;\n")
        assert const_main(["report", c_file, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: unexpected character '@' at 1:11\n"
        )

    @pytest.mark.parametrize(
        "command, shown",
        [
            ("report", "peek: param 0 (p) depth 1"),
            ("table", "latin1.c"),
            ("whole", "1 inferred, 1 possible"),
        ],
        ids=["report", "table", "whole"],
    )
    def test_undecodable_byte_is_replaced(self, command, shown, tmp_path, capsys):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int peek(int *p) { return *p; } /* caf\xe9 */\n")
        assert const_main([command, str(path), "--no-cache"]) == 0
        assert shown in capsys.readouterr().out

    def test_annotate_keeps_the_text_it_analysed(self, tmp_path, capsys):
        path = tmp_path / "latin1.c"
        path.write_bytes(b"int peek(int *p) { return *p; } /* caf\xe9 */\n")
        assert const_main(["annotate", str(path)]) == 0
        assert capsys.readouterr().out == (
            "int peek(const int *p) { return *p; } /* caf\ufffd */\n\n"
        )

    @pytest.mark.parametrize("command", ["report", "table", "annotate", "whole"])
    def test_missing_file(self, command, tmp_path, capsys):
        missing = tmp_path / "missing.c"
        assert const_main([command, str(missing), "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {missing}: No such file or directory\n"

    def test_whole_lex_error_names_the_failing_file(self, c_file, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int x = 1 @ 2;\n")
        assert const_main(["whole", c_file, str(bad), "--no-cache"]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: unexpected character '@' at 1:11\n"
        )
