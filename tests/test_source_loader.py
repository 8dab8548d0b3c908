"""The one source loader behind qlint, ``qlint suggest`` and the daemon:
how it reads and decodes text, the regressions it fixed (a non-UTF-8
file under ``suggest``; the daemon's best-effort whole-program plan),
and the checker cache payload that stores what it produced."""

import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.checker.cli import main as checker_main
from repro.checker.render import render_report
from repro.checker.runner import (
    CACHE_KIND,
    WHOLE_CACHE_KIND,
    analyze,
    load_sources,
    parse_units,
)
from repro.constinfer.cache import AnalysisCache
from repro.serve import Server, Session

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
MULTI_TU = EXAMPLES / "multi_tu"
REALWORLD = EXAMPLES / "realworld"

#: One Latin-1 byte in a comment: not valid UTF-8.
LATIN1 = b"int answer(void) { return 42; } /* caf\xe9 */\n"


class TestLoadSources:
    def test_overlay_wins_and_overlay_only_files_join(self, tmp_path):
        (tmp_path / "a.c").write_text("int a;\n")
        (tmp_path / "b.c").write_text("int b;\n")
        overlay = {str(tmp_path / "b.c"): "int B;\n", str(tmp_path / "new.c"): "int n;\n"}
        files, sources, errors = load_sources([str(tmp_path)], overlay)
        assert files == [str(tmp_path / n) for n in ("a.c", "b.c", "new.c")]
        assert sources == {
            str(tmp_path / "a.c"): "int a;\n",
            str(tmp_path / "b.c"): "int B;\n",
            str(tmp_path / "new.c"): "int n;\n",
        }
        assert errors == {}

    def test_unreadable_file_lands_in_errors(self, tmp_path):
        missing = str(tmp_path / "missing.c")
        files, sources, errors = load_sources([missing])
        assert files == [missing] and sources == {}
        assert "No such file" in errors[missing]

    def test_undecodable_bytes_are_replaced(self, tmp_path):
        (tmp_path / "f.c").write_bytes(LATIN1)
        _, sources, errors = load_sources([str(tmp_path)])
        assert errors == {}
        assert sources[str(tmp_path / "f.c")] == LATIN1.decode("utf-8", "replace")

    def test_report_carries_the_text_it_analysed(self, tmp_path):
        (tmp_path / "f.c").write_text("int f(void) { return 0; }\n")
        overlay = {str(tmp_path / "f.c"): "int g(void) { return 1; }\n"}
        for whole in (False, True):
            report = analyze([str(tmp_path)], whole_program=whole, sources=overlay)
            assert report.sources == overlay


class TestParseUnits:
    SOURCES = {"b.c": "int b(void) { return 0; }\n", "a.c": "int a(void) {\n"}

    def test_strict_and_best_effort_share_one_worker(self):
        strict = parse_units(self.SOURCES)
        assert [name for name, _, _ in strict] == ["a.c", "b.c"]
        assert strict[0][1] is None and strict[0][2]  # a.c does not parse
        assert strict[1][2] is None
        resilient = parse_units(self.SOURCES, best_effort=True)
        assert all(error is None for _, _, error in resilient)
        assert resilient[0][1].diagnostics  # recovered, with diagnostics

    def test_hook_replaces_the_worker(self):
        calls = []

        def hook(name, text):
            calls.append(name)
            if name == "a.c":
                raise ValueError("boom")
            return "unit"

        parsed = parse_units(self.SOURCES, jobs=4, parse_unit=hook)
        assert calls == ["a.c", "b.c"]
        assert parsed == [("a.c", None, "ValueError: boom"), ("b.c", "unit", None)]


class TestNonUtf8Suggest:
    """``qlint suggest`` and the daemon read a stray Latin-1 byte the way
    ``qlint`` always did, instead of failing with UnicodeDecodeError."""

    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "f.c").write_bytes(LATIN1)
        return tmp_path

    def test_check_reports_no_findings(self, tree, capsys):
        assert checker_main([str(tree / "f.c")]) == 0
        assert capsys.readouterr().out == "qlint: no findings\n"

    @pytest.mark.parametrize("whole", [False, True])
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_cli_and_daemon_suggest(self, tree, capsys, whole, fmt):
        target = str(tree) if whole else str(tree / "f.c")
        flags = ["--whole-program"] if whole else []
        code = checker_main(["suggest", target, "--format", fmt] + flags)
        captured = capsys.readouterr()
        assert code == 0
        assert "Traceback" not in captured.err and "qlint: error" not in captured.err

        session = Session(cache_dir=str(tree / "serve-cache"))
        try:
            request = {
                "jsonrpc": "2.0",
                "id": 1,
                "method": "suggest",
                "params": {"paths": [target], "format": fmt, "whole_program": whole},
            }
            response = json.loads(Server(session).handle_line(json.dumps(request)))
        finally:
            session.close()
        assert "error" not in response
        assert response["result"]["report"] == captured.out
        assert response["result"]["exit_code"] == 0


class TestBestEffortWholePlan:
    """The daemon builds its whole-program plan from the parses the
    analysis made, through the same memo."""

    def test_each_unit_parses_once(self, tmp_path):
        session = Session(cache_dir=str(tmp_path / "cache"))
        try:
            session.analyze(
                {"paths": [str(MULTI_TU)], "whole_program": True, "best_effort": True}
            )
            assert session._parsed_units == len(list(MULTI_TU.glob("*.c")))
            assert session.stats({})["resident"]["whole_plan_units"] == 4
        finally:
            session.close()

    def test_didchange_lists_invalidated_units(self, tmp_path):
        tree = tmp_path / "realworld"
        shutil.copytree(REALWORLD, tree)
        session = Session(cache_dir=str(tmp_path / "cache"))
        try:
            session.analyze(
                {
                    "paths": [str(tree)],
                    "whole_program": True,
                    "best_effort": True,
                    "include_paths": [str(tree / "include")],
                }
            )
            target = tree / "list.c"
            result = session.did_change(
                {"file": str(target), "text": target.read_text() + "\n"}
            )
        finally:
            session.close()
        assert str(target) in result["invalidated_units"]
        assert str(tree / "args.c") in result["invalidated_units"]


#: Wrong-shape replacements for a checker cache entry, from the entry's
#: own valid bytes.
CORRUPTIONS = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "wrong-type": lambda blob: pickle.dumps({"diagnostics": []}),
    "diagnostics-not-a-list": lambda blob: pickle.dumps(
        ("not a list",) + pickle.loads(blob)[1:]
    ),
}


class TestCachePayloadShape:
    """Per-file ``qlint-diagnostics`` and whole-program ``qlint-whole``
    entries hold one ``(diagnostics, status, functions)`` tuple; any
    other shape is a miss that is recomputed and rewritten."""

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("best_effort", [False, True])
    @pytest.mark.parametrize("whole", [False, True])
    def test_wrong_shape_entry_is_a_miss(
        self, tmp_path, monkeypatch, corruption, best_effort, whole
    ):
        kind = WHOLE_CACHE_KIND if whole else CACHE_KIND
        keys: list[str] = []
        real_key = AnalysisCache.key

        def recording_key(self, entry_kind, **kwargs):
            key = real_key(self, entry_kind, **kwargs)
            if entry_kind == kind:
                keys.append(key)
            return key

        monkeypatch.setattr(AnalysisCache, "key", recording_key)
        cache_dir = tmp_path / "cache"

        def run():
            report = analyze(
                [str(MULTI_TU)],
                whole_program=whole,
                cache_dir=str(cache_dir),
                best_effort=best_effort,
            )
            return report, render_report(report, format="sarif")

        cold, cold_sarif = run()
        assert cold.cache_hits == 0
        entry = AnalysisCache(cache_dir)._path(keys[0])
        entry.write_bytes(CORRUPTIONS[corruption](entry.read_bytes()))

        recomputed, recomputed_sarif = run()
        assert recomputed_sarif == cold_sarif
        assert recomputed.unit_status == cold.unit_status
        assert recomputed.functions == cold.functions
        # Only the corrupted entry misses; per-file, the other units hit.
        assert recomputed.cache_misses == 1
        assert recomputed.cache_hits == (0 if whole else len(cold.files) - 1)
        rewritten = pickle.loads(entry.read_bytes())
        assert isinstance(rewritten, tuple) and isinstance(rewritten[0], list)

        warm, warm_sarif = run()
        assert warm_sarif == cold_sarif
        assert warm.cache_misses == 0
