"""Tests for annotation-suggestion mode (qlint suggest): ranking,
confidence heuristics, rendering, the CLI subcommand, and the daemon
handler's byte-identity with the one-shot path."""

import json

import pytest

from repro.checker.cli import main as cli_main
from repro.checker.suggest import (
    confidence,
    render_suggestions_human,
    render_suggestions_json,
    suggest_paths,
    suggest_source,
)

SOURCE = """\
char *getenv(const char *name);
void *malloc(unsigned long size);
void free(void *ptr);
int getchar(void);
int snoop(const char *s, int c);

int probe(void) {
    char *env = getenv("HOME");
    char *buf = malloc(16);
    int c = getchar();
    int out = snoop(env, c);
    free(buf);
    return out;
}

char *name_from_env(void) {
    return getenv("USER");
}
"""


def by_name(suggestions):
    out = {}
    for s in suggestions:
        out.setdefault(s.name, []).append(s)
    return out


class TestRanking:
    def test_known_qualifiers_rank_in_top_3(self):
        groups = by_name(suggest_source(SOURCE, "t.c"))
        assert "tainted" in [s.qualifier for s in groups["env"]][:3]
        assert "alloc" in [s.qualifier for s in groups["buf"]][:3]
        assert "dynamic" in [s.qualifier for s in groups["c"]][:3]
        ret = [s for s in groups["name_from_env"] if s.kind == "return"]
        assert "tainted" in [s.qualifier for s in ret][:3]

    def test_features_populate(self):
        groups = by_name(suggest_source(SOURCE, "t.c"))
        s = groups["env"][0]
        assert s.path_length >= 1 and s.fan_in >= 1 and s.casts >= 0
        assert 0 < s.confidence <= 1

    def test_top_limits_per_declaration(self):
        for s_list in by_name(suggest_source(SOURCE, "t.c", top=1)).values():
            # at most one suggestion per (file, line, col, name) group
            assert len(s_list) <= 1

    def test_unparseable_source_suggests_nothing(self):
        assert suggest_source("int broken(", "t.c") == []

    def test_output_is_deterministic(self):
        a = suggest_source(SOURCE, "t.c")
        b = suggest_source(SOURCE, "t.c")
        assert a == b


class TestConfidence:
    def test_direct_single_writer_is_certain(self):
        assert confidence(1, 1, 0) == 1.0

    def test_monotone_decreasing_in_every_feature(self):
        base = confidence(1, 1, 0)
        assert confidence(4, 1, 0) < base
        assert confidence(1, 4, 0) < base
        assert confidence(1, 1, 3) < base

    def test_cast_discount_saturates(self):
        assert confidence(1, 1, 5) == confidence(1, 1, 50)

    def test_stays_in_unit_interval(self):
        for path in (1, 10, 100):
            for fan in (1, 10, 100):
                for casts in (0, 5, 50):
                    assert 0 < confidence(path, fan, casts) <= 1


class TestRendering:
    def test_empty_human(self):
        assert render_suggestions_human([]) == "no suggestions\n"

    def test_human_mentions_every_group(self):
        suggestions = suggest_source(SOURCE, "t.c")
        text = render_suggestions_human(suggestions)
        for name in ("env", "buf", "'c'"):
            assert name in text
        assert text.rstrip().endswith("suggestion(s)")

    def test_json_is_stable_and_versioned(self):
        suggestions = suggest_source(SOURCE, "t.c")
        a = render_suggestions_json(suggestions)
        b = render_suggestions_json(suggestions)
        assert a == b
        payload = json.loads(a)
        assert payload["version"] == 1
        assert len(payload["suggestions"]) == len(suggestions)
        for entry in payload["suggestions"]:
            assert set(entry) == {
                "file", "line", "col", "function", "name", "kind",
                "qualifier", "confidence", "features",
            }


class TestPaths:
    def test_missing_file_lands_in_errors(self, tmp_path):
        good = tmp_path / "good.c"
        good.write_text(SOURCE)
        _, suggestions, errors = suggest_paths(
            [str(good), str(tmp_path / "missing.c")]
        )
        assert suggestions
        assert len(errors) == 1


class TestCli:
    def test_suggest_subcommand_human(self, tmp_path, capsys):
        path = tmp_path / "t.c"
        path.write_text(SOURCE)
        assert cli_main(["suggest", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tainted" in out and "alloc" in out and "dynamic" in out

    def test_suggest_subcommand_json_output_file(self, tmp_path):
        path = tmp_path / "t.c"
        path.write_text(SOURCE)
        dest = tmp_path / "out.json"
        assert cli_main(
            ["suggest", str(path), "--format", "json", "-o", str(dest)]
        ) == 0
        payload = json.loads(dest.read_text())
        assert payload["version"] == 1 and payload["suggestions"]

    def test_missing_path_exits_nonzero(self, tmp_path, capsys):
        missing = tmp_path / "nope.c"
        assert cli_main(["suggest", str(missing)]) == 1
        assert "error" in capsys.readouterr().err


class TestDaemonParity:
    def test_daemon_report_matches_cli_renderers(self, tmp_path):
        from repro.serve.server import Server
        from repro.serve.session import Session

        path = tmp_path / "t.c"
        path.write_text(SOURCE)
        session = Session()
        try:
            server = Server(session)
            for fmt, renderer in (
                ("human", render_suggestions_human),
                ("json", render_suggestions_json),
            ):
                line = json.dumps(
                    {
                        "jsonrpc": "2.0",
                        "id": 1,
                        "method": "suggest",
                        "params": {"paths": [str(path)], "format": fmt},
                    }
                )
                response = json.loads(server.handle_line(line))
                _, suggestions, errors = suggest_paths([str(path)])
                assert errors == {}
                assert response["result"]["report"] == renderer(suggestions)
                assert response["result"]["exit_code"] == 0
        finally:
            session.close()

    def test_daemon_overlay_wins_over_disk(self, tmp_path):
        from repro.serve.server import Server
        from repro.serve.session import Session

        path = tmp_path / "t.c"
        path.write_text(SOURCE)
        session = Session()
        try:
            server = Server(session)
            # overlay an empty unit: suggestions must vanish
            server.handle_line(
                json.dumps(
                    {
                        "jsonrpc": "2.0",
                        "id": 1,
                        "method": "didChange",
                        "params": {"file": str(path), "text": "int x;\n"},
                    }
                )
            )
            response = json.loads(
                server.handle_line(
                    json.dumps(
                        {
                            "jsonrpc": "2.0",
                            "id": 2,
                            "method": "suggest",
                            "params": {"paths": [str(path)]},
                        }
                    )
                )
            )
            assert response["result"]["report"] == "no suggestions\n"
        finally:
            session.close()

    def test_daemon_validates_params(self):
        from repro.serve.server import Server
        from repro.serve.session import Session

        session = Session()
        try:
            server = Server(session)
            response = json.loads(
                server.handle_line(
                    json.dumps(
                        {
                            "jsonrpc": "2.0",
                            "id": 1,
                            "method": "suggest",
                            "params": {"paths": []},
                        }
                    )
                )
            )
            assert "error" in response
        finally:
            session.close()
