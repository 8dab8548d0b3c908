"""Daemon resilience to broken edits: a ``didChange`` that introduces a
syntax error must not drop resident state — the response carries parse
diagnostics plus the file's last-good findings, clean edits stay
byte-identical to the pre-recovery protocol, and a good → broken →
fixed cycle round-trips as a golden transcript."""

import json

import pytest

from repro.serve import Server, Session

GOOD = (
    "int printf(const char *fmt, ...);\n"
    "char *getenv(const char *name);\n"
    'void greet(void) { printf(getenv("NAME")); }\n'
)
BROKEN = (
    "int printf(const char *fmt, ...);\n"
    "char *getenv(const char *name);\n"
    "void greet(void) { printf(getenv(\n"
)
FIXED = GOOD


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.c").write_text(GOOD)
    return tmp_path


@pytest.fixture
def session(corpus):
    s = Session(cache_dir=str(corpus / "cache"))
    yield s
    s.close()


def findings(result):
    return json.loads(result["report"])["diagnostics"]


# -- session-level semantics ----------------------------------------------


def test_clean_edit_response_shape_unchanged(session, corpus):
    target = str(corpus / "src" / "a.c")
    out = session.did_change({"file": target, "text": GOOD + "\n"})
    # Exactly the pre-recovery keys: clean edits look exactly as before.
    assert set(out) == {"ok", "file", "version", "overlay"}


def test_broken_edit_reports_diagnostics_and_last_good(session, corpus):
    target = str(corpus / "src" / "a.c")
    analyzed = session.analyze({"paths": [target]})
    good_findings = findings(analyzed)
    assert [d["check"] for d in good_findings] == ["tainted-format"]

    out = session.did_change({"file": target, "text": BROKEN})
    assert out["ok"] is True  # the edit itself is accepted
    assert out["parse_diagnostics"], out
    diag = out["parse_diagnostics"][0]
    assert set(diag) == {"file", "line", "column", "severity", "message"}
    assert diag["severity"] == "error"
    # The resident findings from the last good analysis survive the break.
    assert out["last_good"] == good_findings


def test_last_good_empty_before_any_analysis(session, corpus):
    target = str(corpus / "src" / "a.c")
    out = session.did_change({"file": target, "text": BROKEN})
    assert out["parse_diagnostics"]
    assert out["last_good"] == []


def test_fixed_edit_clears_diagnostics(session, corpus):
    target = str(corpus / "src" / "a.c")
    session.analyze({"paths": [target]})
    session.did_change({"file": target, "text": BROKEN})
    out = session.did_change({"file": target, "text": FIXED})
    assert "parse_diagnostics" not in out
    assert "last_good" not in out
    assert [d["check"] for d in findings(session.analyze({"paths": [target]}))] == [
        "tainted-format"
    ]


def test_best_effort_analyze_reports_units(session, corpus):
    target = str(corpus / "src" / "a.c")
    session.did_change({"file": target, "text": BROKEN})
    out = session.analyze({"paths": [target], "best_effort": True})
    assert out["units"] == {target: "partial"}
    checks = [d["check"] for d in findings(out)]
    assert "parse-error" in checks
    # Strict analyze over the same broken overlay errors the unit instead.
    strict = session.analyze({"paths": [target]})
    assert target in strict["errors"]
    assert "units" not in strict


def test_whole_program_best_effort_links_around_broken_unit(session, corpus):
    broken = corpus / "src" / "b.c"
    broken.write_text("int helper(;\n")
    out = session.analyze(
        {"paths": [str(corpus / "src")], "whole_program": True, "best_effort": True}
    )
    assert out["units"][str(broken)] in ("partial", "skipped")
    assert str(corpus / "src" / "a.c") not in out["units"]  # the ok unit
    checks = [d["check"] for d in findings(out)]
    assert "parse-error" in checks
    assert "tainted-format" in checks  # the good unit still analysed


def test_analyze_include_paths_reach_daemon_preprocessor(session, corpus):
    include = corpus / "include"
    include.mkdir()
    (include / "api.h").write_text(
        "int printf(const char *fmt, ...);\n"
        "char *getenv(const char *name);\n"
    )
    target = corpus / "src" / "c.c"
    target.write_text(
        '#include "api.h"\n'
        'void greet(void) { printf(getenv("NAME")); }\n'
    )
    out = session.analyze(
        {
            "paths": [str(target)],
            "best_effort": True,
            "include_paths": [str(include)],
        }
    )
    # The header resolved: the unit is clean and the taint flow through
    # the included declarations is found.
    assert "units" not in out
    assert "tainted-format" in [d["check"] for d in findings(out)]
    # The search paths persist: a later didChange probe of header-using
    # text resolves includes the same way and stays diagnostic-free.
    probe = session.did_change({"file": str(target), "text": target.read_text()})
    assert "parse_diagnostics" not in probe


def test_analyze_include_paths_validated(session, corpus):
    from repro.serve.protocol import InvalidParams

    with pytest.raises(InvalidParams):
        session.analyze(
            {"paths": [str(corpus / "src")], "include_paths": [1, 2]}
        )


_NEEDS_PATHS = "{method} needs 'paths': a non-empty list of strings"
_BAD_INCLUDE = "'include_paths' must be a list of strings"


@pytest.mark.parametrize("method", ["analyze", "suggest"])
@pytest.mark.parametrize(
    "params,message",
    [
        ({"paths": None}, _NEEDS_PATHS),
        ({"paths": []}, _NEEDS_PATHS),
        ({"paths": ["a.c", 3]}, _NEEDS_PATHS),
        ({"paths": 7, "include_paths": [1]}, _NEEDS_PATHS),
        ({"include_paths": [1, 2]}, _BAD_INCLUDE),
        ({"include_paths": {"inc": 1}}, _BAD_INCLUDE),
    ],
    ids=["no-paths", "empty-paths", "non-string-path", "paths-first", "bad-include", "include-dict"],
)
def test_bad_paths_and_include_paths_rejected(session, corpus, method, params, message):
    """analyze and suggest validate ``paths`` and ``include_paths`` with
    the same messages, the method's name in the ``paths`` one."""
    from repro.serve.protocol import InvalidParams

    request = {"paths": [str(corpus / "src")], **params}
    request = {k: v for k, v in request.items() if v is not None}
    with pytest.raises(InvalidParams) as raised:
        getattr(session, method)(request)
    assert str(raised.value) == message.format(method=method)


def test_resilient_memo_counts_in_stats(session, corpus):
    target = str(corpus / "src" / "a.c")
    session.did_change({"file": target, "text": BROKEN})
    stats = session.stats({})
    assert stats["resident"]["resilient_units"] == 1
    # Same text again: memo hit, no re-parse.
    before = stats["resident"]["parse_memo_hits"]
    session.did_change({"file": target, "text": BROKEN})
    after = session.stats({})["resident"]["parse_memo_hits"]
    assert after > before


# -- golden transcript: good -> broken -> fixed ---------------------------


def test_golden_transcript_good_broken_fixed(corpus):
    session = Session(cache_dir=str(corpus / "cache"))
    server = Server(session)
    target = str(corpus / "src" / "a.c")

    def req(i, method, **params):
        return json.dumps(
            {"jsonrpc": "2.0", "id": i, "method": method, "params": params},
            sort_keys=True,
        )

    try:
        # 1. Good edit: byte-identical to the pre-recovery protocol.
        line = server.handle_line(req(1, "didChange", file=target, text=GOOD))
        assert line == (
            '{"id":1,"jsonrpc":"2.0","result":{"file":"%s","ok":true,'
            '"overlay":true,"version":1}}\n' % target
        )

        # 2. Analyze: resident findings established.
        response = json.loads(server.handle_line(req(2, "analyze", paths=[target])))
        assert response["result"]["exit_code"] == 1
        good = json.loads(response["result"]["report"])["diagnostics"]
        assert [d["check"] for d in good] == ["tainted-format"]

        # 3. Broken edit: diagnostics + retained findings, still ok:true.
        response = json.loads(
            server.handle_line(req(3, "didChange", file=target, text=BROKEN))
        )
        result = response["result"]
        assert result["ok"] is True
        assert result["version"] == 2
        assert result["parse_diagnostics"][0]["severity"] == "error"
        assert result["last_good"] == good

        # 4. Fixed edit: the recovery keys vanish again.
        line = server.handle_line(req(4, "didChange", file=target, text=FIXED))
        assert line == (
            '{"id":4,"jsonrpc":"2.0","result":{"file":"%s","ok":true,'
            '"overlay":true,"version":3}}\n' % target
        )

        # 5. Re-analyze: identical report to step 2 (warm, not stale).
        response = json.loads(server.handle_line(req(5, "analyze", paths=[target])))
        assert json.loads(response["result"]["report"])["diagnostics"] == good
    finally:
        session.close()
