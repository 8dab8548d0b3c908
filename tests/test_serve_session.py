"""Session-semantics tests for the resident daemon: edit ordering
(``didChange`` → ``analyze`` sees the new text), overlay reverts,
overlay-only buffers, warm-path counters, whole-program invalidation
reporting, and ``stats`` bookkeeping."""

import json
import time
from pathlib import Path

import pytest

from repro.cfront.cparser import parse_c
from repro.serve import InvalidParams, Server, Session

CLEAN = (
    "int printf(const char *fmt, ...);\n"
    'void greet(void) { printf("hi"); }\n'
)
TAINTED = (
    "int printf(const char *fmt, ...);\n"
    "char *getenv(const char *name);\n"
    'void greet(void) { printf(getenv("NAME")); }\n'
)
PRODUCER = (
    "char *getenv(const char *name);\n"
    'char *fetch_name(void) { return getenv("NAME"); }\n'
)
CONSUMER = (
    "int printf(const char *fmt, ...);\n"
    "extern char *fetch_name(void);\n"
    "void show(void) { printf(fetch_name()); }\n"
)


@pytest.fixture
def corpus(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "greet.c").write_text(CLEAN)
    return tmp_path


@pytest.fixture
def session(corpus):
    s = Session(cache_dir=str(corpus / "cache"))
    yield s
    s.close()


def findings(result):
    return json.loads(result["report"])["diagnostics"]


def test_didchange_then_analyze_sees_new_text(session, corpus):
    target = str(corpus / "src" / "greet.c")
    clean = session.analyze({"paths": [str(corpus / "src")]})
    assert findings(clean) == []

    session.did_change({"file": target, "text": TAINTED})
    edited = session.analyze({"paths": [str(corpus / "src")]})
    assert [d["check"] for d in findings(edited)] == ["tainted-format"]
    # The file on disk is untouched — only the overlay changed.
    assert (corpus / "src" / "greet.c").read_text() == CLEAN


def test_revert_restores_disk_text(session, corpus):
    target = str(corpus / "src" / "greet.c")
    session.did_change({"file": target, "text": TAINTED})
    assert findings(session.analyze({"paths": [target]}))
    reverted = session.did_change({"file": target, "text": None})
    assert reverted["overlay"] is False
    assert reverted["version"] == 2
    assert findings(session.analyze({"paths": [target]})) == []


def test_overlay_only_buffer_joins_directory(session, corpus):
    unsaved = str(corpus / "src" / "unsaved.c")
    session.did_change({"file": unsaved, "text": TAINTED})
    result = session.analyze({"paths": [str(corpus / "src")]})
    assert sorted(result["files"]) == [str(corpus / "src" / "greet.c"), unsaved]
    assert [d["file"] for d in findings(result)] == [unsaved]


@pytest.mark.parametrize("whole", [False, True])
@pytest.mark.parametrize("fmt", ["human", "json"])
def test_overlay_only_buffer_joins_suggest(session, corpus, capsys, whole, fmt):
    # suggest discovers files by analyze's rule: an unsaved buffer under
    # a listed directory is suggested over exactly as if it were saved.
    from repro.checker.cli import main as cli_main

    src = corpus / "src"
    unsaved = src / "unsaved.c"
    text = (
        "void *malloc(unsigned long size);\n"
        "int fill(char *buf);\n"
        "int make(void) { char *buf = malloc(16); return fill(buf); }\n"
    )
    session.did_change({"file": str(unsaved), "text": text})
    params = {"paths": [str(src)], "format": fmt, "whole_program": whole}
    result = session.suggest(params)
    assert sorted(result["files"]) == [str(src / "greet.c"), str(unsaved)]
    assert str(unsaved) in result["report"]

    unsaved.write_text(text)
    argv = ["suggest", str(src), "--format", fmt]
    if whole:
        argv.append("--whole-program")
    assert cli_main(argv) == result["exit_code"] == 0
    assert capsys.readouterr().out == result["report"]


def test_unchanged_reanalysis_is_served_from_memory(session, corpus):
    paths = {"paths": [str(corpus / "src")]}
    cold = session.analyze(paths)
    assert (cold["cache_hits"], cold["cache_misses"]) == (0, 1)
    warm = session.analyze(paths)  # disk hit: populates the memory tier
    assert (warm["cache_hits"], warm["cache_misses"]) == (1, 0)
    hot = session.analyze(paths)  # answered without touching disk
    assert (hot["cache_hits"], hot["cache_misses"]) == (1, 0)
    stats = session.stats({})
    assert stats["cache"]["memory_hits"] == 1
    assert stats["cache"]["memory_entries"] >= 1


def test_edit_reanalyses_only_the_edited_file(session, corpus):
    for name in ("a.c", "b.c", "c.c"):
        (corpus / "src" / name).write_text(CLEAN.replace("greet", name[0] * 2))
    paths = {"paths": [str(corpus / "src")]}
    session.analyze(paths)  # 4 misses
    session.did_change({"file": str(corpus / "src" / "a.c"), "text": TAINTED})
    after = session.analyze(paths)
    assert (after["cache_hits"], after["cache_misses"]) == (3, 1)


def test_whole_program_didchange_reports_invalidated_units(session, corpus):
    producer = corpus / "src" / "producer.c"
    consumer = corpus / "src" / "consumer.c"
    producer.write_text(PRODUCER)
    consumer.write_text(CONSUMER)
    session.analyze({"paths": [str(corpus / "src")], "whole_program": True})

    # Editing the producer invalidates its dependent (the consumer) too.
    result = session.did_change({"file": str(producer), "text": PRODUCER + "\n"})
    assert set(result["invalidated_units"]) >= {str(producer), str(consumer)}
    # Editing the consumer (top of the flow) invalidates only itself.
    result = session.did_change({"file": str(consumer), "text": CONSUMER + "\n"})
    assert str(producer) not in result["invalidated_units"]
    assert str(consumer) in result["invalidated_units"]
    # A file outside the linked program carries no invalidation info.
    result = session.did_change({"file": "/elsewhere/x.c", "text": "int x;\n"})
    assert "invalidated_units" not in result


def test_whole_plan_counts_linked_units_without_closure_digests(
    session, corpus
):
    """The session keeps only the TU graph of a whole-program analyze:
    ``whole_plan_units`` is its vertex count (one per linked unit)."""
    producer = corpus / "src" / "producer.c"
    producer.write_text(PRODUCER)
    (corpus / "src" / "consumer.c").write_text(CONSUMER)
    assert session.stats({})["resident"]["whole_plan_units"] == 0

    session.analyze({"paths": [str(corpus / "src")], "whole_program": True})
    assert session.stats({})["resident"]["whole_plan_units"] == 3
    result = session.did_change({"file": str(producer), "text": PRODUCER + "\n"})
    assert str(producer) in result["invalidated_units"]


def test_whole_program_warm_parse_memo(session, corpus):
    params = {"paths": [str(corpus / "src")], "whole_program": True}
    session.analyze(params)
    before = session.stats({})["resident"]
    session.analyze(params)
    after = session.stats({})["resident"]
    assert after["parsed_units"] == before["parsed_units"]  # nothing re-parsed
    assert after["parse_memo_hits"] > before["parse_memo_hits"]


def test_stats_bookkeeping(session, corpus):
    server = Server(session)
    server.handle_line('{"jsonrpc":"2.0","id":1,"method":"ping"}')
    server.handle_line('{"jsonrpc":"2.0","id":2,"method":"bogus"}')
    server.handle_line(
        json.dumps(
            {
                "jsonrpc": "2.0",
                "id": 3,
                "method": "analyze",
                "params": {"paths": [str(corpus / "src")]},
            }
        )
    )
    stats = session.stats({})
    assert stats["requests"] == {"analyze": 1, "ping": 1}
    assert stats["errors"] == 1
    assert stats["uptime_ms"] >= 0
    assert stats["checks"]
    assert set(stats["stage_totals_ms"]) == {"parse", "analyze", "render"}
    stages = [part.split()[0] for part in stats["stage_timings"].split(", ")]
    assert stages == ["parse", "analyze", "render"]


def test_stats_report_render_time_as_render(session, corpus, monkeypatch):
    import repro.serve.session as session_module

    real_render = session_module.render_report

    def slow_render(*args, **kwargs):
        time.sleep(0.3)
        return real_render(*args, **kwargs)

    monkeypatch.setattr(session_module, "render_report", slow_render)
    session.analyze({"paths": [str(corpus / "src")]})
    stats = session.stats({})
    totals = stats["stage_totals_ms"]
    assert totals["render"] >= 300
    assert totals["render"] > totals["parse"] + totals["analyze"]
    assert f"render {totals['render']:.1f} ms" in stats["stage_timings"]
    assert "solve" not in stats["stage_timings"]
    assert "congen" not in stats["stage_timings"]


def _count_parses(monkeypatch) -> list[str]:
    """Record every parse, strict or resilient, by whatever path: both
    parsers lex through the parser module's ``tokenize_c``."""
    import repro.cfront.cparser as cparser_module

    calls: list[str] = []
    real = cparser_module.tokenize_c

    def counted(*args, **kwargs):
        calls.append("resilient" if kwargs.get("recover") else "strict")
        return real(*args, **kwargs)

    monkeypatch.setattr(cparser_module, "tokenize_c", counted)
    return calls


def test_edit_parses_the_edited_unit_once(session, corpus, monkeypatch):
    target = str(corpus / "src" / "greet.c")
    session.analyze({"paths": [str(corpus / "src")]})
    calls = _count_parses(monkeypatch)
    session.did_change({"file": target, "text": TAINTED})
    edited = session.analyze({"paths": [str(corpus / "src")]})
    # the didChange probe's parse serves the analysis too
    assert calls == ["resilient"]
    assert [d["check"] for d in findings(edited)] == ["tainted-format"]
    assert repr(session.parse_unit(target, TAINTED)) == repr(parse_c(TAINTED, target))


@pytest.mark.parametrize(
    "text",
    [
        "#define GREETING 1\n" + TAINTED,  # the preprocessor rewrites the text
        TAINTED + "int broken(;\n",  # recovery changes the unit
    ],
)
def test_edit_probe_seeds_no_unit_a_strict_parse_could_differ_from(
    session, corpus, monkeypatch, text
):
    target = str(corpus / "src" / "greet.c")
    session.analyze({"paths": [str(corpus / "src")]})
    calls = _count_parses(monkeypatch)
    session.did_change({"file": target, "text": text})
    session.analyze({"paths": [str(corpus / "src")]})
    assert calls == ["resilient", "strict"]


def test_analyze_param_validation(session):
    for params in (
        {},
        {"paths": []},
        {"paths": [1]},
        {"paths": ["x.c"], "format": "yaml"},
        {"paths": ["x.c"], "checks": "tainted-format"},
        {"paths": ["x.c"], "checks": ["no-such-check"]},
        {"paths": ["x.c"], "src_root": 5},
    ):
        with pytest.raises(InvalidParams):
            session.analyze(params)


def test_didchange_param_validation(session):
    for params in ({}, {"file": ""}, {"file": 3}, {"file": "a.c", "text": 7}):
        with pytest.raises(InvalidParams):
            session.did_change(params)


def test_session_rejects_unknown_check_names():
    with pytest.raises(Exception):
        Session(checks=("no-such-check",))


def test_close_removes_private_cache_dir():
    s = Session()
    root = Path(s.cache.root)
    assert root.exists()
    s.close()
    assert not root.exists()


def test_explicit_cache_dir_survives_close(tmp_path):
    s = Session(cache_dir=str(tmp_path / "cache"))
    s.cache.put(s.cache.key("test", source="x"), "v")
    s.close()
    assert (tmp_path / "cache").exists()
