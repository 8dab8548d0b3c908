"""The qlint renderers' internals: the indent-2 JSON writer, the per-log
SARIF URI memo, and the human renderer's excerpts.

``_dumps`` must write exactly what ``json.dumps(value, indent=2)`` writes
(plus a newline) for every value a renderer can build; the corpus tests
pin that on the real logs of every ``examples/`` corpus.  The URI tests
hold on any correct resolver, and the moved-tree test fails under any
cache of URIs that outlives one ``render_sarif`` call.
"""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.checker import Diagnostic, FlowStep, Span, analyze, render_human
from repro.checker.checks import ALL_CHECKS
from repro.checker.render import (
    _dumps,
    _json_payload,
    _sarif_log,
    render_json,
    render_sarif,
)

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = REPO / "examples"
ALL_NAMES = tuple(c.name for c in ALL_CHECKS)


# ---------------------------------------------------------------------------
# The writer
# ---------------------------------------------------------------------------

_strings = st.one_of(
    st.text(),
    st.text(
        alphabet=st.sampled_from('"\\/\x00\x1f\x7f\n\r\t\b\f é \ud800\U0001f600')
    ),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    _strings,
)
_values = st.recursive(
    _leaves,
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(_strings, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(_values)
@example({})
@example([[], {"a": {}}, [[]]])
@example({"": ["", 0, -1, 2**70, True, False, None]})
def test_writer_matches_json_dumps_indent_2(value):
    assert _dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "value", [1.5, [0.0], {"x": float("nan")}, (1, 2), {1: "a"}]
)
def test_writer_rejects_what_no_renderer_builds(value):
    with pytest.raises(TypeError):
        _dumps(value)


def _corpus_reports():
    for corpus in sorted(p for p in EXAMPLES.iterdir() if p.is_dir()):
        # the real-world fixture needs resilient ingestion (DESIGN.md)
        best_effort = corpus.name == "realworld"
        for whole_program in (False, True):
            yield pytest.param(
                corpus,
                whole_program,
                best_effort,
                id=f"{corpus.name}-{'whole' if whole_program else 'per-file'}",
            )


@pytest.mark.parametrize(
    "corpus, whole_program, best_effort", list(_corpus_reports())
)
def test_corpus_logs_match_json_dumps(corpus, whole_program, best_effort):
    report = analyze(
        [corpus],
        checks=ALL_NAMES,
        whole_program=whole_program,
        best_effort=best_effort,
        include_paths=(str(corpus / "include"),) if best_effort else (),
    )
    degraded = {f: s for f, s in report.unit_status.items() if s != "ok"} or None
    for src_root in (None, str(REPO), str(corpus)):
        log = _sarif_log(report.diagnostics, src_root, degraded)
        assert render_sarif(report.diagnostics, src_root, degraded) == (
            json.dumps(log, indent=2) + "\n"
        )
    payload = _json_payload(report.diagnostics, degraded)
    assert render_json(report.diagnostics, degraded) == (
        json.dumps(payload, indent=2) + "\n"
    )


# ---------------------------------------------------------------------------
# SARIF URIs: resolved once per log, never across logs
# ---------------------------------------------------------------------------


def _diag(file: str, *steps: str, line: int = 3) -> Diagnostic:
    return Diagnostic(
        "tainted-format",
        "tainted",
        "error",
        "tainted format string",
        Span(file, line, 5),
        tuple(
            FlowStep(f"step {i}", Span(step, i + 1, 2))
            for i, step in enumerate(steps)
        ),
    )


def _artifacts(rendered: str) -> list[dict]:
    (run,) = json.loads(rendered)["runs"]
    found = []
    for result in run["results"]:
        for location in result.get("locations", []):
            found.append(location["physicalLocation"]["artifactLocation"])
        for flow in result.get("codeFlows", []):
            for thread in flow["threadFlows"]:
                for step in thread["locations"]:
                    location = step["location"]["physicalLocation"]
                    found.append(location["artifactLocation"])
    return found


def _touch(path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("int x;\n")
    return path


def test_src_root_through_a_symlink_and_dotdot_paths(tmp_path):
    real = tmp_path / "real"
    _touch(real / "pkg" / "a.c")
    link = tmp_path / "link"
    link.symlink_to(real, target_is_directory=True)
    dotted = str(real / "pkg" / ".." / "pkg" / "a.c")
    rendered = render_sarif([_diag(dotted, dotted)], src_root=str(link))
    assert _artifacts(rendered) == [{"uri": "pkg/a.c", "uriBaseId": "SRCROOT"}] * 2
    (run,) = json.loads(rendered)["runs"]
    root_uri = run["originalUriBaseIds"]["SRCROOT"]["uri"]
    assert root_uri == real.resolve().as_uri() + "/"


def test_file_outside_the_root_stays_absolute(tmp_path):
    _touch(tmp_path / "root" / "in.c")
    outside = str(_touch(tmp_path / "elsewhere" / "out.c"))
    spelled = str(tmp_path / "root" / ".." / "elsewhere" / "out.c")
    rendered = render_sarif(
        [_diag(outside, spelled)],
        src_root=str(tmp_path / "root"),
        unit_status={spelled: "partial"},
    )
    assert _artifacts(rendered) == [{"uri": outside}, {"uri": spelled}]
    (run,) = json.loads(rendered)["runs"]
    assert run["properties"]["qlint/unitStatus"] == {spelled: "partial"}


def test_one_file_named_many_times_gets_one_uri(tmp_path):
    a = str(_touch(tmp_path / "src" / "a.c"))
    b = str(_touch(tmp_path / "src" / "sub" / "b.c"))
    diags = [_diag(a, a, b, a, b, line=n) for n in range(1, 6)]
    rendered = render_sarif(
        diags, src_root=str(tmp_path / "src"), unit_status={a: "ok", b: "partial"}
    )
    uris = {artifact["uri"] for artifact in _artifacts(rendered)}
    assert uris == {"a.c", "sub/b.c"}
    assert len(_artifacts(rendered)) == 25
    (run,) = json.loads(rendered)["runs"]
    statuses = run["properties"]["qlint/unitStatus"]
    assert statuses == {"a.c": "ok", "sub/b.c": "partial"}


def test_retargeted_symlink_between_two_renders(tmp_path):
    root = tmp_path / "root"
    _touch(root / "v1" / "a.c")
    _touch(tmp_path / "outside" / "a.c")
    link = tmp_path / "work"
    link.symlink_to(root / "v1", target_is_directory=True)
    file = str(link / "a.c")
    first = render_sarif([_diag(file, file)], src_root=str(root))
    assert _artifacts(first) == [{"uri": "v1/a.c", "uriBaseId": "SRCROOT"}] * 2

    link.unlink()
    link.symlink_to(tmp_path / "outside", target_is_directory=True)
    second = render_sarif([_diag(file, file)], src_root=str(root))
    assert _artifacts(second) == [{"uri": file}] * 2


def test_moved_tree_between_two_renders(tmp_path):
    tree = tmp_path / "checkout"
    _touch(tree / "src" / "a.c")
    root_link = tmp_path / "root"
    root_link.symlink_to(tree, target_is_directory=True)
    file = str(root_link / "src" / "a.c")
    first = render_sarif([_diag(file)], src_root=str(root_link))
    assert _artifacts(first) == [{"uri": "src/a.c", "uriBaseId": "SRCROOT"}]

    moved = tree.rename(tmp_path / "moved")
    root_link.unlink()
    root_link.symlink_to(moved, target_is_directory=True)
    second = render_sarif([_diag(file)], src_root=str(root_link))
    assert _artifacts(second) == [{"uri": "src/a.c", "uriBaseId": "SRCROOT"}]
    (run,) = json.loads(second)["runs"]
    root_uri = run["originalUriBaseIds"]["SRCROOT"]["uri"]
    assert root_uri == moved.resolve().as_uri() + "/"


# ---------------------------------------------------------------------------
# Human excerpts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text, line, column, excerpt",
    [
        ("int a;\r\nint b;\r\n", 2, 3, ["    int b;", "      ^"]),
        ("int a;\nint last;", 2, 1, ["    int last;", "    ^"]),
        ("int a;\nint b;\n", 3, 1, []),
        ("int a;\nint b;\n", 1, 0, ["    int a;"]),
    ],
    ids=["crlf", "no-final-newline", "past-eof", "zero-column"],
)
def test_human_excerpts(text, line, column, excerpt):
    span = Span("f.c", line, column)
    diag = Diagnostic(
        "nonnull-deref", "nonnull", "warning", "m", span, (FlowStep("s", span),) * 2
    )
    rendered = render_human([diag], {"f.c": text})
    expected = [f"{span}: warning: m [nonnull-deref]", *excerpt, "  qualifier flow:"]
    for index in (1, 2):
        expected.append(f"    {index}. s ({span})")
        expected.extend("  " + row for row in excerpt)
    assert rendered == "\n".join(expected) + "\n"


def test_human_excerpts_from_many_files_and_missing_sources():
    diags = [
        Diagnostic("c", "q", "note", f"m{n}", Span(f"f{n % 3}.c", 1 + n % 2, 1))
        for n in range(6)
    ]
    sources = {"f0.c": "zero\nnil\n", "f1.c": "one\nuno\n"}
    rendered = render_human(diags, sources)
    blocks = rendered.rstrip("\n").split("\n\n")
    assert blocks[0] == "f0.c:1:1: note: m0 [c]\n    zero\n    ^"
    assert blocks[1] == "f1.c:2:1: note: m1 [c]\n    uno\n    ^"
    assert blocks[2] == "f2.c:1:1: note: m2 [c]"
    assert blocks[3] == "f0.c:2:1: note: m3 [c]\n    nil\n    ^"
