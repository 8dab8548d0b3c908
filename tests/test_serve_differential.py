"""Differential tests: the daemon's ``analyze`` and ``suggest``
responses must carry the same rendered report, **byte for byte**, as the
stdout of the one-shot ``python -m repro.checker`` (``... suggest``) over
the same tree — across formats, per-file and whole-program modes, cold
versus warm (memory-tier) session states, and overlay edits."""

import shutil
from pathlib import Path

import pytest

from repro.checker.cli import main as checker_main
from repro.serve import Session

CORPUS = Path(__file__).resolve().parent.parent / "examples" / "multi_tu"


def one_shot(capsys, argv):
    """One-shot CLI stdout + exit code, exactly as a subprocess would see."""
    code = checker_main(argv)
    captured = capsys.readouterr()
    return captured.out, code


@pytest.fixture
def session(tmp_path):
    s = Session(cache_dir=str(tmp_path / "serve-cache"))
    yield s
    s.close()


@pytest.mark.parametrize("fmt", ["json", "sarif", "human"])
@pytest.mark.parametrize("whole", [False, True])
def test_daemon_matches_one_shot_cold_and_warm(capsys, session, fmt, whole):
    argv = [str(CORPUS), "--format", fmt] + (["--whole-program"] if whole else [])
    expected_out, expected_code = one_shot(capsys, argv)
    assert expected_out  # the corpus produces a report in every format

    params = {"paths": [str(CORPUS)], "format": fmt, "whole_program": whole}
    cold = session.analyze(params)
    assert cold["report"] == expected_out
    assert cold["exit_code"] == expected_code

    # Warm: diagnostics now come from the in-memory tier; output must
    # not drift by a byte.
    warm = session.analyze(params)
    assert warm["report"] == expected_out
    assert warm["exit_code"] == expected_code
    if not whole:
        assert warm["cache_hits"] == len(warm["files"])


def test_daemon_matches_one_shot_single_file(capsys, session):
    target = str(CORPUS / "input.c")
    expected_out, expected_code = one_shot(capsys, [target, "--format", "json"])
    result = session.analyze({"paths": [target], "format": "json"})
    assert result["report"] == expected_out
    assert result["exit_code"] == expected_code


def test_edit_then_revert_matches_one_shot_again(capsys, session):
    """After an overlay edit is reverted, the daemon converges back to
    the one-shot answer — stale resident state must not leak."""
    argv = [str(CORPUS), "--format", "json"]
    expected_out, _ = one_shot(capsys, argv)
    params = {"paths": [str(CORPUS)], "format": "json"}
    target = str(CORPUS / "main.c")

    assert session.analyze(params)["report"] == expected_out
    session.did_change({"file": target, "text": "int main(void) { return 0; }\n"})
    edited = session.analyze(params)
    assert edited["report"] != expected_out
    session.did_change({"file": target, "text": None})
    assert session.analyze(params)["report"] == expected_out


def test_check_subset_matches_one_shot(capsys, session):
    expected_out, _ = one_shot(
        capsys, [str(CORPUS), "--format", "json", "--checks", "tainted-format"]
    )
    result = session.analyze(
        {"paths": [str(CORPUS)], "format": "json", "checks": ["tainted-format"]}
    )
    assert result["report"] == expected_out


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("whole", [False, True])
def test_daemon_suggest_matches_one_shot_cold_and_warm(capsys, session, fmt, whole):
    argv = ["suggest", str(CORPUS), "--format", fmt]
    argv += ["--whole-program"] if whole else []
    expected_out, expected_code = one_shot(capsys, argv)
    assert "suggestion" in expected_out  # the corpus yields suggestions

    params = {"paths": [str(CORPUS)], "format": fmt, "whole_program": whole}
    for _ in range(2):  # cold, then warm (memo and memory tier primed)
        result = session.suggest(params)
        assert result["report"] == expected_out
        assert result["exit_code"] == expected_code


@pytest.mark.parametrize("fmt", ["json", "human"])
@pytest.mark.parametrize("whole", [False, True])
def test_daemon_suggest_after_edit_matches_one_shot(
    capsys, tmp_path, session, fmt, whole
):
    """A ``didChange`` overlay edit reaches ``suggest`` exactly as the
    same text saved to disk reaches the one-shot CLI."""
    tree = tmp_path / "tree"
    shutil.copytree(CORPUS, tree)
    target = tree / "report.c"
    edited = target.read_text() + (
        "void *malloc(unsigned long size);\n"
        "char *fresh_copy(void) { char *copy = malloc(8); return copy; }\n"
    )
    params = {"paths": [str(tree)], "format": fmt, "whole_program": whole}
    before = session.suggest(params)["report"]

    session.did_change({"file": str(target), "text": edited})
    from_overlay = session.suggest(params)
    target.write_text(edited)
    argv = ["suggest", str(tree), "--format", fmt]
    expected_out, expected_code = one_shot(
        capsys, argv + (["--whole-program"] if whole else [])
    )
    assert expected_out != before  # the edit changes the suggestions
    assert from_overlay["report"] == expected_out
    assert from_overlay["exit_code"] == expected_code
