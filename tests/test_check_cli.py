"""CLI and reporter tests for ``python -m repro.check``.

Covers exit codes (0 clean / 1 findings / 2 usage error), the golden
JSON report shape, byte-stability of both reporters, and the acceptance
criterion that the shipped tree lints clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.check import analyze_paths, render_json, render_text
from repro.check.cli import main

REPO = Path(__file__).resolve().parents[1]

DIRTY = textwrap.dedent(
    """\
    import numpy as np


    def kernel(x, acc=[]):
        rng = np.random.default_rng()
        return x == 0.5
    """
)

CLEAN = textwrap.dedent(
    """\
    import numpy as np


    def kernel(x: np.ndarray, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return x + rng.standard_normal(x.shape)
    """
)


def write(tmp_path: Path, name: str, source: str) -> Path:
    p = tmp_path / name
    p.write_text(source)
    return p


# -- exit codes ----------------------------------------------------------------


def test_clean_file_exits_zero(tmp_path, capsys):
    p = write(tmp_path, "clean.py", CLEAN)
    assert main([str(p), "--no-config"]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_dirty_file_exits_one(tmp_path, capsys):
    p = write(tmp_path, "dirty.py", DIRTY)
    assert main([str(p), "--no-config"]) == 1
    out = capsys.readouterr().out
    assert "RPR001" in out and "RPR004" in out and "RPR007" in out


def test_unknown_rule_code_exits_two(tmp_path, capsys):
    p = write(tmp_path, "clean.py", CLEAN)
    assert main([str(p), "--no-config", "--select", "RPR999"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_no_paths_exits_two(capsys):
    assert main(["--no-config"]) == 2
    assert "no paths" in capsys.readouterr().err


def test_missing_config_exits_two(tmp_path, capsys):
    p = write(tmp_path, "clean.py", CLEAN)
    assert main([str(p), "--config", str(tmp_path / "nope.toml")]) == 2
    assert "error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPR001", "RPR008"):
        assert code in out


def test_select_filters_findings(tmp_path, capsys):
    p = write(tmp_path, "dirty.py", DIRTY)
    assert main([str(p), "--no-config", "--select", "RPR004"]) == 1
    out = capsys.readouterr().out
    assert "RPR004" in out and "RPR001" not in out


def test_rules_json_listing(capsys):
    assert main(["--rules"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    codes = [r["code"] for r in payload["rules"]]
    assert codes == [f"RPR{i:03d}" for i in range(1, 11)]
    for rule in payload["rules"]:
        assert sorted(rule) == ["code", "name", "scopes", "summary"]
        assert rule["summary"]


# -- --changed (git-diff-scoped runs) ------------------------------------------


def _git(cwd: Path, *argv: str) -> None:
    subprocess.run(
        ["git", *argv],
        cwd=str(cwd),
        check=True,
        capture_output=True,
        env={
            "PATH": "/usr/bin:/bin",
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
        },
    )


def test_changed_analyzes_only_modified_files(tmp_path, capsys, monkeypatch):
    _git(tmp_path, "init", "-q")
    write(tmp_path, "clean.py", CLEAN)
    write(tmp_path, "other.py", DIRTY)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    # dirty only clean.py; other.py stays committed and untouched
    write(tmp_path, "clean.py", DIRTY)
    monkeypatch.chdir(tmp_path)
    assert main(["--changed", "--no-config"]) == 1
    out = capsys.readouterr().out
    assert "clean.py" in out and "other.py" not in out


def test_changed_includes_untracked_files(tmp_path, capsys, monkeypatch):
    _git(tmp_path, "init", "-q")
    write(tmp_path, "tracked.py", CLEAN)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    write(tmp_path, "fresh.py", DIRTY)
    monkeypatch.chdir(tmp_path)
    assert main(["--changed", "--no-config"]) == 1
    assert "fresh.py" in capsys.readouterr().out


def test_changed_clean_tree_exits_zero(tmp_path, capsys, monkeypatch):
    _git(tmp_path, "init", "-q")
    write(tmp_path, "clean.py", CLEAN)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed", "--no-config"]) == 0
    assert "no changed" in capsys.readouterr().out


def test_changed_bad_ref_exits_two(tmp_path, capsys, monkeypatch):
    _git(tmp_path, "init", "-q")
    write(tmp_path, "clean.py", CLEAN)
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    monkeypatch.chdir(tmp_path)
    assert main(["--changed", "no-such-ref", "--no-config"]) == 2
    assert "--changed" in capsys.readouterr().err


# -- golden JSON report --------------------------------------------------------


def test_json_report_shape(tmp_path, capsys):
    p = write(tmp_path, "dirty.py", DIRTY)
    assert main([str(p), "--no-config", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)

    assert payload["tool"] == "repro.check"
    assert payload["version"] == 1
    assert payload["files_checked"] == 1
    assert payload["suppressed"] == 0
    assert set(payload["counts"]) == {"RPR001", "RPR004", "RPR007"}
    assert all(c in payload["rule_index"] for c in payload["counts"])

    by_code = {f["code"]: f for f in payload["findings"]}
    assert set(by_code) == {"RPR001", "RPR004", "RPR007"}
    f = by_code["RPR001"]
    assert f["path"] == str(p)
    assert f["line"] == 5
    assert sorted(f) == ["code", "col", "line", "message", "path"]


def test_reports_are_byte_stable(tmp_path):
    p = write(tmp_path, "dirty.py", DIRTY)
    first = analyze_paths([str(p)])
    second = analyze_paths([str(p)])
    assert render_json(first) == render_json(second)
    assert render_text(first, statistics=True) == render_text(second, statistics=True)
    assert render_json(first).endswith("\n")


def test_findings_sorted_in_reports(tmp_path):
    a = write(tmp_path, "a.py", DIRTY)
    b = write(tmp_path, "b.py", DIRTY)
    result = analyze_paths([str(b), str(a)])  # reversed input order
    paths = [f.path for f in sorted(result.findings)]
    assert paths == sorted(paths)
    assert result.files_checked == 2


# -- acceptance: shipped tree is clean ----------------------------------------


def test_shipped_tree_is_clean():
    result = analyze_paths([str(REPO / "src")])
    assert not result.findings, render_text(result)
    assert result.files_checked > 50
    # the two justified suppressions in the exec/parallel workers
    assert result.suppressed >= 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.check", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0
    assert "RPR001" in proc.stdout
