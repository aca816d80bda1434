"""``tools/bench_report.py`` stamps each record with the commit it ran on.

The tool is copied into a throwaway ``git init`` repository (it resolves
the repository from its own path), so the check never depends on the
state of the checkout running the suite.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "bench_report.py"

pytestmark = pytest.mark.skipif(
    shutil.which("git") is None, reason="needs the git executable"
)


def _git(repo: Path, *args: str) -> str:
    return subprocess.check_output(
        ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
         "-c", "commit.gpgsign=false", *args],
        cwd=repo, text=True,
    ).strip()


def _load_tool(repo: Path):
    spec = importlib.util.spec_from_file_location(
        "bench_report_copy", repo / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_commit_is_marked_dirty_when_tracked_files_change(tmp_path):
    (tmp_path / "tools").mkdir()
    shutil.copy(_TOOL, tmp_path / "tools" / "bench_report.py")
    (tmp_path / "data.txt").write_text("one\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "initial")
    head = _git(tmp_path, "rev-parse", "--short", "HEAD")
    tool = _load_tool(tmp_path)

    # An untracked file leaves the tree clean.
    (tmp_path / "scratch.txt").write_text("untracked\n")
    assert tool.git_commit() == head

    (tmp_path / "data.txt").write_text("two\n")
    assert tool.git_commit() == f"{head}-dirty"
