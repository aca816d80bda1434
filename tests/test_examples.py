"""Smoke tests: every example script must run cleanly end to end.

Each script takes about a second (0.6-1.3 s on a 2-vCPU VM), so all of
them run here.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"

SCRIPTS = sorted(path.name for path in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS)
def test_example_runs(script, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_quickstart_shows_all_formats(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["quickstart.py"])
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    for fmt in ("COO", "LINEAR", "GCSR++", "GCSC++", "CSF"):
        assert fmt in out


def test_figure1_matches_paper_values(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["paper_figure1.py"])
    runpy.run_path(str(EXAMPLES / "paper_figure1.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "nfibs: [2, 3, 5]" in out
    assert "25" in out and "26" in out  # the LINEAR addresses


def test_all_examples_exist_and_are_documented():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 9
    for script in scripts:
        head = script.read_text().split("\n", 5)
        assert head[0].startswith("#!"), script.name
        assert '"""' in head[1], f"{script.name} lacks a docstring"
