"""Smoke test: each walkthrough in ``demos/`` runs to the end against the
current package API. The demos run in-process, so the imports are paid once;
their temporary directories land under the test's ``tmp_path``."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_to_the_end(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
