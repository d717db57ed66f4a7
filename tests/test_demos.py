"""Every demo script runs to completion and reports no failed check."""

import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert out
    assert "FAIL" not in out
