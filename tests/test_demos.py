"""The demos run end to end against the current API.

Each demo runs in-process in a scratch directory, since some write CSV or
PNG files next to where they run.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "lineshapes.py",
    "linewidth_estimation.py",
    "beat_note_model.py",
    "monte_carlo_oracle.py",
    "ion_spectroscopy.py",
])
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
