import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_gpd_dimension_sweep_smoke(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep"
    monkeypatch.setattr(sys, "argv", [
        "run_gpd_dimension_sweep.py", "--levels", "1", "2", "--replications", "1",
        "--main-m", "2000", "--out", str(out),
    ])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_gpd_dimension_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 0
    for level in (1, 2):
        assert (out / f"p{level}" / "experiment_report.json").is_file()
        assert (out / f"p{level}" / "experiment_rows.csv").is_file()
    assert "p'=  2" in capsys.readouterr().out
