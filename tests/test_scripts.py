import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_sweep(monkeypatch, *args) -> int:
    monkeypatch.setattr(sys, "argv", ["run_gpd_dimension_sweep.py", *args])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "run_gpd_dimension_sweep.py"), run_name="__main__")
    return exit_info.value.code


def test_gpd_dimension_sweep_smoke(tmp_path, monkeypatch, capsys):
    out = tmp_path / "sweep"
    code = run_sweep(
        monkeypatch, "--levels", "1", "2", "--replications", "1", "--main-m", "2000",
        "--out", str(out),
    )
    assert code == 0
    for level in (1, 2):
        assert (out / f"p{level}" / "experiment_report.json").is_file()
        assert (out / f"p{level}" / "experiment_rows.csv").is_file()
    assert "p'=  2" in capsys.readouterr().out


def test_gpd_dimension_sweep_level_without_rows_exits_two(tmp_path, monkeypatch, capsys):
    # 100 main draws accept two, too few to regression-adjust: every cell fails
    out = tmp_path / "sweep"
    code = run_sweep(
        monkeypatch, "--levels", "1", "--replications", "1", "--main-m", "100", "--out", str(out)
    )
    assert code == 2
    assert (out / "p1" / "experiment_report.json").is_file()
    printed = capsys.readouterr().out
    assert "p'=  1: no rows, 1 failures, first: NumericalError: " in printed


def test_gpd_dimension_sweep_without_worker_threads_exits_one(tmp_path, monkeypatch, capsys):
    code = run_sweep(monkeypatch, "--levels", "1", "--threads", "0", "--out", str(tmp_path / "s"))
    assert code == 1
    assert capsys.readouterr().err == "error: --threads must be >= 1, got 0\n"
    assert not (tmp_path / "s").exists()


def test_gpd_dimension_sweep_bad_argument_exits_one(tmp_path, monkeypatch, capsys):
    code = run_sweep(monkeypatch, "--levels", "1", "--main-m", "0", "--out", str(tmp_path / "s"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: 'main.m' ") and len(err.splitlines()) == 1
    assert not (tmp_path / "s").exists()
