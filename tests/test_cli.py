import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from semiabc.cli import main

REPO = Path(__file__).resolve().parent.parent
# a normal prior three times wider than the fixture's default N(0, 1)
WIDE_PRIOR = {"0": {"kind": "normal", "a": 0.0, "b": 3.0}}


def write_config(tmp_path, name="config.json", **over):
    base = {
        "model": {"name": "gaussian_location", "params": {"n_noise_stats": 2}},
        "pilot": {"m": 1000, "accept_fraction": 0.1},
        "construct": {"m": 1500},
        "main": {"m": 4000, "accept_fraction": 0.05},
        "targets": [{"kind": "coordinate", "index": 0}],
        "seed": 11,
    }
    base.update(over)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def tree_bytes(directory: Path) -> dict:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestStageEquivalence:
    def test_chained_subcommands_match_infer_full_bitwise(self, tmp_path):
        config = write_config(tmp_path)
        chained = tmp_path / "chained"
        full = tmp_path / "full"

        for command in ("simulate", "pilot", "construct", "infer", "report"):
            assert main([command, "--config", str(config), "--out", str(chained)]) == 0

        assert main(["infer", "--full", "--config", str(config), "--out", str(full)]) == 0
        assert main(["report", "--config", str(config), "--out", str(full)]) == 0

        assert tree_bytes(chained) == tree_bytes(full)

    def test_marginal_knob_makes_full_match_the_chain_through_marginal(self, tmp_path):
        config = write_config(
            tmp_path,
            main={"m": 2000, "accept_fraction": 0.05},
            adjust={"regression": True, "marginal": True},
        )
        chained = tmp_path / "chained"
        full = tmp_path / "full"
        for command in ("simulate", "pilot", "construct", "infer", "marginal"):
            assert main([command, "--config", str(config), "--out", str(chained)]) == 0
        assert main(["infer", "--full", "--config", str(config), "--out", str(full)]) == 0
        assert (full / "posterior_marginal.json").exists()
        assert tree_bytes(chained) == tree_bytes(full)

    def test_rerun_is_byte_identical_across_threads(self, tmp_path):
        config = write_config(tmp_path)
        one = tmp_path / "one"
        eight = tmp_path / "eight"
        args = ["infer", "--full", "--config", str(config)]
        assert main(args + ["--out", str(one), "--threads", "1"]) == 0
        assert main(args + ["--out", str(eight), "--threads", "8"]) == 0
        assert tree_bytes(one) == tree_bytes(eight)


class TestReport:
    def test_report_prints_oracle_alongside_estimate(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0.8" in printed
        assert "theta_0" in printed
        assert (out / "report_table.csv").exists()

    def test_report_prefers_marginal_adjusted_posterior(self, tmp_path, capsys):
        config = write_config(tmp_path, **{"main": {"m": 2000, "accept_fraction": 0.05}})
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        assert main(["marginal", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert "posterior_marginal" in capsys.readouterr().out


    def test_oracle_without_closed_form_prints_a_dash(self, tmp_path, capsys):
        # with xbar_obs 5 the pilot box, and so every draw the log target
        # is evaluated on, lies above zero
        config = write_config(
            tmp_path,
            model={"name": "gaussian_location", "params": {"n_noise_stats": 2, "xbar_obs": 5.0}},
            targets=[{"kind": "coordinate", "index": 0, "transform": "log"}],
        )
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[0] == "log_theta_0" and row[2:4] == ["-", "-"]

    def test_prior_override_leaves_the_oracle_cell_empty(self, tmp_path, capsys):
        # the conjugate oracle was derived for the default prior
        config = write_config(tmp_path, prior_overrides=WIDE_PRIOR)
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[0] == "theta_0" and row[2:4] == ["-", "-"]
        table = (out / "report_table.csv").read_text().splitlines()
        assert table[1].split(",")[2:4] == ["", ""]


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_validation_error_is_one(self, tmp_path):
        config = write_config(tmp_path, main={"m": 100, "accept_fraction": 1.5})
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_missing_upstream_artifact_is_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["pilot", "--config", str(config), "--out", str(tmp_path / "empty")])
        assert code == 1
        assert "batch_pilot" in capsys.readouterr().err

    def test_config_hash_mismatch_between_stages_is_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["pilot", "--config", str(config), "--seed", "99", "--out", str(out)]) == 1
        assert "refusing to mix runs" in capsys.readouterr().err

    @pytest.mark.parametrize("full", [False, True], ids=["chained", "full"])
    def test_numerical_failure_is_two(self, tmp_path, full):
        # duplicated basis monomials make the construction regression
        # rank-deficient with no ridge penalty
        config = write_config(
            tmp_path,
            basis={"kind": "powers", "exponents": [[1, 0, 0, 0], [1, 0, 0, 0]]},
        )
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        if full:
            assert main(["infer", "--full"] + args) == 2
            # --full computes every stage before it writes any
            assert [p.name for p in out.iterdir()] == ["config.json"]
        else:
            assert main(["simulate"] + args) == 0
            assert main(["pilot"] + args) == 0
            assert main(["construct"] + args) == 2
            assert (out / "region.json").exists()
            assert not (out / "projector.json").exists()

    def test_unknown_command_is_one(self, tmp_path):
        assert main(["bogus"]) == 1

    def test_missing_output_dir_is_one(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config)]) == 1


def rewrite_rows(path: Path, edit) -> None:
    """Apply `edit` to the cells of every data row of a CSV artifact; a row
    for which it returns None is dropped."""
    header, *rows = path.read_text().splitlines()
    rows = [row.split(",") for row in rows]
    rows = [",".join(c) for i, row in enumerate(rows) if (c := edit(i, row)) is not None]
    path.write_text("\n".join([header] + rows) + "\n")


class TestMalformedArtifacts:
    """A corrupted table is a validation error: exit 1 and one `error:`
    line naming the file, never a traceback."""

    def assert_rejected(self, code, capsys, name):
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert name in err
        assert "Traceback" not in err
        assert "Warning" not in err
        return err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda i, cells: cells[:2] + ["0.5x"] + cells[3:] if i == 3 else cells,
            lambda i, cells: cells[:2] + ["nan"] + cells[3:] if i == 3 else cells,
            lambda i, cells: cells[:-1] if i == 3 else cells,
            lambda i, cells: cells[:-1],
            lambda i, cells: None,
        ],
        ids=["bad_cell", "nan_cell", "ragged_row", "missing_column", "header_only"],
    )
    # a warning numpy emits while parsing fails the test instead of
    # reaching stderr next to the error line
    @pytest.mark.filterwarnings("error")
    def test_corrupted_batch(self, tmp_path, capsys, edit):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        rewrite_rows(out / "batch_pilot.csv", edit)
        capsys.readouterr()
        code = main(["pilot", "--config", str(config), "--out", str(out)])
        err = self.assert_rejected(code, capsys, "batch_pilot.csv")
        header, *rows = (out / "batch_pilot.csv").read_text().splitlines()
        if not rows:
            assert f"0 rows of {header.count(',') + 1} columns" in err

    def test_non_integral_draw_index(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        rewrite_rows(out / "posterior_main.csv", lambda i, c: ["3.5"] + c[1:] if i == 1 else c)
        capsys.readouterr()
        code = main(["report", "--config", str(config), "--out", str(out)])
        self.assert_rejected(code, capsys, "draw_index")

    def test_posterior_with_a_weight_column(self, tmp_path, capsys):
        # the posterior format from before every posterior was equally weighted
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        path = out / "posterior_main.csv"
        header, *rows = path.read_text().splitlines()
        weight = repr(1.0 / len(rows))
        path.write_text("\n".join([header + ",weight"] + [f"{r},{weight}" for r in rows]) + "\n")
        capsys.readouterr()
        code = main(["report", "--config", str(config), "--out", str(out)])
        self.assert_rejected(code, capsys, "posterior_main.csv")


    def test_posterior_with_truncated_distances(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        sidecar = json.loads((out / "posterior_main.json").read_text())
        sidecar["distances"] = sidecar["distances"][:2]
        (out / "posterior_main.json").write_text(json.dumps(sidecar))
        capsys.readouterr()
        code = main(["report", "--config", str(config), "--out", str(out)])
        err = self.assert_rejected(code, capsys, "posterior_main.json")
        assert "'distances'" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "sidecar, key, stages",
        [
            ("projector.json", "coef", ("simulate", "pilot", "construct", "infer")),
            ("batch_pilot.json", "stat_dim", ("simulate", "pilot")),
            ("region.json", "lo", ("simulate", "pilot", "construct")),
        ],
    )
    def test_sidecar_missing_a_key(self, tmp_path, capsys, sidecar, key, stages):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        for stage in stages[:-1]:
            assert main([stage] + args) == 0
        data = json.loads((out / sidecar).read_text())
        del data[key]
        (out / sidecar).write_text(json.dumps(data))
        capsys.readouterr()
        err = self.assert_rejected(main([stages[-1]] + args), capsys, sidecar)
        assert f"{key!r}" in err and len(err.splitlines()) == 1

    def test_sidecar_that_is_not_json(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        assert main(["pilot"] + args) == 0
        (out / "region.json").write_text("{nope")
        capsys.readouterr()
        self.assert_rejected(main(["construct"] + args), capsys, "region.json")


class TestSeedOverride:
    def test_negative_seed_is_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        args = ["simulate", "--config", str(config), "--seed", "-1", "--out", str(tmp_path / "o")]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: 'seed' ")

    def test_seed_flag_changes_results_consistently(self, tmp_path):
        config = write_config(tmp_path)
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        assert main(["infer", "--full", "--config", str(config), "--out", str(a)]) == 0
        args = ["infer", "--full", "--config", str(config), "--seed", "12"]
        assert main(args + ["--out", str(b)]) == 0
        assert main(args + ["--out", str(c)]) == 0
        assert tree_bytes(b) == tree_bytes(c)
        assert tree_bytes(a) != tree_bytes(b)


class TestExperimentCommand:
    def test_experiment_runs_and_persists(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            model={"name": "linear_gaussian", "params": {
                "p": 2, "d": 2, "coeffs": [[1.0, 0.0], [1.0, 1.0]],
                "noise_sd": 1.0, "s_obs": [1.0, 2.0]}},
            pilot={"m": 800, "accept_fraction": 0.1},
            construct={"m": 1000},
            main={"m": 2000, "accept_fraction": 0.05},
            targets=[{"kind": "coordinate", "index": 0}, {"kind": "coordinate", "index": 1}],
            experiment={"strategies": ["joint"], "replications": 2},
        )
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "experiment_report.json").exists()
        rows = (out / "experiment_rows.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 replicates x 2 targets
        assert "p'=2" in capsys.readouterr().out

    def test_experiment_refuses_marginal_adjustment(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            adjust={"marginal": True},
            experiment={"strategies": ["joint"], "replications": 1},
        )
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: 'adjust.marginal' ")

    def test_experiment_refuses_a_prior_override(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            prior_overrides=WIDE_PRIOR,
            experiment={"strategies": ["joint"], "replications": 1},
        )
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'targets[0]' has no oracle value")
        assert "prior_overrides" in err

    def test_experiment_without_plan_is_one(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_cli_path_leaves_scipy_linalg_unloaded():
    # No CLI stage solves an SPD system, so parsing each committed config
    # and building its fixture must not pay for importing scipy.linalg.
    code = textwrap.dedent("""
        import sys
        from pathlib import Path

        import semiabc.cli
        from semiabc.runconfig import parse_config
        from semiabc.semiauto import build_fixture

        configs = sorted(Path(sys.argv[1]).glob("*.json"))
        for path in configs:
            build_fixture(parse_config(path))
        print(len(configs), sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
    """)
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "configs")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    count, loaded = result.stdout.split(" ", 1)
    assert int(count) >= 2
    assert loaded.strip() == "[]"
