import itertools
import json
import os
import subprocess
import sys
import textwrap
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from semiabc import artifacts, cli, engine, experiment, semiauto
from semiabc.cli import main
from semiabc.errors import ArtifactError
from semiabc.runconfig import parse_config

REPO = Path(__file__).resolve().parent.parent


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


# GPD with a degree-2 basis (104 columns of 13 statistics): its design
# blocks have CHUNK (4096) rows, and the construct fit and the main
# projection both cross their boundaries
GPD_BLOCKS = dict(
    model={"name": "gpd", "params": {"sigma_true": 1.0, "xi_true": 0.2, "n_exceedances": 100}},
    pilot={"m": 2000, "accept_fraction": 0.05},
    construct={"m": 4500},
    main={"m": 9000, "accept_fraction": 0.02},
    basis={"kind": "polynomial", "degree": 2},
    targets=[{"kind": "gpd_quantile", "tau": 0.9}, {"kind": "gpd_quantile", "tau": 0.99}],
    adjust={"regression": True},
    ridge_lambda=1e-8,
)

# GPD with a degree-3 basis (559 columns): a design block holds at most
# `semiauto._BLOCK_BYTES`, 1875 rows, so the 2000-row construct fit reads
# two blocks and the 4000-row main projection three
GPD_CUBIC_BLOCKS = dict(
    GPD_BLOCKS,
    construct={"m": 2000},
    main={"m": 4000, "accept_fraction": 0.02},
    basis={"kind": "polynomial", "degree": 3},
)


def tree_bytes(directory: Path) -> dict:
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestStageEquivalence:
    def test_chained_subcommands_match_infer_full_bitwise(self, tmp_path):
        self.assert_chained_matches_full(tmp_path)

    def test_chained_matches_full_across_design_blocks(self, tmp_path):
        self.assert_chained_matches_full(tmp_path, **GPD_BLOCKS)

    def test_chained_matches_full_across_byte_sized_blocks(self, tmp_path):
        self.assert_chained_matches_full(tmp_path, **GPD_CUBIC_BLOCKS)

    def assert_chained_matches_full(self, tmp_path, **over):
        config = write_config(tmp_path, **over)
        chained = tmp_path / "chained"
        full = tmp_path / "full"

        for command in ("simulate", "pilot", "construct", "infer", "report"):
            assert main([command, "--config", str(config), "--out", str(chained)]) == 0

        assert main(["infer", "--full", "--config", str(config), "--out", str(full)]) == 0
        assert main(["report", "--config", str(config), "--out", str(full)]) == 0

        assert tree_bytes(chained) == tree_bytes(full)

    def test_rerun_is_byte_identical_across_threads(self, tmp_path):
        self.assert_identical_across_threads(tmp_path)

    def test_identical_across_threads_and_design_blocks(self, tmp_path):
        self.assert_identical_across_threads(tmp_path, **GPD_BLOCKS)

    def test_identical_across_threads_and_byte_sized_blocks(self, tmp_path):
        self.assert_identical_across_threads(tmp_path, **GPD_CUBIC_BLOCKS)

    def assert_identical_across_threads(self, tmp_path, **over):
        config = write_config(tmp_path, **over)
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

    def test_one_parameter_marginal_equals_the_joint_posterior(self, tmp_path):
        # `marginal` estimates on the stages `infer` ran: with one parameter
        # its margin is the joint posterior's own, and the remap keeps it
        config = str(REPO / "configs" / "gaussian_location.json")
        out = str(tmp_path / "run")
        assert main(["infer", "--full", "--config", config, "--out", out]) == 0
        assert main(["marginal", "--config", config, "--out", out]) == 0
        main_csv = (tmp_path / "run" / "posterior_main.csv").read_bytes()
        assert (tmp_path / "run" / "posterior_marginal.csv").read_bytes() == main_csv

    def test_each_fact_of_a_run_is_stored_once(self, tmp_path):
        config = write_config(
            tmp_path,
            model={"name": "linear_gaussian", "params": {
                "p": 2, "d": 2, "coeffs": [[1.0, 0.0], [1.0, 1.0]],
                "noise_sd": 1.0, "s_obs": [1.0, 2.0]}},
            targets=[{"kind": "coordinate", "index": 0}, {"kind": "coordinate", "index": 1}],
        )
        out = tmp_path / "run"
        for command in (["infer", "--full"], ["marginal"]):
            assert main(command + ["--config", str(config), "--out", str(out)]) == 0
        tables = sorted(out.glob("*.csv"))
        assert {p.stem for p in tables} == {
            "observed", "batch_pilot", "posterior_pilot", "batch_construct", "batch_main",
            "posterior_main", "posterior_marginal"}
        columns = {}
        for path in tables:
            header = path.read_text().partition("\n")[0].split(",")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            rows = np.arange(data.shape[0])
            assert not any(np.array_equal(column, rows) for column in data.T), path.name
            columns.update({(path.stem, name): np.sort(c) for name, c in zip(header, data.T)})
        # no table restates another's column, even reordered: a remapped
        # margin is its marginal's draws, sorted by the joint's ranks. The
        # posterior loader still reads posterior_marginal's draw_index, a
        # copy of posterior_main's, until binary artifacts (ROADMAP item 2).
        restated = [
            (a, b) for a, b in itertools.combinations(columns, 2)
            if a[0] != b[0] and np.array_equal(columns[a], columns[b])
        ]
        copy = (("posterior_main", "draw_index"), ("posterior_marginal", "draw_index"))
        assert restated == [copy]

        def provenance(name):
            return json.loads((out / f"{name}.json").read_text())["provenance"]

        for name in ("posterior_pilot", "posterior_main", "posterior_marginal"):
            assert not provenance(name).keys() & {"seed", "model", "prior_hash"}, name
        assert provenance("posterior_pilot")["constant_columns"] == 0
        # the remapped posterior holds, per coordinate, the two facts of its
        # marginal ABC pass that no other file holds, and nothing of the joint's
        joint, remapped = provenance("posterior_main"), provenance("posterior_marginal")
        assert remapped.keys() == {"marginals"}
        marginals = remapped["marginals"]
        assert [m["coordinate"] for m in marginals] == [0, 1]
        assert all(m.keys() == {"coordinate", "epsilon", "projector_id"} for m in marginals)
        assert len({m["projector_id"] for m in marginals} | {joint["projector_id"]}) == 3
        epsilon = json.loads((out / "posterior_main.json").read_text())["epsilon"]
        assert epsilon not in [m["epsilon"] for m in marginals]
        assert "model" not in json.loads((out / "observed.json").read_text())

    def test_a_study_stores_each_oracle_value_once(self, tmp_path):
        config = write_config(
            tmp_path,
            model={"name": "linear_gaussian", "params": {
                "p": 2, "d": 2, "coeffs": [[1.0, 0.0], [1.0, 1.0]],
                "noise_sd": 1.0, "s_obs": [1.0, 2.0]}},
            main={"m": 2000, "accept_fraction": 0.05},
            targets=[{"kind": "coordinate", "index": 0}, {"kind": "coordinate", "index": 1}],
            experiment={"strategies": ["joint", "separate"], "replications": 1},
        )
        out = tmp_path / "study"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "experiment_report.json").read_text())
        oracle = semiauto.build_fixture(parse_config(config)).oracle
        values = report["oracle_value_by_target"]
        assert values == {t.name: oracle.target_mean(t) for t in parse_config(config).targets}
        assert len(report["rows"]) == 4
        for row in report["rows"]:
            assert "oracle_value" not in row
            assert row["abs_error"] == abs(row["estimate"] - values[row["target"]])
        header = (out / "experiment_rows.csv").read_text().partition("\n")[0].split(",")
        assert "oracle_value" not in header and "abs_error" in header

    def test_report_reads_a_sidecar_that_still_holds_distances(self, tmp_path):
        # earlier versions wrote the accepted draws' distances into the sidecar
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        table = (out / "report_table.csv").read_bytes()
        path = out / "posterior_main.json"
        sidecar = json.loads(path.read_text())
        assert "distances" not in sidecar
        sidecar["distances"] = [0.0] * sidecar["n"]
        path.write_text(json.dumps(sidecar))
        (out / "report_table.csv").unlink()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "report_table.csv").read_bytes() == table

    def test_chain_reads_sidecars_that_still_hold_dropped_keys(self, tmp_path):
        # earlier versions also wrote each sidecar's stage, the run seed, a
        # copy of the region in batch and projector, the model in
        # observed.json, and copies in posterior provenance: the config
        # hash, each batch's seed, model and prior hash, and in the
        # remapped posterior the joint's whole provenance and the
        # coordinates remapped
        config = write_config(tmp_path, main={"m": 2000, "accept_fraction": 0.05})
        untouched, restored = tmp_path / "untouched", tmp_path / "restored"

        def run(*commands):
            for out in (untouched, restored):
                for command in commands:
                    assert main([command, "--config", str(config), "--out", str(out)]) == 0

        def read(name):
            return json.loads((restored / f"{name}.json").read_text())

        def restore(name, provenance=None, **keys):
            sidecar = read(name)
            assert not keys.keys() & sidecar.keys()
            sidecar.update(keys)
            if provenance:
                assert not provenance.keys() & sidecar["provenance"].keys()
                sidecar["provenance"].update(provenance)
            (restored / f"{name}.json").write_text(json.dumps(sidecar))

        def batch_facts(name):
            batch = read(name)
            return {"seed": batch["seed"], "model": batch["model"], "prior_hash": batch["prior_hash"]}

        def same_bytes(*edited):
            a, b = tree_bytes(untouched), tree_bytes(restored)
            return {k for k in a.keys() | b.keys() if a.get(k) != b.get(k)} == set(edited)

        run("simulate", "pilot", "construct")
        region = read("region")
        box = {"lo": region["lo"], "hi": region["hi"]}
        restore("observed", seed=11, model="gaussian_location")
        restore("batch_pilot", stage="simulate", region=None)
        restore("posterior_pilot", batch_facts("batch_pilot"), stage="pilot")
        restore("region", seed=11)
        restore("batch_construct", stage="construct", region=box)
        restore("projector", seed=11, region=box)
        edited = [f"{n}.json" for n in ("observed", "batch_pilot", "posterior_pilot", "region",
                                         "batch_construct", "projector")]
        run("infer")
        assert same_bytes(*edited)
        restore("batch_main", stage="infer", region=box)
        h = read("posterior_main")["config_hash"]
        restore("posterior_main", {"config_hash": h, **batch_facts("batch_main")}, stage="infer")
        edited += ["batch_main.json", "posterior_main.json"]
        run("marginal")
        # the remapped posterior copies nothing from the joint it read
        assert same_bytes(*edited)
        marginals = read("posterior_marginal")["provenance"]["marginals"]
        sources = {str(m["coordinate"]): m for m in marginals}
        joint = {**read("posterior_main")["provenance"], "remapped_coordinates": [0],
                 "marginal_adjustment": {"sources": sources}}
        restore("posterior_marginal", joint, stage="marginal")
        run("report")
        assert same_bytes(*edited, "posterior_marginal.json")

    def test_chain_reads_a_projector_that_still_holds_exponents(self, tmp_path):
        # earlier versions wrote the basis's `exponents`, null for every
        # identity and polynomial basis
        config = write_config(tmp_path, basis={"kind": "polynomial", "degree": 2})
        untouched, restored = tmp_path / "untouched", tmp_path / "restored"

        def run(*commands):
            for out in (untouched, restored):
                for command in commands:
                    assert main([command, "--config", str(config), "--out", str(out)]) == 0

        run("simulate", "pilot", "construct")
        path = restored / "projector.json"
        sidecar = json.loads(path.read_text())
        assert "exponents" not in sidecar["basis"]
        sidecar["basis"]["exponents"] = None
        path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
        run("infer", "report")
        a, b = tree_bytes(untouched), tree_bytes(restored)
        assert a.keys() == b.keys()
        assert {k for k in a if a[k] != b[k]} == {"projector.json"}
        line = b'    "exponents": null,\n'
        assert len(line) == 23 and b["projector.json"].replace(line, b"") == a["projector.json"]

    def test_oracle_without_closed_form_prints_a_dash(self, tmp_path, capsys):
        # the conditioning oracle of the linear-Gaussian model has no closed
        # form for a GPD quantile of its two coordinates
        config = write_config(
            tmp_path,
            model={"name": "linear_gaussian", "params": {
                "p": 2, "d": 2, "coeffs": [[1.0, 0.0], [1.0, 1.0]],
                "noise_sd": 1.0, "s_obs": [1.0, 2.0]}},
            targets=[{"kind": "gpd_quantile", "tau": 0.9}],
        )
        out = tmp_path / "run"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--config", str(config), "--out", str(out)]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[0] == "gpd_q0.9" and row[2:4] == ["-", "-"]


# each sidecar's kind and its keys beside `kind` and `config_hash`, by the
# name its file starts with
SIDECAR_KEYS = {
    "observed": ("observed_data", {"s_obs"}),
    "batch_": ("simulation_batch", {"seed", "model", "prior_hash", "m", "param_dim", "stat_dim"}),
    "posterior_": ("posterior", {"n", "param_dim", "epsilon", "provenance"}),
    "region": ("truncation_region", {"lo", "hi"}),
    "projector": ("summary_projector", {
        "projector_id", "basis", "intercept", "coef", "target_names", "condition_number",
        "vifs", "residual_mss"}),
    "experiment_report": ("experiment_report", {
        "rows", "failures", "oracle_value_by_target", "error_by_p_prime",
        "adjustment_condition_by_p_prime", "error_by_target", "cross_strategy_discrepancy"}),
}


def test_every_sidecar_holds_exactly_its_keys(tmp_path):
    # nothing reads back observed.json, experiment_report.json or the
    # projector_id, so only this test sees a key that the writer drops or
    # misspells
    chain = ["simulate", "pilot", "construct", "infer", "marginal", "report"]
    runs = [
        (write_config(tmp_path, "chain.json"), [[c] for c in chain]),
        (write_config(tmp_path, "gpd.json", **GPD_BLOCKS), [["infer", "--full"]]),
        (write_config(tmp_path, "study.json", experiment={
            "strategies": ["joint"], "replications": 1}), [["experiment"]]),
    ]
    stages = {"observed", "batch_pilot", "posterior_pilot", "region", "batch_construct",
              "projector", "batch_main", "posterior_main"}
    expected = [stages | {"posterior_marginal"}, stages, {"experiment_report"}]
    for (config, commands), names in zip(runs, expected):
        out = tmp_path / config.stem
        for command in commands:
            assert main(command + ["--config", str(config), "--out", str(out)]) == 0
        sidecars = {p.stem: json.loads(p.read_text()) for p in out.glob("*.json")}
        assert sidecars.pop("config")
        assert sidecars.keys() == names
        h = parse_config(config).config_hash()
        for name, sidecar in sidecars.items():
            [(kind, keys)] = [v for k, v in SIDECAR_KEYS.items() if name.startswith(k)]
            assert sidecar.keys() == keys | {"kind", "config_hash"}, name
            assert sidecar["kind"] == kind and sidecar["config_hash"] == h, name


class TestExitCodes:
    def test_success_is_zero(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 0

    def test_validation_error_is_one(self, tmp_path):
        config = write_config(tmp_path, main={"m": 100, "accept_fraction": 1.5})
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_no_worker_threads_is_one(self, tmp_path, capsys):
        config = write_config(tmp_path)
        args = ["simulate", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(args + ["--threads", "0"]) == 1
        assert capsys.readouterr().err == "error: --threads must be >= 1, got 0\n"
        assert not (tmp_path / "o").exists()

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

    def test_refused_command_leaves_the_run_as_it_was(self, tmp_path, capsys):
        # the refused command's config.json would no longer describe the
        # artifacts beside it
        config = REPO / "configs" / "gpd_quantiles.json"
        out = tmp_path / "o"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 0
        before = tree_bytes(out)
        args = ["report", "--config", str(config), "--out", str(out), "--seed", "99"]
        assert main(args) == 1
        assert "refusing to mix runs" in capsys.readouterr().err
        assert tree_bytes(out) == before

    @pytest.mark.filterwarnings("ignore:1 constant statistic column")
    @pytest.mark.parametrize("full", [False, True], ids=["chained", "full"])
    def test_numerical_failure_is_two(self, tmp_path, full):
        # one observation per draw makes the sd statistic constant, so the
        # construction regression is rank-deficient with no ridge penalty
        config = write_config(
            tmp_path, model={"name": "gaussian_location", "params": {"n_noise_stats": 2, "n": 1}}
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

    def test_pilot_records_its_constant_statistics(self, tmp_path):
        # one observation per draw makes the sd statistic constant: the
        # pilot scales it by 1.0, warns, and says so in its provenance
        config = write_config(
            tmp_path, model={"name": "gaussian_location", "params": {"n_noise_stats": 2, "n": 1}}
        )
        args = ["--config", str(config), "--out", str(tmp_path / "o")]
        assert main(["simulate"] + args) == 0
        with pytest.warns(UserWarning, match="1 constant statistic column"):
            assert main(["pilot"] + args) == 0
        sidecar = json.loads((tmp_path / "o" / "posterior_pilot.json").read_text())
        assert sidecar["provenance"]["constant_columns"] == 1

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

    def test_batch_with_the_earlier_row_number_column(self, tmp_path, capsys):
        # earlier versions led every batch table with a draw_index column
        config = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        path = out / "batch_pilot.csv"
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([f"draw_index,{header}"]
                                  + [f"{i},{row}" for i, row in enumerate(rows)]) + "\n")
        capsys.readouterr()
        code = main(["pilot", "--config", str(config), "--out", str(out)])
        err = self.assert_rejected(code, capsys, "batch_pilot.csv")
        assert "draw_index column of an earlier version" in err and len(err.splitlines()) == 1
        assert not (out / "posterior_pilot.json").exists()

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

    @pytest.mark.parametrize(
        "sidecar, key, value, stages",
        [
            ("projector.json", "coef", "abc", ("simulate", "pilot", "construct", "infer")),
            ("projector.json", "coef", [[0.5]], ("simulate", "pilot", "construct", "infer")),
            ("projector.json", "vifs", [1.0], ("simulate", "pilot", "construct", "infer")),
            ("batch_pilot.json", "param_dim", "1", ("simulate", "pilot")),
            ("region.json", "lo", ["abc"], ("simulate", "pilot", "construct")),
        ],
        ids=["coef_string", "coef_width", "vifs_length", "param_dim_string", "lo_string"],
    )
    def test_sidecar_value_of_the_wrong_type_or_shape(
        self, tmp_path, capsys, sidecar, key, value, stages
    ):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        for stage in stages[:-1]:
            assert main([stage] + args) == 0
        data = json.loads((out / sidecar).read_text())
        data[key] = value
        (out / sidecar).write_text(json.dumps(data))
        capsys.readouterr()
        err = self.assert_rejected(main([stages[-1]] + args), capsys, sidecar)
        assert len(err.splitlines()) == 1

    def test_sidecar_that_is_not_json(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        assert main(["pilot"] + args) == 0
        (out / "region.json").write_text("{nope")
        capsys.readouterr()
        self.assert_rejected(main(["construct"] + args), capsys, "region.json")

    def test_sidecar_that_is_not_an_object(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "o"
        args = ["--config", str(config), "--out", str(out)]
        assert main(["simulate"] + args) == 0
        (out / "batch_pilot.json").write_text("[1, 2]")
        capsys.readouterr()
        err = self.assert_rejected(main(["pilot"] + args), capsys, "batch_pilot.json")
        assert len(err.splitlines()) == 1


class TestStageNames:
    """`perfbench/spans.py` times each stage through the name its caller
    looks up: a chained command through `semiabc.cli`, `infer --full`
    through `semiabc.semiauto`. A stage reached another way is untimed."""

    STAGES = ("stage_pilot", "stage_construct", "stage_infer")

    def count_calls(self, monkeypatch):
        calls = []
        for module in (cli, semiauto):
            for name in self.STAGES:
                def counting(*args, _stage=getattr(module, name), _key=(module, name), **kwargs):
                    calls.append(_key)
                    return _stage(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        return calls

    def test_each_chained_stage_reaches_its_cli_name_once(self, tmp_path, monkeypatch):
        args = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        assert main(["simulate"] + args) == 0
        calls = self.count_calls(monkeypatch)
        for command, stage in zip(("pilot", "construct", "infer"), self.STAGES):
            calls.clear()
            assert main([command] + args) == 0
            assert calls == [(cli, stage)]

    def test_full_reaches_each_semiauto_name_once(self, tmp_path, monkeypatch):
        calls = self.count_calls(monkeypatch)
        args = ["--config", str(write_config(tmp_path)), "--out", str(tmp_path / "o")]
        assert main(["infer", "--full"] + args) == 0
        assert calls == [(semiauto, stage) for stage in self.STAGES]


class TestTooFewDraws:
    """A stage that would fit with too few draws is a validation error:
    exit 1 and one `error:` line naming the key, before anything is
    written."""

    def assert_refused(self, tmp_path, capsys, key, **over):
        data = json.loads((REPO / "configs" / "gpd_quantiles.json").read_text())
        data.update(over)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "o"
        assert main(["infer", "--full", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: '{key}' ")
        assert "Traceback" not in err
        assert not out.exists()
        return err

    def test_construct_m_below_the_basis_width(self, tmp_path, capsys):
        err = self.assert_refused(
            tmp_path, capsys, "construct.m",
            basis={"kind": "polynomial", "degree": 3}, construct={"m": 500},
        )
        assert "559 basis columns" in err and "561" in err

    def test_a_large_degree_is_refused_before_its_monomials_are_listed(self, tmp_path, capsys):
        # degree 15 on 13 statistics has C(28, 15) - 1 = 37442159 columns;
        # listing them would exhaust memory before the count is checked
        err = self.assert_refused(
            tmp_path, capsys, "construct.m", basis={"kind": "polynomial", "degree": 15},
        )
        assert "37442159 basis columns" in err

    def test_too_few_accepted_draws_to_adjust(self, tmp_path, capsys):
        err = self.assert_refused(
            tmp_path, capsys, "main.m", main={"m": 100, "accept_fraction": 0.02}
        )
        assert "accepts 2 draws" in err and "at least 7" in err

    def test_one_accepted_draw_without_adjustment(self, tmp_path, capsys):
        # a one-draw posterior would pass `infer` and crash the marginal stage
        err = self.assert_refused(
            tmp_path, capsys, "main.m",
            main={"m": 100, "accept_fraction": 0.01}, adjust={"regression": False},
        )
        assert "accepts 1 draws" in err and "at least 2" in err and len(err.splitlines()) == 1

    def test_too_few_main_draws_to_scale(self, tmp_path, capsys):
        # five draws, all accepted, make a posterior, but too few to scale
        # the projected distances of the main rejection
        err = self.assert_refused(
            tmp_path, capsys, "main.m",
            main={"m": 5, "accept_fraction": 1.0}, adjust={"regression": False},
        )
        assert "is 5, which accepts 5 draws" in err and len(err.splitlines()) == 1
        assert "needs 10 draws to scale its distances" in err

    @pytest.mark.parametrize(
        "pilot, phrase",
        [
            ({"m": 5, "accept_fraction": 0.5}, "is 5, which accepts 3 "),
            ({"m": 20, "accept_fraction": 0.05}, "is 20, which accepts 1 "),
        ],
        ids=["too_few_to_scale", "one_accepted"],
    )
    def test_too_few_pilot_draws(self, tmp_path, capsys, pilot, phrase):
        err = self.assert_refused(tmp_path, capsys, "pilot.m", pilot=pilot)
        assert phrase in err and len(err.splitlines()) == 1
        assert "needs 10 draws to scale its distances and 2 accepted ones" in err

    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.json")), ids=lambda p: p.name)
    def test_shipped_configs_have_enough_draws(self, path):
        config = parse_config(path)
        semiauto.check_draw_counts(config, semiauto.build_fixture(config).simulator.stat_dim)


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

    def test_seed_changes_no_observed_byte(self, tmp_path):
        # the observed data are the fixture's, not a draw: only the config
        # hash, which covers the seed, tells the two runs apart
        config = write_config(tmp_path)
        outs = [tmp_path / "one", tmp_path / "two"]
        for seed, out in zip(("1", "2"), outs):
            assert main(["simulate", "--config", str(config), "--seed", seed, "--out", str(out)]) == 0
        one, two = (tree_bytes(out) for out in outs)
        assert one["observed.csv"] == two["observed.csv"]
        one, two = (json.loads(t["observed.json"]) for t in (one, two))
        assert {k for k in one.keys() | two.keys() if one.get(k) != two.get(k)} == {"config_hash"}


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

    def test_experiment_refuses_too_few_construct_draws_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        data = json.loads((REPO / "configs" / "gpd_quantiles.json").read_text())
        data.update(
            basis={"kind": "polynomial", "degree": 3},
            construct={"m": 500},
            main={"m": 5000, "accept_fraction": 0.02},
            experiment={"strategies": ["joint", "separate"], "replications": 2},
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        calls = []
        monkeypatch.setattr(semiauto, "simulate_batch", lambda *a, **k: calls.append(a))
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: 'construct.m' is 500")
        assert "559 basis columns" in err and "Traceback" not in err
        assert calls == []

    def test_experiment_without_plan_is_one(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.filterwarnings("ignore:1 constant statistic column")
    def test_experiment_whose_every_cell_failed_is_two(self, tmp_path, capsys):
        # one observation per draw makes the sd statistic constant, so
        # every cell's construction regression is rank-deficient
        config = write_config(
            tmp_path,
            model={"name": "gaussian_location", "params": {"n_noise_stats": 2, "n": 1}},
            pilot={"m": 2000, "accept_fraction": 0.1},
            construct={"m": 2000},
            main={"m": 8000, "accept_fraction": 0.05},
            ridge_lambda=0.0,
            adjust={"regression": True},
            experiment={"strategies": ["joint", "separate"], "replications": 2},
            seed=3,
        )
        out = tmp_path / "o"
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: experiment: 0 rows, 4 failures")
        assert "rank deficient" in err and len(err.splitlines()) == 1
        report = json.loads((out / "experiment_report.json").read_text())
        assert report["rows"] == [] and len(report["failures"]) == 4
        assert (out / "config.json").exists()


# a two-target linear-Gaussian study over three replicates whose main
# batches span two simulation chunks
POOLED_STUDY = dict(
    model={"name": "linear_gaussian", "params": {
        "p": 2, "d": 2, "coeffs": [[1.0, 0.0], [1.0, 1.0]], "noise_sd": 1.0, "s_obs": [1.0, 2.0]}},
    pilot={"m": 800, "accept_fraction": 0.1},
    construct={"m": 1000},
    main={"m": 5000, "accept_fraction": 0.05},
    targets=[{"kind": "coordinate", "index": 0}, {"kind": "coordinate", "index": 1}],
    experiment={"strategies": ["joint", "separate"], "replications": 3},
)


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Every pool built through either module that may build one, with
        the number of tasks submitted to it and how many of those a task on
        the pool submitted, which could wait forever on a busy pool."""
        pools = []

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.submitted = self.nested = 0
                pools.append(self)

            def submit(self, *args, **kwargs):
                self.submitted += 1
                self.nested += threading.current_thread() is not threading.main_thread()
                return super().submit(*args, **kwargs)

        for module in (engine, experiment):
            monkeypatch.setattr(module, "ThreadPoolExecutor", Counting)
        return pools

    @pytest.mark.parametrize("threads, n_pools", [(2, 1), (1, 0)])
    def test_a_run_builds_one_pool_at_most(self, tmp_path, pools, threads, n_pools):
        config = write_config(tmp_path, **POOLED_STUDY)
        args = ["experiment", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(args + ["--threads", str(threads)]) == 0
        assert len(pools) == n_pools
        assert all(pool.submitted > 0 and pool.nested == 0 for pool in pools)

    @pytest.mark.filterwarnings("ignore:1 constant statistic column")
    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_the_pool_is_joined_on_every_exit(self, tmp_path, monkeypatch, pools, code):
        study = POOLED_STUDY
        if code == 1:  # refused after every cell ran
            def refuse(*args, **kwargs):
                raise ArtifactError("refused")

            monkeypatch.setattr(artifacts, "save_experiment_report", refuse)
        if code == 2:  # a constant statistic: every construct fit is rank deficient
            study = dict(
                model={"name": "gaussian_location", "params": {"n_noise_stats": 2, "n": 1}},
                pilot={"m": 2000, "accept_fraction": 0.1},
                construct={"m": 2000},
                main={"m": 8000, "accept_fraction": 0.05},
                experiment={"strategies": ["joint", "separate"], "replications": 2},
                seed=3,
            )
        config = write_config(tmp_path, **study)
        before = threading.active_count()
        args = ["experiment", "--config", str(config), "--out", str(tmp_path / "o")]
        assert main(args + ["--threads", "2"]) == code
        assert len(pools) == 1 and pools[0].submitted > 0
        assert threading.active_count() == before

    def test_blas_threads_never_change_an_artifact(self, tmp_path):
        # a degree-3 GPD basis (559 columns), whose fit and projection round
        # by the BLAS thread count unless `worker_pool` holds it at one
        config = json.loads((REPO / "configs" / "gpd_quantiles.json").read_text())
        config.update(
            pilot={"m": 1000, "accept_fraction": 0.05}, construct={"m": 1000},
            main={"m": 5000, "accept_fraction": 0.02},
            basis={"kind": "polynomial", "degree": 3}, seed=1,
        )
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(config))
        src = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        trees = []
        for blas_threads in ("1", "2"):
            out = tmp_path / f"blas{blas_threads}"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas_threads}
            result = subprocess.run(
                [sys.executable, "-m", "semiabc.cli", "infer", "--full",
                 "--config", str(path), "--out", str(out)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert result.returncode == 0, result.stderr
            trees.append(tree_bytes(out))
        assert "projector.json" in trees[0]
        assert trees[0] == trees[1]


def test_cli_path_leaves_scipy_unloaded():
    # semiabc depends on numpy alone: importing it, building each committed
    # config's fixture and drawing from its truncated prior loads no scipy.
    code = textwrap.dedent("""
        import sys
        from pathlib import Path

        import semiabc
        import semiabc.cli
        from semiabc.engine import TruncationRegion, simulate_batch
        from semiabc.runconfig import parse_config
        from semiabc.semiauto import build_fixture

        configs = sorted(Path(sys.argv[1]).glob("*.json"))
        for path in configs:
            fixture = build_fixture(parse_config(path))
            margs = fixture.prior.marginals
            box = TruncationRegion(
                lo=[float(g.ppf(0.2)) for g in margs], hi=[float(g.ppf(0.8)) for g in margs]
            )
            simulate_batch(fixture.prior.truncated(box), fixture.simulator, 100, seed=1)
        print(len(configs), sorted(m for m in sys.modules if m.startswith("scipy")))
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
