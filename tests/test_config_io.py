import hashlib
import importlib.util
import json
import re
import sys
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semiabc import artifacts
from semiabc.engine import (
    SimulationBatch,
    TruncationRegion,
    WeightedPosterior,
)
from semiabc.errors import ArtifactError, ConfigError
from semiabc.experiment import ExperimentReport, ExperimentRow
from semiabc.regression import BasisSpec
from semiabc.runconfig import (
    _LAYOUT,
    ExperimentConfig,
    RunConfig,
    TargetSpec,
    parse_config,
    parse_config_dict,
    serialize_config,
)
from semiabc.semiauto import SummaryProjector

MINIMAL = {
    "model": {"name": "gaussian_location"},
    "targets": [{"kind": "coordinate", "index": 0}],
    "seed": 1,
}


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        config = parse_config_dict(dict(MINIMAL))
        assert config.pilot_m == 10_000
        assert config.pilot_accept_fraction == 0.05
        assert config.main_m == 100_000
        assert config.main_accept_fraction == 0.01
        assert config.effective_construct_m == 10_000
        assert config.basis == BasisSpec()
        assert not config.regression_adjust

    def test_unknown_key_named(self):
        bad = dict(MINIMAL)
        bad["pliot"] = {}
        with pytest.raises(ConfigError, match="'pliot'"):
            parse_config_dict(bad)

    def test_nested_unknown_key_path(self):
        bad = dict(MINIMAL)
        bad["main"] = {"m": 100, "fraction": 0.1}
        with pytest.raises(ConfigError, match="'main.fraction'"):
            parse_config_dict(bad)

    def test_out_of_range_fraction_names_path(self):
        bad = dict(MINIMAL)
        bad["main"] = {"accept_fraction": 1.5}
        with pytest.raises(ConfigError, match="'main.accept_fraction'"):
            parse_config_dict(bad)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config_dict({"model": {"name": "x"}, "targets": [{"kind": "coordinate", "index": 0}]})
        with pytest.raises(ConfigError, match="'model'"):
            parse_config_dict({"seed": 1, "targets": []})

    def test_seed_must_be_nonnegative_int(self):
        bad = dict(MINIMAL)
        bad["seed"] = -1
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config_dict(bad)
        bad["seed"] = 1.5
        with pytest.raises(ConfigError, match="'seed'"):
            parse_config_dict(bad)

    def test_experiment_groups_validated(self):
        # the key was removed: any `groups`, a partition or not, is refused
        for groups in ([[0], [0]], [[0]]):
            bad = {**MINIMAL, "experiment": {"groups": groups, "replications": 2}}
            with pytest.raises(ConfigError, match="'experiment.groups' is not a known key"):
                parse_config_dict(bad)

    def test_roundtrip_identical_hash(self, tmp_path):
        config = parse_config_dict(dict(MINIMAL))
        path = tmp_path / "config.json"
        path.write_text(serialize_config(config))
        again = parse_config(path)
        assert again.config_hash() == config.config_hash()
        assert serialize_config(again) == serialize_config(config)

    def test_hash_ignores_output_dir_but_not_seed(self):
        a = parse_config_dict(dict(MINIMAL))
        b = parse_config_dict({**MINIMAL, "output_dir": "somewhere"})
        assert a.config_hash() == b.config_hash()
        c = parse_config_dict({**MINIMAL, "seed": 2})
        assert a.config_hash() != c.config_hash()

    def test_file_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(bad)

    def test_basis_and_targets_parsed(self):
        config = parse_config_dict(
            {
                **MINIMAL,
                "basis": {"kind": "polynomial", "degree": 2},
                "targets": [
                    {"kind": "coordinate", "index": 0},
                    {"kind": "gpd_quantile", "tau": 0.99},
                ],
            }
        )
        assert config.basis.degree == 2
        assert config.targets[0].name == "theta_0"
        assert config.targets[1].name == "gpd_q0.99"


# One malformed value per case, with the dotted path its error must name.
# None of them may be coerced (bool("false") is True) or escape as a
# traceback.
COORD = {"kind": "coordinate", "index": 0}
MALFORMED = {
    "include_intercept": ("basis", {"include_intercept": True}, "basis.include_intercept"),
    "custom_basis_kind": ("basis", {"kind": "custom"}, "basis.kind"),
    "fractional_degree": ("basis", {"kind": "polynomial", "degree": 2.5}, "basis.degree"),
    "string_degree": ("basis", {"kind": "polynomial", "degree": "3"}, "basis.degree"),
    "identity_degree": ("basis", {"kind": "identity", "degree": 3}, "basis.degree"),
    # `exponents` and kind "powers" were removed: the key fails as unknown
    "fractional_exponent": (
        "basis", {"kind": "powers", "exponents": [[1, 0.5]]}, "basis.exponents"
    ),
    "exponent_row_not_list": ("basis", {"kind": "powers", "exponents": [1]}, "basis.exponents"),
    "powers_basis_kind": ("basis", {"kind": "powers"}, "basis.kind"),
    "prior_overrides": (
        "prior_overrides", {"0": {"kind": "normal", "a": 0.0, "b": 3.0}}, "prior_overrides"
    ),
    # `pilot.statistics` and `adjust.marginal` were removed: each key fails
    # as unknown, whatever its value
    "misspelt_pilot_statistics": ("pilot", {"statistics": "projectd"}, "pilot.statistics"),
    "string_marginal_adjust": ("adjust", {"marginal": "false"}, "adjust.marginal"),
    "raw_pilot_statistics": ("pilot", {"statistics": "raw"}, "pilot.statistics"),
    "marginal_adjust_off": ("adjust", {"regression": True, "marginal": False}, "adjust.marginal"),
    # `experiment.groups`, `experiment.seeds`, `pilot.expand`,
    # `targets[].name` and `targets[].transform` were removed: each key
    # fails as unknown, whatever its value
    "string_group_entry": ("experiment", {"groups": [[0, "1"]]}, "experiment.groups"),
    "group_not_list": ("experiment", {"groups": [0]}, "experiment.groups"),
    "singleton_groups": ("experiment", {"groups": [[0]]}, "experiment.groups"),
    "fractional_seed": ("experiment", {"replications": 1, "seeds": [1.5]}, "experiment.seeds"),
    "seeds_not_list": ("experiment", {"replications": 1, "seeds": 3}, "experiment.seeds"),
    "valid_seeds": ("experiment", {"replications": 1, "seeds": [5]}, "experiment.seeds"),
    "negative_pilot_expand": ("pilot", {"expand": -0.5}, "pilot.expand"),
    "zero_pilot_expand": ("pilot", {"m": 2000, "expand": 0.0}, "pilot.expand"),
    "numeric_target_name": ("targets", [{**COORD, "name": 5}], "targets[0].name"),
    "default_target_name": ("targets", [{**COORD, "name": "theta_0"}], "targets[0].name"),
    "unknown_transform": ("targets", [{**COORD, "transform": "sqrt"}], "targets[0].transform"),
    "raw_transform": ("targets", [{**COORD, "transform": "raw"}], "targets[0].transform"),
    "unknown_strategy": ("experiment", {"strategies": ["both"]}, "experiment.strategies"),
    # a repeated strategy would write each of its rows twice
    "repeated_strategy": (
        "experiment", {"strategies": ["joint", "joint"]}, "experiment.strategies"
    ),
    "tau_on_coordinate": ("targets", [{**COORD, "tau": 0.5}], "targets[0].tau"),
    "tau_of_one": ("targets", [{"kind": "gpd_quantile", "tau": 1}], "targets[0].tau"),
    "gpd_quantile_on_one_parameter": (
        "targets", [{"kind": "gpd_quantile", "tau": 0.5}], "targets[0]"
    ),
    "coordinate_out_of_range": ("targets", [{**COORD, "index": 1}], "targets[0].index"),
    "duplicate_name": ("targets", [COORD, COORD], "targets[1].name"),
    "bad_model_param": ("model", {"name": "gaussian_location", "params": {"n": 0}}, "model"),
}

# One bad value per flat RunConfig field: (field, value, dotted path). Each
# is also a MALFORMED case, written at its path in the JSON document.
FLAT_MALFORMED = {
    "fractional_pilot_m": ("pilot_m", 2000.5, "pilot.m"),
    "string_pilot_fraction": ("pilot_accept_fraction", "0.05", "pilot.accept_fraction"),
    "zero_construct_m": ("construct_m", 0, "construct.m"),
    "boolean_main_m": ("main_m", True, "main.m"),
    "zero_main_fraction": ("main_accept_fraction", 0, "main.accept_fraction"),
    "string_ridge_lambda": ("ridge_lambda", "0", "ridge_lambda"),
    "string_regression_adjust": ("regression_adjust", "no", "adjust.regression"),
    "negative_seed": ("seed", -1, "seed"),
    "numeric_output_dir": ("output_dir", 5, "output_dir"),
}


def json_at(path: str, value) -> tuple:
    """The top-level key and its JSON value that put `value` at `path`."""
    section, _, key = path.partition(".")
    return section, {key: value} if key else value


MALFORMED.update(
    {case: (*json_at(path, value), path) for case, (_, value, path) in FLAT_MALFORMED.items()}
)


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_value_is_an_error_naming_its_path(tmp_path, capsys, case):
    from semiabc.cli import main

    key, value, path = MALFORMED[case]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**MINIMAL, key: value}))
    code = main(["infer", "--full", "--config", str(config), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: '{path}' ")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("case", sorted(FLAT_MALFORMED))
def test_library_config_refuses_what_the_parser_refuses(case):
    # built in code or derived with replace, a config obeys the parser's rules
    name, value, path = FLAT_MALFORMED[case]
    config = RunConfig(model="gaussian_location", targets=(TargetSpec("coordinate", index=0),))
    with pytest.raises(ConfigError) as direct:
        RunConfig(model="gaussian_location", targets=config.targets, **{name: value})
    with pytest.raises(ConfigError) as replaced:
        replace(config, **{name: value})
    assert direct.value.key == replaced.value.key == path


def test_library_config_normalises_like_the_parser():
    config = RunConfig(
        model="gaussian_location",
        targets=[TargetSpec("coordinate", index=0)],
        basis=BasisSpec("polynomial", 2),
        ridge_lambda=1,
        seed=1,
    )
    parsed = parse_config_dict({
        **MINIMAL,
        "ridge_lambda": 1.0,
        "basis": {"kind": "polynomial", "degree": 2},
    })
    assert config == parsed and config.config_hash() == parsed.config_hash()
    assert config.targets == parsed.targets and isinstance(config.targets, tuple)
    assert type(config.ridge_lambda) is float
    with pytest.raises(ConfigError) as exc:
        config.with_seed(-1)
    assert exc.value.key == "seed"
    with pytest.raises(ConfigError) as exc:
        replace(config, targets=())
    assert exc.value.key == "targets"


# Every section set, with integer values where floats are stored; the
# literals are the config hash and the SHA-256 of serialize_config.
EVERY_SECTION = {
    "model": {"name": "gpd", "params": {"sigma_true": 1.0, "xi_true": 0.2, "n_exceedances": 100}},
    "pilot": {"m": 3000, "accept_fraction": 1},
    "construct": {"m": 4000},
    "main": {"m": 5000, "accept_fraction": 0.05},
    "basis": {"kind": "polynomial", "degree": 2},
    "ridge_lambda": 1,
    "targets": [
        {"kind": "gpd_quantile", "tau": 0.9},
        {"kind": "coordinate", "index": 1},
    ],
    "adjust": {"regression": True},
    "experiment": {"strategies": ["separate"], "replications": 2},
    "seed": 11,
    "output_dir": "runs/every",
}
PINNED = {
    "gaussian_location.json": (
        "e5ea8a1bb807848f", "035a3ed4cbb997ce3e63dc87f7e604ffddca49d948ac077fc7939fa94c8d5324"
    ),
    "gpd_quantiles.json": (
        "e171504612bcd7de", "11f215c4bf5bc6ce6ebf29473a528de79cf2fcb12e171f7510fe1d26d245a851"
    ),
    "every_section": (
        "2f6df5388235d821", "191bbdf7c813255c5265010a6ac18c83ad09a87c4575ff05cb8c677fd771c070"
    ),
}
REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", sorted(PINNED))
def test_config_hash_and_serialization_are_pinned(name):
    if name == "every_section":
        config = parse_config_dict(EVERY_SECTION)
    else:
        config = parse_config(REPO / "configs" / name)
    text = serialize_config(config)
    assert (config.config_hash(), hashlib.sha256(text.encode()).hexdigest()) == PINNED[name]
    assert parse_config_dict(json.loads(text)) == config


def test_readme_configuration_block_parses_and_names_every_path():
    readme = (REPO / "README.md").read_text()
    block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    document = json.loads(re.sub(r"//.*", "", block))
    parse_config_dict(document)
    for path, _, _ in _LAYOUT.values():
        section, _, key = path.partition(".")
        assert section in document and (not key or key in document[section]), path


# The RunConfig fields that hold a typed object, with the path prefix of
# that object's keys in the JSON document.
TYPED = {"targets": ("targets[]", TargetSpec), "basis": ("basis", BasisSpec),
         "experiment": ("experiment", ExperimentConfig)}


def parser_key_paths() -> set[str]:
    """Every key path the parser reads, a list's elements written `[]`."""
    paths = set()
    for name, (path, _, _) in _LAYOUT.items():
        if name in TYPED:
            prefix, cls = TYPED[name]
            paths.update(f"{prefix}.{f.name}" for f in fields(cls))
        else:
            paths.add(path)
    return paths


def document_key_paths(value, prefix: str = "") -> set[str]:
    """Every key path set in a JSON value, a list's elements written `[]`."""
    if isinstance(value, list):
        return set().union(*(document_key_paths(v, f"{prefix}[]") for v in value))
    if not isinstance(value, dict):
        return set()
    paths = set()
    for key, v in value.items():
        path = f"{prefix}.{key}" if prefix else key
        paths |= {path} | document_key_paths(v, path)
    return paths


def load_workloads():
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_parser_key_is_set_by_a_shipped_config_or_workload():
    # a key that no shipped config or benchmark workload sets is a knob
    # that nothing runs; each one is a path through the code to delete
    documents = [json.loads(p.read_text()) for p in sorted((REPO / "configs").glob("*.json"))]
    for workload in load_workloads().WORKLOADS.values():
        documents += [workload.overrides, workload.small_overrides]
    set_paths = set().union(*map(document_key_paths, documents))
    assert sorted(parser_key_paths() - set_paths) == []


def sample_batch():
    rng = np.random.default_rng(0)
    return SimulationBatch(
        thetas=rng.standard_normal((20, 2)),
        stats=rng.standard_normal((20, 3)) * 1e-7,
        seed=5,
        model_name="test",
        prior_hash="abc",
    )


def sample_posterior():
    rng = np.random.default_rng(1)
    n = 10
    return WeightedPosterior(
        thetas=rng.standard_normal((n, 2)),
        epsilon=0.25,
        accepted_indices=np.arange(0, 2 * n, 2),
        provenance={"stage": "infer", "seed": 5},
    )


class TestArtifacts:
    def test_batch_roundtrip_bitwise(self, tmp_path):
        batch = sample_batch()
        artifacts.save_batch(tmp_path, "batch_pilot", batch, "hash1")
        loaded = artifacts.load_batch(tmp_path, "batch_pilot", "hash1")
        np.testing.assert_array_equal(loaded.thetas, batch.thetas)
        np.testing.assert_array_equal(loaded.stats, batch.stats)
        assert (loaded.seed, loaded.model_name, loaded.prior_hash) == (5, "test", "abc")

    def test_resave_byte_identical(self, tmp_path):
        batch = sample_batch()
        artifacts.save_batch(tmp_path, "b", batch, "hash1")
        csv1 = (tmp_path / "b.csv").read_bytes()
        json1 = (tmp_path / "b.json").read_bytes()
        loaded = artifacts.load_batch(tmp_path, "b", "hash1")
        artifacts.save_batch(tmp_path, "b", loaded, "hash1")
        assert (tmp_path / "b.csv").read_bytes() == csv1
        assert (tmp_path / "b.json").read_bytes() == json1

    def test_posterior_roundtrip(self, tmp_path):
        post = sample_posterior()
        artifacts.save_posterior(tmp_path, "posterior_main", post, "h")
        loaded = artifacts.load_posterior(tmp_path, "posterior_main", "h")
        np.testing.assert_array_equal(loaded.thetas, post.thetas)
        np.testing.assert_array_equal(loaded.weights, post.weights)
        np.testing.assert_array_equal(loaded.accepted_indices, post.accepted_indices)
        assert loaded.epsilon == post.epsilon
        # byte-identical resave
        csv1 = (tmp_path / "posterior_main.csv").read_bytes()
        artifacts.save_posterior(tmp_path, "posterior_main", loaded, "h")
        assert (tmp_path / "posterior_main.csv").read_bytes() == csv1

    def test_missing_artifact_names_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="batch_pilot.json"):
            artifacts.load_batch(tmp_path, "batch_pilot")

    def test_hash_mismatch_refused(self, tmp_path):
        artifacts.save_batch(tmp_path, "b", sample_batch(), "hash1")
        with pytest.raises(ArtifactError, match="refusing to mix runs"):
            artifacts.load_batch(tmp_path, "b", "other")

    def test_region_and_projector_roundtrip(self, tmp_path):
        region = TruncationRegion(lo=[0.1], hi=[0.9])
        artifacts.save_region(tmp_path, region, "h")
        loaded = artifacts.load_region(tmp_path, "h")
        np.testing.assert_array_equal(loaded.lo, region.lo)

        projector = SummaryProjector(
            basis=BasisSpec("polynomial", degree=3),
            intercept=np.array([0.5]),
            coef=np.array([[1.0, -0.25, 1e-17]]),
            target_names=("t",),
            condition_number=3.5,
            vifs=np.array([1.0, 2.0, 1e18]),
            residual_mss=np.array([0.125]),
        )
        artifacts.save_projector(tmp_path, projector, "h")
        clone = artifacts.load_projector(tmp_path, "h", stat_dim=1)
        np.testing.assert_array_equal(clone.coef, projector.coef)
        assert clone.projector_id() == projector.projector_id()
        # byte-identical resave
        blob = (tmp_path / "projector.json").read_bytes()
        artifacts.save_projector(tmp_path, clone, "h")
        assert (tmp_path / "projector.json").read_bytes() == blob

    def test_wrong_kind_rejected(self, tmp_path):
        artifacts.save_region(tmp_path, TruncationRegion(lo=[0.0], hi=[1.0]), "h")
        (tmp_path / "projector.json").write_text((tmp_path / "region.json").read_text())
        with pytest.raises(ArtifactError, match="kind"):
            artifacts.load_projector(tmp_path, "h", stat_dim=1)


# Values whose shortest decimal is easy to get wrong: signed zeros, the
# smallest subnormal, the float below 1e16 (which repr prints in full) and
# the points where repr switches to and from exponent notation.
FINITE_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e16, 9999999999999998.0, 1e-5, 1e-4, 0.1]
FINITE_CELLS = st.one_of(
    st.sampled_from(FINITE_SPECIALS), st.floats(allow_nan=False, allow_infinity=False)
)
ANY_CELLS = st.one_of(FINITE_CELLS, st.sampled_from([np.nan, np.inf, -np.inf]))


def per_cell_csv(header, values, index=None) -> bytes:
    """The bytes the table writer is pinned to: one cell at a time, str of
    each index when there is one, then repr of the float of each value."""
    lines = [",".join(header)]
    for k, row in enumerate(values):
        cells = [repr(float(v)) for v in row]
        lines.append(",".join(cells if index is None else [str(int(index[k]))] + cells))
    return ("\n".join(lines) + "\n").encode()


def bits_equal(a, b) -> bool:
    return np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def batch_header(p, d):
    return [f"theta_{i + 1}" for i in range(p)] + [f"stat_{j + 1}" for j in range(d)]


class TestTableBytes:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_tables_match_per_cell_writer_and_reload_bitwise(self, data):
        m = data.draw(st.integers(1, 40), label="m")
        p, d = data.draw(st.integers(1, 3), label="p"), data.draw(st.integers(1, 4), label="d")
        thetas = data.draw(arrays(np.float64, (m, p), elements=FINITE_CELLS), label="thetas")
        stats = data.draw(arrays(np.float64, (m, d), elements=FINITE_CELLS), label="stats")
        cells = data.draw(arrays(np.float64, (m, 3), elements=ANY_CELLS), label="cells")
        batch = SimulationBatch(thetas=thetas, stats=stats, seed=3, model_name="t", prior_hash="h")
        post = WeightedPosterior(
            thetas=thetas, epsilon=0.5, accepted_indices=3 * np.arange(m),
        )
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            artifacts.save_batch(out, "b", batch, "h")
            artifacts.save_posterior(out, "p", post, "h")
            assert (out / "b.csv").read_bytes() == per_cell_csv(
                batch_header(p, d), np.hstack([thetas, stats])
            )
            post_header = ["draw_index"] + [f"theta_{i + 1}" for i in range(p)]
            assert (out / "p.csv").read_bytes() == per_cell_csv(post_header, thetas, 3 * np.arange(m))
            loaded = artifacts.load_batch(out, "b", "h")
            assert bits_equal(loaded.thetas, thetas) and bits_equal(loaded.stats, stats)
            reloaded = artifacts.load_posterior(out, "p", "h")
            assert bits_equal(reloaded.thetas, thetas)
            np.testing.assert_array_equal(reloaded.accepted_indices, post.accepted_indices)
            # the writer formats nan and the infinities as repr does; the
            # reader refuses them, as batches and posteriors must be finite
            header = ["a", "b", "c"]
            artifacts._write_table(out / "t.csv", header, cells)
            assert (out / "t.csv").read_bytes() == per_cell_csv(header, cells)
            if np.isfinite(cells).all():
                assert bits_equal(artifacts._read_table(out / "t.csv", header, m), cells)
            else:
                with pytest.raises(ArtifactError, match="non-finite"):
                    artifacts._read_table(out / "t.csv", header, m)

    @pytest.mark.parametrize("m", [1, 4095, 4096, 4097, 8193])
    def test_block_edges(self, tmp_path, m):
        rng = np.random.default_rng(m)
        batch = SimulationBatch(
            thetas=rng.standard_normal((m, 2)), stats=rng.standard_normal((m, 3)) * 1e-7,
            seed=1, model_name="t", prior_hash="h",
        )
        artifacts.save_batch(tmp_path, "b", batch, "h")
        assert (tmp_path / "b.csv").read_bytes() == per_cell_csv(
            batch_header(2, 3), np.hstack([batch.thetas, batch.stats])
        )
        loaded = artifacts.load_batch(tmp_path, "b", "h")
        assert bits_equal(loaded.thetas, batch.thetas) and bits_equal(loaded.stats, batch.stats)

    def test_batch_save_and_load_stay_near_the_array_size(self, tmp_path):
        # the 20 000 x 21 batch is 3.4 MB of float64; a writer that builds
        # the whole file as text, or a parser that holds every cell as a
        # Python string and float, peaks at several times that
        rng = np.random.default_rng(3)
        batch = SimulationBatch(
            thetas=rng.standard_normal((20_000, 1)), stats=rng.standard_normal((20_000, 20)),
            seed=1, model_name="t", prior_hash="h",
        )
        tracemalloc.start()
        try:
            artifacts.save_batch(tmp_path, "b", batch, "h")
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            artifacts.load_batch(tmp_path, "b", "h")
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 12 * 2**20
        assert load_peak < 8 * 2**20


def test_experiment_rows_table_shares_the_json_rows_schema(tmp_path):
    # the flat table names each fact as the JSON rows do; a float cell
    # reads back to its row's value bit for bit, and None is an empty cell
    rows = [
        ExperimentRow("joint", 0, 11, "theta_0+theta_1", "theta_0", 2, 0.1,
                      abs(0.1 - 1 / 3), 40, 0.25, 1e16, 2.5e-7),
        ExperimentRow("separate", 1, 12, "theta_1", "theta_1", 1, -0.0,
                      1e-5, 7, 9999999999999998.0, 0.1 + 0.2, None),
    ]
    # each target's oracle value is written once, beside the rows
    oracle_values = {"theta_0": 1 / 3, "theta_1": 5e-324}
    report = ExperimentReport(rows=rows, oracle_values=oracle_values)
    artifacts.save_experiment_report(tmp_path, report, "h")
    header, *lines = (tmp_path / "experiment_rows.csv").read_text().splitlines()
    names = [f.name for f in fields(ExperimentRow)]
    assert header.split(",") == names and "oracle_value" not in names
    saved = json.loads((tmp_path / "experiment_report.json").read_text())
    assert [sorted(r) for r in saved["rows"]] == [sorted(names)] * len(rows)
    read_back = saved["oracle_value_by_target"]
    assert {k: v.hex() for k, v in read_back.items()} == {
        k: v.hex() for k, v in oracle_values.items()}
    for line, row in zip(lines, rows, strict=True):
        for cell, name in zip(line.split(","), names, strict=True):
            value = getattr(row, name)
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert float(cell).hex() == value.hex(), name
            else:
                assert cell == str(value), name


def test_run_semiauto_writes_no_files(tmp_path):
    from semiabc.runconfig import RunConfig, TargetSpec
    from semiabc.semiauto import run_semiauto

    config = RunConfig(
        model="gaussian_location",
        pilot_m=500,
        pilot_accept_fraction=0.1,
        construct_m=500,
        main_m=1000,
        main_accept_fraction=0.1,
        targets=(TargetSpec("coordinate", index=0),),
        seed=2,
        output_dir=str(tmp_path / "run"),
    )
    result = run_semiauto(config)
    assert result.posterior.n == 100
    assert list(tmp_path.iterdir()) == []


def test_config_dataclass_helpers():
    config = RunConfig(
        model="gaussian_location",
        targets=(TargetSpec("coordinate", index=0),),
        seed=3,
    )
    assert config.with_seed(9).seed == 9
    assert config.with_seed(9).config_hash() != config.config_hash()
    assert TargetSpec("coordinate", index=0).name == "theta_0"
    assert TargetSpec("gpd_quantile", tau=0.95).name == "gpd_q0.95"
    assert json.dumps(config.to_json_dict())
