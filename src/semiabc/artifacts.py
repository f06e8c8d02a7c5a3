"""Artifact persistence: CSV tables with JSON provenance sidecars.

Numbers are written in their shortest round-trip decimal form, so loading
an artifact and re-saving it is byte-identical, and a pipeline stage that
reloads a persisted batch computes exactly what an in-memory run would.
Every artifact embeds the config hash and seed; loaders refuse artifacts
whose provenance does not match the requesting run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .engine import SimulationBatch, TruncationRegion, WeightedPosterior
from .errors import ArtifactError
from .semiauto import SummaryProjector


def fmt(value) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def dump_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n")


def load_json(path: Path, kind: str) -> dict:
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    data = json.loads(path.read_text())
    if data.get("kind") != kind:
        raise ArtifactError(f"{path} holds kind {data.get('kind')!r}, expected {kind!r}")
    return data


def check_provenance(data: dict, path: Path, config_hash: str | None) -> None:
    if config_hash is not None and data.get("config_hash") != config_hash:
        raise ArtifactError(
            f"{path} was produced under config hash {data.get('config_hash')}, "
            f"this run has {config_hash}; refusing to mix runs"
        )


def _write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    lines = path.read_text().splitlines()
    if not lines:
        raise ArtifactError(f"{path} is empty")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def save_batch(
    directory, name: str, batch: SimulationBatch, config_hash: str, stage: str
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    p, d = batch.param_dim, batch.stat_dim
    header = (
        ["draw_index"]
        + [f"theta_{i + 1}" for i in range(p)]
        + [f"stat_{j + 1}" for j in range(d)]
    )
    rows = (
        [str(m)] + [fmt(v) for v in batch.thetas[m]] + [fmt(v) for v in batch.stats[m]]
        for m in range(batch.m)
    )
    _write_csv(directory / f"{name}.csv", header, rows)
    sidecar = {
        "kind": "simulation_batch",
        "stage": stage,
        "seed": batch.seed,
        "model": batch.model_name,
        "prior_hash": batch.prior_hash,
        "config_hash": config_hash,
        "m": batch.m,
        "param_dim": p,
        "stat_dim": d,
        "region": batch.region.to_dict() if batch.region is not None else None,
    }
    dump_json(directory / f"{name}.json", sidecar)


def load_batch(directory, name: str, config_hash: str | None = None) -> SimulationBatch:
    directory = Path(directory)
    sidecar = load_json(directory / f"{name}.json", "simulation_batch")
    check_provenance(sidecar, directory / f"{name}.json", config_hash)
    header, rows = _read_csv(directory / f"{name}.csv")
    p, d = sidecar["param_dim"], sidecar["stat_dim"]
    if len(rows) != sidecar["m"]:
        raise ArtifactError(
            f"{name}.csv has {len(rows)} rows, sidecar says {sidecar['m']}"
        )
    if header != (
        ["draw_index"]
        + [f"theta_{i + 1}" for i in range(p)]
        + [f"stat_{j + 1}" for j in range(d)]
    ):
        raise ArtifactError(f"{name}.csv header does not match the batch schema")
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    region = sidecar.get("region")
    return SimulationBatch(
        thetas=data[:, :p],
        stats=data[:, p:],
        seed=sidecar["seed"],
        model_name=sidecar["model"],
        prior_hash=sidecar["prior_hash"],
        region=TruncationRegion.from_dict(region) if region else None,
    )


def save_posterior(
    directory, name: str, posterior: WeightedPosterior, config_hash: str, stage: str
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    p = posterior.thetas.shape[1]
    header = ["draw_index"] + [f"theta_{i + 1}" for i in range(p)] + ["weight"]
    rows = (
        [str(int(posterior.accepted_indices[i]))]
        + [fmt(v) for v in posterior.thetas[i]]
        + [fmt(posterior.weights[i])]
        for i in range(posterior.n)
    )
    _write_csv(directory / f"{name}.csv", header, rows)
    sidecar = {
        "kind": "posterior",
        "stage": stage,
        "config_hash": config_hash,
        "n": posterior.n,
        "param_dim": p,
        "epsilon": posterior.epsilon,
        "distances": [float(v) for v in posterior.distances],
        "provenance": posterior.provenance,
    }
    dump_json(directory / f"{name}.json", sidecar)


def load_posterior(directory, name: str, config_hash: str | None = None) -> WeightedPosterior:
    directory = Path(directory)
    sidecar = load_json(directory / f"{name}.json", "posterior")
    check_provenance(sidecar, directory / f"{name}.json", config_hash)
    header, rows = _read_csv(directory / f"{name}.csv")
    p = sidecar["param_dim"]
    if len(rows) != sidecar["n"]:
        raise ArtifactError(f"{name}.csv has {len(rows)} rows, sidecar says {sidecar['n']}")
    if header != ["draw_index"] + [f"theta_{i + 1}" for i in range(p)] + ["weight"]:
        raise ArtifactError(f"{name}.csv header does not match the posterior schema")
    idx = np.array([int(row[0]) for row in rows], dtype=np.intp)
    data = np.array([[float(v) for v in row[1:]] for row in rows])
    weights = data[:, -1]
    if abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ArtifactError(f"{name}.csv weights sum to {weights.sum()!r}, expected 1")
    return WeightedPosterior(
        thetas=data[:, :p],
        weights=weights,
        epsilon=float(sidecar["epsilon"]),
        distances=np.asarray(sidecar["distances"], dtype=np.float64),
        accepted_indices=idx,
        provenance=sidecar.get("provenance", {}),
    )


def save_region(directory, region: TruncationRegion, config_hash: str, seed: int = 0) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dump_json(
        directory / "region.json",
        {
            "kind": "truncation_region",
            "config_hash": config_hash,
            "seed": int(seed),
            **region.to_dict(),
        },
    )


def load_region(directory, config_hash: str | None = None) -> TruncationRegion:
    path = Path(directory) / "region.json"
    data = load_json(path, "truncation_region")
    check_provenance(data, path, config_hash)
    return TruncationRegion.from_dict(data)


def save_projector(
    directory, projector: SummaryProjector, config_hash: str, seed: int = 0
) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": "summary_projector",
        "config_hash": config_hash,
        "seed": int(seed),
        "projector_id": projector.projector_id(),
        **projector.to_dict(),
    }
    dump_json(directory / "projector.json", payload)


def load_projector(directory, config_hash: str | None = None) -> SummaryProjector:
    path = Path(directory) / "projector.json"
    data = load_json(path, "summary_projector")
    check_provenance(data, path, config_hash)
    return SummaryProjector.from_dict(data)


def save_marginal(directory, name: str, marginal, config_hash: str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ([str(i), fmt(v)] for i, v in enumerate(marginal.samples))
    _write_csv(directory / f"{name}.csv", ["draw_index", "value"], rows)
    dump_json(
        directory / f"{name}.json",
        {
            "kind": "marginal_estimate",
            "config_hash": config_hash,
            "coordinate": marginal.coordinate,
            "n": marginal.n,
            "provenance": marginal.provenance,
        },
    )


def save_experiment_report(directory, report, config_hash: str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dump_json(
        directory / "experiment_report.json",
        {"kind": "experiment_report", "config_hash": config_hash, **report.to_dict()},
    )
    header = [
        "strategy", "replicate", "seed", "group", "target", "p_prime",
        "estimate", "oracle", "abs_error", "summary_dim", "n_accepted",
        "epsilon", "construction_condition", "adjustment_condition",
    ]
    rows = (
        [
            r.strategy, str(r.replicate), str(r.seed), r.group_label, r.target,
            str(r.p_prime), fmt(r.estimate), fmt(r.oracle_value), fmt(r.abs_error),
            str(r.summary_dim), str(r.n_accepted), fmt(r.epsilon),
            fmt(r.construction_condition),
            fmt(r.adjustment_condition) if r.adjustment_condition is not None else "",
        ]
        for r in report.rows
    )
    _write_csv(directory / "experiment_rows.csv", header, rows)


def save_observed(directory, fixture, config_hash: str, seed: int) -> None:
    """Persist the observed dataset and statistics for reuse."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = ([str(i), fmt(v)] for i, v in enumerate(np.asarray(fixture.observed_data).ravel()))
    _write_csv(directory / "observed.csv", ["index", "value"], rows)
    dump_json(
        directory / "observed.json",
        {
            "kind": "observed_data",
            "config_hash": config_hash,
            "seed": int(seed),
            "model": fixture.name,
            "s_obs": [float(v) for v in fixture.s_obs],
        },
    )


def persist_pipeline_result(directory, config, result, fixture) -> None:
    """Write every stage artifact of a pipeline run, with the same names
    and stage labels the stage-by-stage CLI commands use."""
    h = config.config_hash()
    save_observed(directory, fixture, h, config.seed)
    save_batch(directory, "batch_pilot", result.pilot_batch, h, "simulate")
    save_posterior(directory, "posterior_pilot", result.pilot_posterior, h, "pilot")
    save_region(directory, result.region, h, config.seed)
    save_batch(directory, "batch_construct", result.construct_batch, h, "construct")
    save_projector(directory, result.projector, h, config.seed)
    save_batch(directory, "batch_main", result.main_batch, h, "infer")
    stage = "infer+regression_adjust" if config.regression_adjust else "infer"
    save_posterior(directory, "posterior_main", result.posterior, h, stage)


def save_report_table(directory, rows: list[dict]) -> None:
    """Machine-readable companion of the human-readable report table."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = ["target", "estimate", "oracle", "abs_error", "mc_sd"]
    csv_rows = (
        [
            r["target"], fmt(r["estimate"]),
            fmt(r["oracle"]) if r["oracle"] is not None else "",
            fmt(r["abs_error"]) if r["abs_error"] is not None else "",
            fmt(r["mc_sd"]),
        ]
        for r in rows
    )
    _write_csv(directory / "report_table.csv", header, csv_rows)
