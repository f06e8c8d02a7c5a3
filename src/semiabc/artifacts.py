"""Artifact persistence: CSV tables with JSON provenance sidecars.

Numbers are written in their shortest round-trip decimal form, so loading
an artifact and re-saving it is byte-identical, and a pipeline stage that
reloads a persisted batch computes exactly what an in-memory run would.
Numeric tables are streamed out in blocks of rows and parsed back by
numpy's C reader, which rounds exactly as `float()` does. Every artifact
embeds the config hash; loaders refuse artifacts whose provenance does
not match the requesting run, or a malformed table, and ignore keys
they do not read. Each fact is stored once: the truncation region only
in `region.json`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .engine import SimulationBatch, TruncationRegion, WeightedPosterior
from .errors import ArtifactError
from .semiauto import SummaryProjector


def fmt(value) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def dump_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


class _Sidecar(dict):
    """A JSON object of the sidecar `path`; a key it lacks is an ArtifactError."""

    def __init__(self, path: Path, items):
        super().__init__(items)
        self.path = path

    def __missing__(self, key):
        raise ArtifactError(f"{self.path} has no {key!r} entry")


def load_json(path: Path, kind: str, config_hash: str | None) -> dict:
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    try:
        data = json.loads(path.read_text(), object_hook=lambda items: _Sidecar(path, items))
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ArtifactError(f"{path} holds {type(data).__name__}, not a JSON object")
    if data.get("kind") != kind:
        raise ArtifactError(f"{path} holds kind {data.get('kind')!r}, expected {kind!r}")
    if config_hash is not None and data.get("config_hash") != config_hash:
        raise ArtifactError(
            f"{path} was produced under config hash {data.get('config_hash')}, "
            f"this run has {config_hash}; refusing to mix runs"
        )
    return data


@contextmanager
def _sidecar_values(path: Path):
    """The block builds an object from the sidecar `path`: a TypeError or
    ValueError raised by a value of the wrong type or shape becomes an
    ArtifactError naming the file."""
    try:
        yield
    except ArtifactError:
        raise
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{path} is malformed: {exc}") from None


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


_BLOCK_ROWS = 4096


def _write_table(path: Path, header: list[str], index, *columns) -> None:
    """Write an integer index column, then the float columns of the 2-d
    arrays `columns`, one block of rows at a time (repr is exactly `fmt`)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(index), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = np.hstack([c[block] for c in columns], dtype=np.float64).tolist()
            f.writelines(
                f"{i},{','.join(map(repr, row))}\n" for i, row in zip(index[block].tolist(), rows)
            )


def _read_table(path: Path, header: list[str], n: int) -> np.ndarray:
    """Parse a `_write_table` file into an (n, len(header)) float64 array."""
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    try:
        with open(path) as f:
            found = f.readline().rstrip("\n").split(",")
            body = f.tell()
            if f.readline().strip():
                f.seek(body)
                data = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
            else:  # no rows: loadtxt would warn and count one column
                data = np.empty((0, len(found)))
    except ValueError as exc:
        raise ArtifactError(f"{path} is malformed: {exc}") from None
    if found != header:
        raise ArtifactError(f"{path} header is not {','.join(header)}")
    if data.shape != (n, len(header)):
        raise ArtifactError(
            f"{path} has {data.shape[0]} rows of {data.shape[1]} columns, "
            f"expected {n} rows (sidecar) of {len(header)}"
        )
    if not np.isfinite(data).all():
        raise ArtifactError(f"{path} holds a non-finite value")
    return data


def _batch_header(p: int, d: int) -> list[str]:
    return ["draw_index", *(f"theta_{i + 1}" for i in range(p)), *(f"stat_{j + 1}" for j in range(d))]


def save_batch(directory, name: str, batch: SimulationBatch, config_hash: str) -> None:
    directory = Path(directory)
    p, d = batch.param_dim, batch.stat_dim
    _write_table(
        directory / f"{name}.csv", _batch_header(p, d), np.arange(batch.m), batch.thetas, batch.stats
    )
    sidecar = {
        "kind": "simulation_batch",
        "seed": batch.seed,
        "model": batch.model_name,
        "prior_hash": batch.prior_hash,
        "config_hash": config_hash,
        "m": batch.m,
        "param_dim": p,
        "stat_dim": d,
    }
    dump_json(directory / f"{name}.json", sidecar)


def load_batch(directory, name: str, config_hash: str | None = None) -> SimulationBatch:
    directory = Path(directory)
    path = directory / f"{name}.json"
    sidecar = load_json(path, "simulation_batch", config_hash)
    with _sidecar_values(path):
        p, d = sidecar["param_dim"], sidecar["stat_dim"]
        data = _read_table(directory / f"{name}.csv", _batch_header(p, d), sidecar["m"])
        return SimulationBatch(
            thetas=data[:, 1 : p + 1],
            stats=data[:, p + 1 :],
            seed=sidecar["seed"],
            model_name=sidecar["model"],
            prior_hash=sidecar["prior_hash"],
        )


def _posterior_header(p: int) -> list[str]:
    return ["draw_index", *(f"theta_{i + 1}" for i in range(p))]


def save_posterior(directory, name: str, posterior: WeightedPosterior, config_hash: str) -> None:
    directory = Path(directory)
    p = posterior.thetas.shape[1]
    _write_table(
        directory / f"{name}.csv", _posterior_header(p), np.asarray(posterior.accepted_indices),
        posterior.thetas,
    )
    sidecar = {
        "kind": "posterior",
        "config_hash": config_hash,
        "n": posterior.n,
        "param_dim": p,
        "epsilon": posterior.epsilon,
        "provenance": posterior.provenance,
    }
    dump_json(directory / f"{name}.json", sidecar)


def load_posterior(directory, name: str, config_hash: str | None = None) -> WeightedPosterior:
    directory = Path(directory)
    path = directory / f"{name}.json"
    sidecar = load_json(path, "posterior", config_hash)
    with _sidecar_values(path):
        p = sidecar["param_dim"]
        data = _read_table(directory / f"{name}.csv", _posterior_header(p), sidecar["n"])
        idx = data[:, 0]
        if not (np.isfinite(idx).all() and (np.floor(idx) == idx).all()):
            raise ArtifactError(f"{name}.csv has a draw_index that is not an integer")
        return WeightedPosterior(
            thetas=data[:, 1:],
            epsilon=float(sidecar["epsilon"]),
            accepted_indices=idx.astype(np.intp),
            provenance=sidecar["provenance"],
        )


def save_region(directory, region: TruncationRegion, config_hash: str) -> None:
    dump_json(
        Path(directory) / "region.json",
        {"kind": "truncation_region", "config_hash": config_hash, **region.to_dict()},
    )


def load_region(directory, config_hash: str | None = None) -> TruncationRegion:
    path = Path(directory) / "region.json"
    data = load_json(path, "truncation_region", config_hash)
    with _sidecar_values(path):
        return TruncationRegion.from_dict(data)


def save_projector(directory, projector: SummaryProjector, config_hash: str) -> None:
    payload = {
        "kind": "summary_projector",
        "config_hash": config_hash,
        "projector_id": projector.projector_id(),
        **projector.to_dict(),
    }
    dump_json(Path(directory) / "projector.json", payload)


def load_projector(
    directory, config_hash: str | None = None, *, stat_dim: int
) -> SummaryProjector:
    """The persisted projector for statistics of dimension `stat_dim`; one
    whose coef does not have a column per basis feature of them is refused."""
    path = Path(directory) / "projector.json"
    data = load_json(path, "summary_projector", config_hash)
    with _sidecar_values(path):
        projector = SummaryProjector.from_dict(data)
        width = projector.coef.shape[1]
        if width != projector.basis.width(stat_dim):
            raise ArtifactError(
                f"{path} has a coef of {width} columns, not one per "
                f"{projector.basis.kind} basis feature of {stat_dim} statistics"
            )
    return projector


def save_marginal(directory, name: str, marginal, config_hash: str) -> None:
    directory = Path(directory)
    _write_table(
        directory / f"{name}.csv", ["draw_index", "value"], np.arange(marginal.n),
        marginal.samples[:, None],
    )
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
    dump_json(
        directory / "experiment_report.json",
        {"kind": "experiment_report", "config_hash": config_hash, **report.to_dict()},
    )
    header = [
        "strategy", "replicate", "seed", "group", "target", "p_prime",
        "estimate", "oracle", "abs_error", "n_accepted",
        "epsilon", "construction_condition", "adjustment_condition",
    ]
    rows = (
        [
            r.strategy, str(r.replicate), str(r.seed), r.group_label, r.target,
            str(r.p_prime), fmt(r.estimate), fmt(r.oracle_value), fmt(r.abs_error),
            str(r.n_accepted), fmt(r.epsilon),
            fmt(r.construction_condition),
            fmt(r.adjustment_condition) if r.adjustment_condition is not None else "",
        ]
        for r in report.rows
    )
    _write_csv(directory / "experiment_rows.csv", header, rows)


def save_observed(directory, fixture, config_hash: str) -> None:
    """Record the observed dataset and statistics a run compared against.
    Nothing reads them back: every stage rebuilds the fixture from the
    config, so the files only document the run."""
    directory = Path(directory)
    values = np.asarray(fixture.observed_data).reshape(-1, 1)
    _write_table(directory / "observed.csv", ["index", "value"], np.arange(len(values)), values)
    dump_json(
        directory / "observed.json",
        {
            "kind": "observed_data",
            "config_hash": config_hash,
            "model": fixture.name,
            "s_obs": [float(v) for v in fixture.s_obs],
        },
    )


def save_report_table(directory, rows: list[dict]) -> None:
    """Machine-readable companion of the human-readable report table."""
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
    _write_csv(Path(directory) / "report_table.csv", header, csv_rows)
