"""Artifact persistence: CSV tables with JSON provenance sidecars.

Numbers are written in their shortest round-trip decimal form, so loading
an artifact and re-saving it is byte-identical, and a pipeline stage that
reloads a persisted batch computes exactly what an in-memory run would.
Numeric tables are streamed out in blocks of rows and parsed back by
numpy's C reader, which rounds exactly as `float()` does. Every artifact
has a JSON sidecar holding its kind and config hash, written by
`_save_sidecar` and read through the `_sidecar` guard alone. Loaders
refuse a sidecar of another kind or run, one missing a key or holding a
malformed value, and a malformed table; they ignore keys they do not
read. Each fact is stored once: the truncation region only in
`region.json`, a batch's seed, model and prior hash only in its sidecar,
and no table a column of its row numbers.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .engine import SimulationBatch, TruncationRegion, WeightedPosterior
from .errors import ArtifactError
from .experiment import ExperimentRow
from .semiauto import SummaryProjector


def _save_sidecar(directory, name: str, kind: str, config_hash: str, /, **fields) -> None:
    """Write the sidecar `{name}.json`: its kind, its config hash and `fields`."""
    path = Path(directory) / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"kind": kind, "config_hash": config_hash, **fields}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


@contextmanager
def _sidecar(directory, name: str, kind: str, config_hash: str | None):
    """Yield the JSON object of the sidecar `{name}.json` of this `kind`
    and, unless None, this `config_hash` to a block that builds an object
    from it. A key the block finds missing, or a value of the wrong type
    or shape, becomes an ArtifactError naming the file."""
    path = Path(directory) / f"{name}.json"
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    try:
        data = json.loads(path.read_text())
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
    try:
        yield data
    except ArtifactError:
        raise
    except KeyError as exc:
        raise ArtifactError(f"{path} has no {exc.args[0]!r} entry") from None
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{path} is malformed: {exc}") from None


def _cell(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_records(path: Path, header: list[str], records) -> None:
    """Write a text table of `records`, mappings with a key per `header`
    name: a float cell as its shortest round-trip decimal, None as an empty
    cell, and anything else as `str` of it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(_cell(r[name]) for name in header) + "\n" for r in records)


_BLOCK_ROWS = 4096


def _write_table(path: Path, header: list[str], *columns) -> None:
    """Write the columns of the 2-d arrays `columns`, one block of rows at a
    time, each cell as `repr` of its Python value: a float as its shortest
    round-trip decimal, an integer of an object column as its digits."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = np.hstack([c[block] for c in columns]).tolist()
            f.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _read_table(path: Path, header: list[str], n: int) -> np.ndarray:
    """Parse a `_write_table` file into an (n, len(header)) float64 array."""
    if not path.exists():
        raise ArtifactError(f"expected artifact {path} is missing; run the earlier stage first")
    try:
        with open(path) as f:
            found = f.readline().rstrip("\n").split(",")
            if found == header:
                body = f.tell()
                if f.readline().strip():
                    f.seek(body)
                    data = np.loadtxt(f, delimiter=",", dtype=np.float64, ndmin=2, comments=None)
                else:  # no rows: loadtxt would warn and count one column
                    data = np.empty((0, len(header)))
    except ValueError as exc:
        raise ArtifactError(f"{path} is malformed: {exc}") from None
    if found != header:
        # earlier versions led each batch table with its row numbers
        old = found == ["draw_index", *header]
        raise ArtifactError(
            f"{path} header is not {','.join(header)}"
            + ("; it has the draw_index column of an earlier version, so rerun" if old else "")
        )
    if data.shape != (n, len(header)):
        raise ArtifactError(
            f"{path} has {data.shape[0]} rows of {data.shape[1]} columns, "
            f"expected {n} rows (sidecar) of {len(header)}"
        )
    if not np.isfinite(data).all():
        raise ArtifactError(f"{path} holds a non-finite value")
    return data


def _batch_header(p: int, d: int) -> list[str]:
    return [*(f"theta_{i + 1}" for i in range(p)), *(f"stat_{j + 1}" for j in range(d))]


def save_batch(directory, name: str, batch: SimulationBatch, config_hash: str) -> None:
    p, d = batch.param_dim, batch.stat_dim
    _write_table(Path(directory) / f"{name}.csv", _batch_header(p, d), batch.thetas, batch.stats)
    _save_sidecar(
        directory, name, "simulation_batch", config_hash, seed=batch.seed,
        model=batch.model_name, prior_hash=batch.prior_hash, m=batch.m, param_dim=p, stat_dim=d,
    )


def load_batch(directory, name: str, config_hash: str | None = None) -> SimulationBatch:
    with _sidecar(directory, name, "simulation_batch", config_hash) as sidecar:
        p, d = sidecar["param_dim"], sidecar["stat_dim"]
        data = _read_table(Path(directory) / f"{name}.csv", _batch_header(p, d), sidecar["m"])
        return SimulationBatch(
            thetas=data[:, :p],
            stats=data[:, p:],
            seed=sidecar["seed"],
            model_name=sidecar["model"],
            prior_hash=sidecar["prior_hash"],
        )


def _posterior_header(p: int) -> list[str]:
    return ["draw_index", *(f"theta_{i + 1}" for i in range(p))]


def save_posterior(directory, name: str, posterior: WeightedPosterior, config_hash: str) -> None:
    p = posterior.thetas.shape[1]
    # an object column keeps the indices Python ints, written as digits
    indices = np.asarray(posterior.accepted_indices, dtype=object)[:, None]
    _write_table(Path(directory) / f"{name}.csv", _posterior_header(p), indices, posterior.thetas)
    _save_sidecar(
        directory, name, "posterior", config_hash, n=posterior.n, param_dim=p,
        epsilon=posterior.epsilon, provenance=posterior.provenance,
    )


def load_posterior(directory, name: str, config_hash: str | None = None) -> WeightedPosterior:
    with _sidecar(directory, name, "posterior", config_hash) as sidecar:
        p = sidecar["param_dim"]
        data = _read_table(Path(directory) / f"{name}.csv", _posterior_header(p), sidecar["n"])
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
    _save_sidecar(directory, "region", "truncation_region", config_hash, **region.to_dict())


def load_region(directory, config_hash: str | None = None) -> TruncationRegion:
    with _sidecar(directory, "region", "truncation_region", config_hash) as data:
        return TruncationRegion.from_dict(data)


def save_projector(directory, projector: SummaryProjector, config_hash: str) -> None:
    _save_sidecar(
        directory, "projector", "summary_projector", config_hash,
        projector_id=projector.projector_id(), **projector.to_dict(),
    )


def load_projector(
    directory, config_hash: str | None = None, *, stat_dim: int
) -> SummaryProjector:
    """The persisted projector for statistics of dimension `stat_dim`; one
    whose coef does not have a column per basis feature of them is refused."""
    with _sidecar(directory, "projector", "summary_projector", config_hash) as data:
        projector = SummaryProjector.from_dict(data)
        width = projector.coef.shape[1]
        if width != projector.basis.width(stat_dim):
            raise ArtifactError(
                f"{Path(directory) / 'projector.json'} has a coef of {width} columns, not one "
                f"per {projector.basis.kind} basis feature of {stat_dim} statistics"
            )
    return projector


def save_experiment_report(directory, report, config_hash: str) -> None:
    _save_sidecar(
        directory, "experiment_report", "experiment_report", config_hash, **report.to_dict()
    )
    # the columns are the row fields, named as the JSON rows name them
    header = [f.name for f in fields(ExperimentRow)]
    _write_records(Path(directory) / "experiment_rows.csv", header, map(vars, report.rows))


def save_observed(directory, fixture, config_hash: str) -> None:
    """Record the observed dataset and statistics a run compared against.
    Nothing reads them back: every stage rebuilds the fixture from the
    config, so the files only document the run."""
    values = np.asarray(fixture.observed_data).reshape(-1, 1)
    _write_table(Path(directory) / "observed.csv", ["value"], values)
    _save_sidecar(
        directory, "observed", "observed_data", config_hash,
        s_obs=[float(v) for v in fixture.s_obs],
    )


def save_report_table(directory, rows: list[dict]) -> None:
    """Machine-readable companion of the human-readable report table."""
    header = ["target", "estimate", "oracle", "abs_error", "mc_sd"]
    _write_records(Path(directory) / "report_table.csv", header, rows)
