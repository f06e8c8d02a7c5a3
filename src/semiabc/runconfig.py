"""Run configuration: strict JSON parsing, defaults, canonical hashing.

Unknown keys are fatal and every validation error names the offending
dotted path; silent typos in experiment sweeps are the main operational
hazard this module exists to prevent. The config hash covers every field
that can influence computed values (seed included) but not the output
directory, so moving a run never changes its identity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConfigError
from .regression import BasisSpec

PILOT_DEFAULTS = {"m": 10_000, "accept_fraction": 0.05, "statistics": "raw", "expand": 0.0}
MAIN_DEFAULTS = {"m": 100_000, "accept_fraction": 0.01}

_TOP_KEYS = {
    "model", "prior_overrides", "pilot", "construct", "main", "basis",
    "ridge_lambda", "targets", "adjust", "experiment", "seed", "output_dir",
}


@dataclass(frozen=True)
class TargetSpec:
    """Declarative description of a target functional (config-level)."""

    kind: str  # coordinate | gpd_quantile | custom
    index: int | None = None
    tau: float | None = None
    transform: str = "raw"  # raw | log, coordinate targets only
    name: str | None = None

    def label(self) -> str:
        if self.name:
            return self.name
        if self.kind == "coordinate":
            prefix = "log_theta" if self.transform == "log" else "theta"
            return f"{prefix}_{self.index}"
        if self.kind == "gpd_quantile":
            return f"gpd_q{self.tau:g}"
        return "custom"

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.index is not None:
            d["index"] = self.index
        if self.tau is not None:
            d["tau"] = self.tau
        if self.transform != "raw":
            d["transform"] = self.transform
        if self.name is not None:
            d["name"] = self.name
        return d


@dataclass(frozen=True)
class ExperimentConfig:
    strategies: tuple[str, ...] = ("joint",)
    groups: tuple[tuple[int, ...], ...] | None = None  # None -> singletons
    replications: int = 20
    seeds: tuple[int, ...] | None = None  # None -> derived from config seed

    def to_dict(self) -> dict:
        d: dict = {"strategies": list(self.strategies), "replications": self.replications}
        if self.groups is not None:
            d["groups"] = [list(g) for g in self.groups]
        if self.seeds is not None:
            d["seeds"] = list(self.seeds)
        return d


@dataclass(frozen=True)
class RunConfig:
    model: str
    model_params: dict = field(default_factory=dict)
    prior_overrides: dict = field(default_factory=dict)
    pilot_m: int = PILOT_DEFAULTS["m"]
    pilot_accept_fraction: float = PILOT_DEFAULTS["accept_fraction"]
    pilot_statistics: str = PILOT_DEFAULTS["statistics"]
    pilot_expand: float = PILOT_DEFAULTS["expand"]
    construct_m: int | None = None  # None -> pilot_m
    main_m: int = MAIN_DEFAULTS["m"]
    main_accept_fraction: float = MAIN_DEFAULTS["accept_fraction"]
    basis: BasisSpec = field(default_factory=BasisSpec)
    ridge_lambda: float = 0.0
    targets: tuple[TargetSpec, ...] = ()
    regression_adjust: bool = False
    marginal_adjust: bool = False
    experiment: ExperimentConfig | None = None
    seed: int = 0
    output_dir: str | None = None

    @property
    def effective_construct_m(self) -> int:
        return self.pilot_m if self.construct_m is None else self.construct_m

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=int(seed))

    def to_json_dict(self) -> dict:
        d = {
            "model": {"name": self.model, "params": self.model_params},
            "pilot": {
                "m": self.pilot_m,
                "accept_fraction": self.pilot_accept_fraction,
                "statistics": self.pilot_statistics,
                "expand": self.pilot_expand,
            },
            "construct": {"m": self.effective_construct_m},
            "main": {"m": self.main_m, "accept_fraction": self.main_accept_fraction},
            "basis": _basis_to_dict(self.basis),
            "ridge_lambda": self.ridge_lambda,
            "targets": [t.to_dict() for t in self.targets],
            "adjust": {"regression": self.regression_adjust, "marginal": self.marginal_adjust},
            "seed": self.seed,
        }
        if self.prior_overrides:
            d["prior_overrides"] = {str(k): v for k, v in self.prior_overrides.items()}
        if self.experiment is not None:
            d["experiment"] = self.experiment.to_dict()
        if self.output_dir is not None:
            d["output_dir"] = self.output_dir
        return d

    def config_hash(self) -> str:
        payload = self.to_json_dict()
        payload.pop("output_dir", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _basis_to_dict(basis: BasisSpec) -> dict:
    d: dict = {"kind": basis.kind}
    if basis.degree is not None:
        d["degree"] = basis.degree
    if basis.exponents is not None:
        d["exponents"] = [list(e) for e in basis.exponents]
    if basis.name is not None:
        d["name"] = basis.name
    if not basis.include_intercept:
        d["include_intercept"] = False
    return d


def _require(data: dict, key: str, path: str):
    if key not in data:
        raise ConfigError(f"missing required key {_join(path, key)!r}")
    return data[key]


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _check_keys(data: dict, allowed: set[str], path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {_join(path, key)!r}")


def _as_count(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"{path!r} must be a positive integer, got {value!r}")
    return value


def _as_fraction(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path!r} must be a number")
    v = float(value)
    if not 0.0 < v <= 1.0:
        raise ConfigError(f"{path!r} must lie in (0, 1], got {value!r}")
    return v


def _as_nonneg(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{path!r} must be a number")
    v = float(value)
    if v < 0:
        raise ConfigError(f"{path!r} must be >= 0, got {value!r}")
    return v


def _parse_basis(data: dict, path: str) -> BasisSpec:
    _check_keys(data, {"kind", "degree", "exponents", "name", "include_intercept"}, path)
    kind = data.get("kind", "identity")
    try:
        return BasisSpec(
            kind=kind,
            degree=data.get("degree"),
            exponents=(
                tuple(tuple(int(e) for e in row) for row in data["exponents"])
                if "exponents" in data
                else None
            ),
            name=data.get("name"),
            include_intercept=bool(data.get("include_intercept", True)),
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse_target(data: dict, path: str) -> TargetSpec:
    _check_keys(data, {"kind", "index", "tau", "transform", "name"}, path)
    kind = _require(data, "kind", path)
    if kind == "coordinate":
        index = _require(data, "index", path)
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise ConfigError(f"{_join(path, 'index')!r} must be a nonnegative integer")
        transform = data.get("transform", "raw")
        if transform not in ("raw", "log"):
            raise ConfigError(f"{_join(path, 'transform')!r} must be 'raw' or 'log'")
        return TargetSpec(kind=kind, index=index, transform=transform, name=data.get("name"))
    if kind == "gpd_quantile":
        tau = _require(data, "tau", path)
        tau = _as_fraction(tau, _join(path, "tau"))
        if tau == 1.0:
            raise ConfigError(f"{_join(path, 'tau')!r} must lie strictly in (0, 1)")
        return TargetSpec(kind=kind, tau=tau, name=data.get("name"))
    raise ConfigError(f"{_join(path, 'kind')!r} must be 'coordinate' or 'gpd_quantile', got {kind!r}")


def _parse_experiment(data: dict, n_targets: int, path: str) -> ExperimentConfig:
    _check_keys(data, {"strategies", "groups", "replications", "seeds"}, path)
    strategies = tuple(data.get("strategies", ["joint"]))
    for s in strategies:
        if s not in ("joint", "separate"):
            raise ConfigError(f"{_join(path, 'strategies')!r} entries must be 'joint' or 'separate'")
    if not strategies:
        raise ConfigError(f"{_join(path, 'strategies')!r} must be nonempty")
    groups = None
    if "groups" in data:
        raw_groups = data["groups"]
        if not isinstance(raw_groups, list) or not all(isinstance(g, list) for g in raw_groups):
            raise ConfigError(f"{_join(path, 'groups')!r} must be a list of lists")
        groups = tuple(tuple(int(i) for i in g) for g in raw_groups)
        seen = [i for g in groups for i in g]
        if sorted(seen) != list(range(n_targets)):
            raise ConfigError(
                f"{_join(path, 'groups')!r} must partition the target indices 0..{n_targets - 1}"
            )
    replications = _as_count(data.get("replications", 20), _join(path, "replications"))
    seeds = None
    if "seeds" in data:
        raw_seeds = data["seeds"]
        if not isinstance(raw_seeds, list) or len(raw_seeds) != replications:
            raise ConfigError(
                f"{_join(path, 'seeds')!r} must list exactly {replications} seeds"
            )
        seeds = tuple(int(s) for s in raw_seeds)
        if any(s < 0 for s in seeds):
            raise ConfigError(f"{_join(path, 'seeds')!r} must be nonnegative")
    return ExperimentConfig(
        strategies=strategies, groups=groups, replications=replications, seeds=seeds
    )


def parse_config_dict(data: dict) -> RunConfig:
    """Validate a parsed JSON document and fill defaults."""
    _check_keys(data, _TOP_KEYS, "")

    model = _require(data, "model", "")
    _check_keys(model, {"name", "params"}, "model")
    model_name = _require(model, "name", "model")
    if not isinstance(model_name, str):
        raise ConfigError("'model.name' must be a string")
    model_params = model.get("params", {})
    if not isinstance(model_params, dict):
        raise ConfigError("'model.params' must be an object")

    seed = _require(data, "seed", "")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed!r}")

    pilot = dict(PILOT_DEFAULTS)
    if "pilot" in data:
        _check_keys(data["pilot"], set(PILOT_DEFAULTS), "pilot")
        pilot.update(data["pilot"])
    pilot_m = _as_count(pilot["m"], "pilot.m")
    pilot_fraction = _as_fraction(pilot["accept_fraction"], "pilot.accept_fraction")
    if pilot["statistics"] not in ("raw", "projected"):
        raise ConfigError("'pilot.statistics' must be 'raw' or 'projected'")
    pilot_expand = _as_nonneg(pilot["expand"], "pilot.expand")

    construct_m = None
    if "construct" in data:
        _check_keys(data["construct"], {"m"}, "construct")
        if "m" in data["construct"]:
            construct_m = _as_count(data["construct"]["m"], "construct.m")

    main = dict(MAIN_DEFAULTS)
    if "main" in data:
        _check_keys(data["main"], set(MAIN_DEFAULTS), "main")
        main.update(data["main"])
    main_m = _as_count(main["m"], "main.m")
    main_fraction = _as_fraction(main["accept_fraction"], "main.accept_fraction")

    basis = _parse_basis(data.get("basis", {"kind": "identity"}), "basis")
    ridge = _as_nonneg(data.get("ridge_lambda", 0.0), "ridge_lambda")

    raw_targets = _require(data, "targets", "")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ConfigError("'targets' must be a nonempty list")
    targets = tuple(
        _parse_target(t, f"targets[{i}]") for i, t in enumerate(raw_targets)
    )

    adjust = {"regression": False, "marginal": False}
    if "adjust" in data:
        _check_keys(data["adjust"], set(adjust), "adjust")
        adjust.update(data["adjust"])
    for key, value in adjust.items():
        if not isinstance(value, bool):
            raise ConfigError(f"'adjust.{key}' must be a boolean")

    prior_overrides = {}
    if "prior_overrides" in data:
        raw = data["prior_overrides"]
        if not isinstance(raw, dict):
            raise ConfigError("'prior_overrides' must be an object keyed by coordinate")
        for key, spec in raw.items():
            _check_keys(spec, {"kind", "a", "b"}, f"prior_overrides.{key}")
            try:
                coord = int(key)
            except ValueError:
                raise ConfigError(
                    f"'prior_overrides' key {key!r} is not a coordinate index"
                ) from None
            prior_overrides[coord] = {
                "kind": _require(spec, "kind", f"prior_overrides.{key}"),
                "a": float(_require(spec, "a", f"prior_overrides.{key}")),
                "b": float(_require(spec, "b", f"prior_overrides.{key}")),
            }

    experiment = None
    if "experiment" in data:
        experiment = _parse_experiment(data["experiment"], len(targets), "experiment")

    output_dir = data.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("'output_dir' must be a string")

    return RunConfig(
        model=model_name,
        model_params=model_params,
        prior_overrides=prior_overrides,
        pilot_m=pilot_m,
        pilot_accept_fraction=pilot_fraction,
        pilot_statistics=pilot["statistics"],
        pilot_expand=pilot_expand,
        construct_m=construct_m,
        main_m=main_m,
        main_accept_fraction=main_fraction,
        basis=basis,
        ridge_lambda=ridge,
        targets=targets,
        regression_adjust=adjust["regression"],
        marginal_adjust=adjust["marginal"],
        experiment=experiment,
        seed=seed,
        output_dir=output_dir,
    )


def parse_config(path) -> RunConfig:
    """Load and validate a JSON config file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from None
    return parse_config_dict(data)


def serialize_config(config: RunConfig) -> str:
    """Canonical JSON text (sorted keys); parse(serialize(c)) == c."""
    return json.dumps(config.to_json_dict(), sort_keys=True, indent=2) + "\n"
