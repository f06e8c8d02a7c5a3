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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .models import gpd_quantile
from .regression import BasisSpec, _is_int

PILOT_DEFAULTS = {"m": 10_000, "accept_fraction": 0.05, "statistics": "raw", "expand": 0.0}
MAIN_DEFAULTS = {"m": 100_000, "accept_fraction": 0.01}

_TOP_KEYS = {
    "model", "prior_overrides", "pilot", "construct", "main", "basis",
    "ridge_lambda", "targets", "adjust", "experiment", "seed", "output_dir",
}


@dataclass(frozen=True)
class TargetSpec:
    """One target functional of the parameter vector: config form, name and values.

    kind "coordinate" is theta_index (transform "raw") or log theta_index
    (transform "log"); kind "gpd_quantile" is the GPD quantile at level
    tau of (sigma, xi) = (theta_0, theta_1). `name` defaults to
    theta_i, log_theta_i or gpd_q{tau:g}; once constructed it always
    holds the resolved name.
    """

    kind: str
    index: int | None = None
    tau: float | None = None
    transform: str = "raw"
    name: str | None = None

    def __post_init__(self):
        if self.kind == "coordinate":
            if not _is_int(self.index) or self.index < 0:
                raise ConfigError(f"must be a nonnegative integer, got {self.index!r}", "index")
            if self.transform not in ("raw", "log"):
                raise ConfigError(f"must be 'raw' or 'log', got {self.transform!r}", "transform")
            stray = "tau" if self.tau is not None else None
        elif self.kind == "gpd_quantile":
            if not _is_number(self.tau) or not 0.0 < self.tau < 1.0:
                raise ConfigError(f"must lie strictly in (0, 1), got {self.tau!r}", "tau")
            object.__setattr__(self, "tau", float(self.tau))
            stray = "index" if self.index is not None else None
            stray = "transform" if self.transform != "raw" else stray
        else:
            raise ConfigError(f"must be 'coordinate' or 'gpd_quantile', got {self.kind!r}", "kind")
        if stray:
            raise ConfigError(f"does not apply to {self.kind} targets", stray)
        if self.name is None:
            object.__setattr__(self, "name", self._default_name())
        elif not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"must be a nonempty string, got {self.name!r}", "name")

    def _default_name(self) -> str:
        if self.kind == "gpd_quantile":
            return f"gpd_q{self.tau:g}"
        return f"{'log_theta' if self.transform == 'log' else 'theta'}_{self.index}"

    def fn(self, thetas: np.ndarray) -> np.ndarray:
        """The functional at each row of an (M, p) parameter matrix."""
        if self.kind == "gpd_quantile":
            return gpd_quantile(self.tau, thetas[:, 0], thetas[:, 1])
        column = thetas[:, self.index]
        return np.log(column) if self.transform == "log" else column

    def to_dict(self) -> dict:
        d = _changed_fields(self)
        if d["name"] == self._default_name():
            del d["name"]
        return d


@dataclass(frozen=True)
class ExperimentConfig:
    """The study plan: strategies, target grouping, replications, seeds.

    `groups` None means one singleton group per target and `seeds` None
    means seeds derived from the run seed; `experiment.plan_from_config`
    fills both in for a given target count.
    """

    strategies: tuple[str, ...] = ("joint",)
    groups: tuple[tuple[int, ...], ...] | None = None
    replications: int = 20
    seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        groups, seeds = self.groups, self.seeds
        flat = [i for g in groups or () if isinstance(g, tuple) for i in g]
        for key, ok, rule in (
            ("strategies",
             self.strategies and all(s in ("joint", "separate") for s in self.strategies),
             "must list 'joint' and/or 'separate'"),
            ("replications", _is_int(self.replications) and self.replications >= 1,
             "must be a positive integer"),
            ("groups", groups is None or (
                groups and all(isinstance(g, tuple) and g for g in groups)
                and all(map(_is_int, flat)) and sorted(flat) == list(range(len(flat)))),
             "must partition the target indices 0..k-1 into nonempty lists"),
            ("seeds", seeds is None or (len(seeds) == self.replications
                                        and all(_is_int(v) and v >= 0 for v in seeds)),
             "must list one nonnegative integer seed per replicate"),
        ):
            if not ok:
                raise ConfigError(f"{rule}, got {getattr(self, key)!r}", key)

    def to_dict(self) -> dict:
        return _changed_fields(self, "strategies", "replications")


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
            "basis": _changed_fields(self.basis, "kind"),
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


def _changed_fields(obj, *always: str) -> dict:
    """The fields of a config dataclass that differ from their defaults
    (a field without a default always differs), plus those in `always`."""
    return {
        f.name: getattr(obj, f.name)
        for f in fields(obj)
        if f.name in always or getattr(obj, f.name) != f.default
    }


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
            raise ConfigError("is not a known key", _join(path, key))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_count(value, path: str) -> int:
    if not _is_int(value) or value < 1:
        raise ConfigError(f"must be a positive integer, got {value!r}", path)
    return value


def _as_number(value, path: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"must be a number, got {value!r}", path)
    return float(value)


def _as_fraction(value, path: str) -> float:
    v = _as_number(value, path)
    if not 0.0 < v <= 1.0:
        raise ConfigError(f"must lie in (0, 1], got {value!r}", path)
    return v


def _as_nonneg(value, path: str) -> float:
    v = _as_number(value, path)
    if v < 0:
        raise ConfigError(f"must be >= 0, got {value!r}", path)
    return v


def _as_tuple(value, path: str) -> tuple | None:
    """A JSON list as a tuple and a list of lists as a tuple of tuples."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigError(f"must be a list, got {value!r}", path)
    return tuple(tuple(v) if isinstance(v, list) else v for v in value)


def _parse_typed(cls, data: dict, path: str, lists: tuple[str, ...] = ()):
    """A typed config object from its JSON object. Keys, and the JSON lists
    named in `lists`, are checked here; `cls` checks its own values, and
    its errors get the object's dotted path in front."""
    _check_keys(data, {f.name for f in fields(cls)}, path)
    for f in fields(cls):
        if f.default is MISSING:
            _require(data, f.name, path)
    try:
        return cls(**{k: _as_tuple(v, k) if k in lists else v for k, v in data.items()})
    except ConfigError as exc:
        raise exc.under(path) from None


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
    if not _is_int(seed) or seed < 0:
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

    basis = _parse_typed(BasisSpec, data.get("basis", {}), "basis", ("exponents",))
    ridge = _as_nonneg(data.get("ridge_lambda", 0.0), "ridge_lambda")

    raw_targets = _require(data, "targets", "")
    if not isinstance(raw_targets, list) or not raw_targets:
        raise ConfigError("'targets' must be a nonempty list")
    targets = tuple(_parse_typed(TargetSpec, t, f"targets[{i}]") for i, t in enumerate(raw_targets))

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
            where = f"prior_overrides.{key}"
            _check_keys(spec, {"kind", "a", "b"}, where)
            try:
                coord = int(key)
            except ValueError:
                raise ConfigError(
                    f"'prior_overrides' key {key!r} is not a coordinate index"
                ) from None
            prior_overrides[coord] = {
                "kind": _require(spec, "kind", where),
                **{k: _as_number(_require(spec, k, where), f"{where}.{k}") for k in ("a", "b")},
            }

    experiment = None
    if "experiment" in data:
        experiment = _parse_typed(
            ExperimentConfig, data["experiment"], "experiment", ("strategies", "groups", "seeds")
        )

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
