"""Run configuration: strict JSON parsing, defaults, canonical hashing.

Every config type checks its own values on construction, so a config
built in code or derived with `dataclasses.replace` obeys the same rules
as a parsed one. `_LAYOUT` maps each `RunConfig` field to the dotted path
of its JSON key: the parser reads the document through it, `to_json_dict`
writes through it, and every validation error names that path. Unknown
keys are fatal; silent typos in experiment sweeps are the main
operational hazard this module exists to prevent. The config hash covers
every field that can influence computed values (seed included) but not
the output directory, so moving a run never changes its identity.
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

@dataclass(frozen=True)
class TargetSpec:
    """One target functional of the parameter vector: config form, name and values.

    kind "coordinate" is theta_index, named theta_i; kind "gpd_quantile"
    is the GPD quantile at level tau of (sigma, xi) = (theta_0, theta_1),
    named gpd_q{tau:g}.
    """

    kind: str
    index: int | None = None
    tau: float | None = None

    def __post_init__(self):
        if self.kind == "coordinate":
            if not _is_int(self.index) or self.index < 0:
                raise ConfigError(f"must be a nonnegative integer, got {self.index!r}", "index")
            stray = "tau" if self.tau is not None else None
        elif self.kind == "gpd_quantile":
            if not _is_number(self.tau) or not 0.0 < self.tau < 1.0:
                raise ConfigError(f"must lie strictly in (0, 1), got {self.tau!r}", "tau")
            object.__setattr__(self, "tau", float(self.tau))
            stray = "index" if self.index is not None else None
        else:
            raise ConfigError(f"must be 'coordinate' or 'gpd_quantile', got {self.kind!r}", "kind")
        if stray:
            raise ConfigError(f"does not apply to {self.kind} targets", stray)

    @property
    def name(self) -> str:
        if self.kind == "gpd_quantile":
            return f"gpd_q{self.tau:g}"
        return f"theta_{self.index}"

    def fn(self, thetas: np.ndarray) -> np.ndarray:
        """The functional at each row of an (M, p) parameter matrix."""
        if self.kind == "gpd_quantile":
            return gpd_quantile(self.tau, thetas[:, 0], thetas[:, 1])
        return thetas[:, self.index]

    def to_dict(self) -> dict:
        return _changed_fields(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """The study plan: strategies and replications.

    `experiment.run_experiment` reads the plan from `RunConfig.experiment`;
    the separate strategy runs one target at a time, and replicate r runs
    at a seed derived from the run seed.
    """

    strategies: tuple[str, ...] = ("joint",)
    replications: int = 20

    def __post_init__(self):
        for key, ok, rule in (
            ("strategies",
             self.strategies and all(s in ("joint", "separate") for s in self.strategies)
             and len(set(self.strategies)) == len(self.strategies),
             "must list 'joint' and/or 'separate', each once"),
            ("replications", _is_int(self.replications) and self.replications >= 1,
             "must be a positive integer"),
        ):
            if not ok:
                raise ConfigError(f"{rule}, got {getattr(self, key)!r}", key)

    def to_dict(self) -> dict:
        return _changed_fields(self, "strategies", "replications")


# Checks that several fields share: (test, rule the error states).
_COUNT = (lambda v: _is_int(v) and v >= 1, "must be a positive integer")
_FRACTION = (lambda v: _is_number(v) and 0.0 < v <= 1.0, "must lie in (0, 1]")

# Each RunConfig field: the dotted path of its JSON key, then the test its
# value must pass and the rule that test states.
_LAYOUT = {
    "model": ("model.name", lambda v: isinstance(v, str), "must be a string"),
    "targets": ("targets", lambda v: isinstance(v, (tuple, list)) and v and all(
        isinstance(t, TargetSpec) for t in v), "must list at least one target"),
    "model_params": ("model.params", lambda v: isinstance(v, dict), "must be an object"),
    "pilot_m": ("pilot.m", *_COUNT),
    "pilot_accept_fraction": ("pilot.accept_fraction", *_FRACTION),
    "construct_m": ("construct.m", *_COUNT),
    "main_m": ("main.m", *_COUNT),
    "main_accept_fraction": ("main.accept_fraction", *_FRACTION),
    "basis": ("basis", lambda v: isinstance(v, BasisSpec), "must be a BasisSpec"),
    "ridge_lambda": ("ridge_lambda", lambda v: _is_number(v) and v >= 0,
                     "must be a number >= 0"),
    "regression_adjust": ("adjust.regression", lambda v: isinstance(v, bool),
                          "must be a boolean"),
    "experiment": ("experiment", lambda v: v is None or isinstance(v, ExperimentConfig),
                   "must be an ExperimentConfig"),
    "seed": ("seed", lambda v: _is_int(v) and v >= 0, "must be a nonnegative integer"),
    "output_dir": ("output_dir", lambda v: v is None or isinstance(v, str), "must be a string"),
}


@dataclass(frozen=True)
class RunConfig:
    model: str
    targets: tuple[TargetSpec, ...]
    model_params: dict = field(default_factory=dict)
    pilot_m: int = 10_000
    pilot_accept_fraction: float = 0.05
    construct_m: int | None = None  # None -> pilot_m, fixed when the config is built
    main_m: int = 100_000
    main_accept_fraction: float = 0.01
    basis: BasisSpec = field(default_factory=BasisSpec)
    ridge_lambda: float = 0.0
    regression_adjust: bool = False
    experiment: ExperimentConfig | None = None
    seed: int = 0
    output_dir: str | None = None

    def __post_init__(self):
        if self.construct_m is None:
            object.__setattr__(self, "construct_m", self.pilot_m)
        for f in fields(self):
            path, test, rule = _LAYOUT[f.name]
            value = getattr(self, f.name)
            if not test(value):
                raise ConfigError(f"{rule}, got {value!r}", path)
            # so that JSON 1 and 1.0 hash alike
            if f.type == "float":
                object.__setattr__(self, f.name, float(value))
        object.__setattr__(self, "targets", tuple(self.targets))

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    def to_json_dict(self) -> dict:
        d = {}
        for name, (path, _, _) in _LAYOUT.items():
            value = _WRITE[name](self) if name in _WRITE else getattr(self, name)
            if value is not None:
                section, _, key = path.partition(".")
                (d.setdefault(section, {}) if key else d)[key or section] = value
        return d

    def config_hash(self) -> str:
        payload = self.to_json_dict()
        payload.pop("output_dir", None)
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# The JSON form of the fields not written as they are held; None leaves
# the key out.
_WRITE = {
    "targets": lambda c: [t.to_dict() for t in c.targets],
    "basis": lambda c: _changed_fields(c.basis, "kind"),
    "experiment": lambda c: c.experiment and c.experiment.to_dict(),
}


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
        raise ConfigError(f"missing required key {f'{path}.{key}' if path else key!r}")
    return data[key]


def _check_keys(data: dict, allowed: set[str], path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in data:
        if key not in allowed:
            raise ConfigError("is not a known key", f"{path}.{key}" if path else key)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_tuple(value, path: str) -> tuple | None:
    """A JSON list as a tuple."""
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigError(f"must be a list, got {value!r}", path)
    return tuple(value)


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


# The field value of the JSON value, for the fields that hold typed objects.
_READ = {
    "targets": lambda v: tuple(_parse_typed(TargetSpec, t, f"targets[{i}]")
                               for i, t in enumerate(_as_tuple(v, "targets") or ())),
    "basis": lambda v: _parse_typed(BasisSpec, v, "basis"),
    "experiment": lambda v: _parse_typed(ExperimentConfig, v, "experiment", ("strategies",)),
}


def parse_config_dict(data: dict) -> RunConfig:
    """Read a parsed JSON document through `_LAYOUT`; RunConfig checks the
    values and fills the defaults."""
    where = {name: path.partition(".")[::2] for name, (path, _, _) in _LAYOUT.items()}
    _check_keys(data, {section for section, _ in where.values()}, "")
    for section, value in data.items():
        if keys := {key for s, key in where.values() if s == section and key}:
            _check_keys(value, keys, section)
    for key in ("model", "targets", "seed"):
        _require(data, key, "")
    _require(data["model"], "name", "model")
    values = {}
    for name, (section, key) in where.items():
        holder, key = (data.get(section, {}), key) if key else (data, section)
        if key in holder:
            values[name] = _READ[name](holder[key]) if name in _READ else holder[key]
    return RunConfig(**values)


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
