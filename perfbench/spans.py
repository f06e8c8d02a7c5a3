"""Spans around calls into semiabc's public functions, recorded from outside.

`Tracer.install()` replaces each traced function in the namespace its
caller looks it up in (`semiabc.semiauto.simulate_batch`,
`semiabc.regression.solve_spd`, ...) with a wrapper that records a span,
and restores the originals on exit. Parent spans are tracked with a
context variable; the thread pools in `semiabc.engine` and
`semiabc.experiment` are swapped for one that runs each task in a copy of
the submitting context, so worker-thread spans keep their parent. Spans
stay in memory until `dump_spans` writes them out.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(directory, name: str) -> int:
    d = Path(directory)
    return sum(os.path.getsize(d / f"{name}{ext}") for ext in (".csv", ".json"))


def _artifact_attrs(result, args, kwargs) -> dict:
    return {"bytes": _file_bytes(args[0], args[1])}


def _batch_attrs(batch, args, kwargs) -> dict:
    return {"m": batch.m, "model": batch.model_name,
            "key": [batch.prior_hash, batch.model_name, batch.m, batch.seed]}


def _experiment_attrs(report, args, kwargs) -> dict:
    return {"failures": len(report.failures)}


# (module, attribute, span name, attribute hook). A function imported into
# several modules is patched in each namespace that calls it.
PATCHES = (
    ("semiabc.cli", "parse_config", "runconfig.parse_config", None),
    ("semiabc.semiauto", "make_fixture", "models.make_fixture", None),
    ("semiabc.semiauto", "simulate_batch", "engine.simulate_batch", _batch_attrs),
    ("semiabc.semiauto", "rejection_abc", "engine.rejection_abc", None),
    ("semiabc.semiauto", "regression_adjust", "engine.regression_adjust", None),
    ("semiabc.semiauto", "expand_design", "regression.expand_design", None),
    ("semiabc.semiauto", "fit_linear", "regression.fit_linear", None),
    ("semiabc.engine", "fit_linear", "regression.fit_linear", None),
    ("semiabc.regression", "condition_diagnostics", "regression.condition_diagnostics", None),
    ("semiabc.regression", "solve_spd", "linalg.solve_spd", None),
    ("semiabc.cli", "run_semiauto", "semiauto.run_semiauto", None),
    ("semiabc.marginal", "run_semiauto", "semiauto.run_semiauto", None),
    ("semiabc.experiment", "run_semiauto", "semiauto.run_semiauto", None),
    ("semiabc.cli", "stage_pilot", "semiauto.stage_pilot", None),
    ("semiabc.semiauto", "stage_pilot", "semiauto.stage_pilot", None),
    ("semiabc.cli", "stage_construct", "semiauto.stage_construct", None),
    ("semiabc.semiauto", "stage_construct", "semiauto.stage_construct", None),
    ("semiabc.cli", "stage_infer", "semiauto.stage_infer", None),
    ("semiabc.semiauto", "stage_infer", "semiauto.stage_infer", None),
    ("semiabc.semiauto", "construct_projector", "semiauto.construct_projector", None),
    ("semiabc.semiauto", "project_matrix", "semiauto.project_matrix", None),
    ("semiabc.cli", "estimate_marginal", "marginal.estimate_marginal", None),
    ("semiabc.cli", "marginal_remap", "marginal.marginal_remap", None),
    ("semiabc.cli", "run_experiment", "experiment.run_experiment", _experiment_attrs),
    ("semiabc.artifacts", "save_batch", "artifacts.save_batch", _artifact_attrs),
    ("semiabc.artifacts", "load_batch", "artifacts.load_batch", _artifact_attrs),
    ("semiabc.artifacts", "save_posterior", "artifacts.save_posterior", _artifact_attrs),
    ("semiabc.artifacts", "load_posterior", "artifacts.load_posterior", _artifact_attrs),
)

POOL_MODULES = ("semiabc.engine", "semiabc.experiment")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the block; yields its attribute dict."""
        with self._lock:
            span_id = next(self._ids)
        parent = self._current.get()
        token = self._current.set(span_id)
        attrs: dict = {}
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            span = Span(span_id, parent, name, start, end, self.run_id,
                        threading.get_ident(), attrs)
            with self._lock:
                self.spans.append(span)

    def wrap(self, fn, name: str, hook=None):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if hook is not None:
                attrs.update(hook(result, args, kwargs))
            return result

        return traced

    def _traced_fixture(self, make_fixture):
        """make_fixture whose fixtures time their simulator kernel."""
        traced_make = self.wrap(make_fixture, "models.make_fixture")

        def build(*args, **kwargs):
            fixture = traced_make(*args, **kwargs)
            sim = fixture.simulator
            kernel = self.wrap(sim.simulate, "models.simulator")
            return replace(fixture, simulator=replace(sim, simulate=kernel))

        return build

    @contextlib.contextmanager
    def install(self):
        """Patch every traced function; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                if name == "models.make_fixture":
                    setattr(module, attr, self._traced_fixture(original))
                else:
                    setattr(module, attr, self.wrap(original, name, hook))
            for module_name in POOL_MODULES:
                module = importlib.import_module(module_name)
                saved.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
                module.ThreadPoolExecutor = ContextPool
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def dump_spans(spans: list[Span], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps([asdict(s) for s in spans]) + "\n")


class ContextPool(ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans.

    Children running in parallel threads may overlap; their union counts
    once, so self time is never negative.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = max(s.duration - covered, 0.0)
    return out
