"""Per-layer metrics from the spans of one traced workload run.

`.s` is self time summed over a span name (span minus its child spans),
`.calls` an exact count. Every metric is emitted for every workload; one
whose layer the workload never enters reads 0.

LAYER_METRICS names, for each metric, the end-to-end metric it should
move, the workload that exercises its mechanism and the workload that
bypasses it (where the prediction for a change to that layer is no
change).
"""

from __future__ import annotations

import statistics

from spans import Span, self_times

# (name, unit, better, moves, mechanism workload, bypass workload)
LAYER_METRICS = (
    ("engine.simulate_batch.s", "s", "lower", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("engine.simulate_batch.calls", "count", "lower", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("engine.simulate_batch.unique_ratio", "ratio", "higher", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("engine.draws_per_s.gpd", "1/s", "higher", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("engine.draws_per_s.gaussian", "1/s", "higher", "wall_s", "gaussian_staged", "gpd_cubic"),
    ("engine.rejection_abc.s", "s", "lower", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("engine.regression_adjust.s", "s", "lower", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("models.simulator.s", "s", "lower", "wall_s", "gpd_experiment", "gaussian_staged"),
    ("models.make_fixture.s", "s", "lower", "setup_s", "gpd_experiment", "gaussian_staged"),
    ("models.make_fixture.calls", "count", "lower", "setup_s", "gpd_experiment", "gaussian_staged"),
    ("regression.expand_design.s", "s", "lower", "wall_s", "gpd_cubic", "gpd_experiment"),
    ("regression.fit_linear.s", "s", "lower", "wall_s", "gpd_cubic", "gpd_experiment"),
    ("regression.condition_diagnostics.s", "s", "lower", "wall_s", "gpd_cubic", "gpd_experiment"),
    ("regression.condition_diagnostics.calls", "count", "lower", "wall_s", "gpd_cubic", "gpd_experiment"),
    ("linalg.solve_spd.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("linalg.solve_spd.calls", "count", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.run_semiauto.calls", "count", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.stage_pilot.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.stage_construct.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.stage_infer.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.construct_projector.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("semiauto.project_matrix.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("marginal.estimate_marginal.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_cubic"),
    ("marginal.marginal_remap.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_cubic"),
    ("experiment.run_experiment.s", "s", "lower", "wall_s", "gpd_experiment", "gaussian_staged"),
    ("experiment.cell_s.p50", "s", "lower", "wall_s", "gpd_experiment", "gaussian_staged"),
    ("experiment.cell_s.max", "s", "lower", "wall_s", "gpd_experiment", "gaussian_staged"),
    ("experiment.failures", "count", "lower", "failure_rate", "gpd_experiment", "gaussian_staged"),
    ("artifacts.save_batch.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("artifacts.save_batch.mb", "MB", "lower", "artifact_mb", "gaussian_staged", "gpd_experiment"),
    ("artifacts.load_batch.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("artifacts.load_batch.mb", "MB", "lower", "peak_rss_mb", "gaussian_staged", "gpd_experiment"),
    ("artifacts.save_posterior.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("artifacts.load_posterior.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("artifacts.write_mb_per_s", "MB/s", "higher", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("artifacts.read_mb_per_s", "MB/s", "higher", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.simulate.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.pilot.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.construct.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.infer.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.marginal.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.report.s", "s", "lower", "wall_s", "gaussian_staged", "gpd_experiment"),
    ("cli.infer_full.s", "s", "lower", "wall_s", "gpd_cubic", "gaussian_staged"),
    ("cli.experiment.s", "s", "lower", "wall_s", "gpd_experiment", "gpd_cubic"),
    ("runconfig.parse_config.s", "s", "lower", "setup_s", "gaussian_staged", "gpd_cubic"),
    ("trace.overhead_s", "s", "lower", "n/a", "all", "all"),
)

UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}

MB = 1e6


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every LAYER_METRICS value except trace.overhead_s."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    for s in spans:
        self_s[s.name] = self_s.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration

    def named(name):
        return [s for s in spans if s.name == name]

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named(name))

    out: dict[str, float] = {}
    for name, *_ in LAYER_METRICS:
        if name.endswith(".s"):
            out[name] = self_s.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0)

    sims = named("engine.simulate_batch")
    out["engine.simulate_batch.unique_ratio"] = (
        len({tuple(s.attrs["key"]) for s in sims}) / len(sims) if sims else 0.0
    )
    for label, model in (("gpd", "gpd"), ("gaussian", "gaussian_location")):
        runs = [s for s in sims if s.attrs["model"] == model]
        busy = sum(s.duration for s in runs)
        out[f"engine.draws_per_s.{label}"] = sum(s.attrs["m"] for s in runs) / busy if busy else 0.0

    cells = [
        s.duration for s in named("semiauto.run_semiauto")
        if s.parent is not None and by_id[s.parent].name == "experiment.run_experiment"
    ]
    out["experiment.cell_s.p50"] = statistics.median(cells) if cells else 0.0
    out["experiment.cell_s.max"] = max(cells, default=0.0)
    out["experiment.failures"] = attr_sum("experiment.run_experiment", "failures")

    out["artifacts.save_batch.mb"] = attr_sum("artifacts.save_batch", "bytes") / MB
    out["artifacts.load_batch.mb"] = attr_sum("artifacts.load_batch", "bytes") / MB
    for direction, names in (
        ("write", ("artifacts.save_batch", "artifacts.save_posterior")),
        ("read", ("artifacts.load_batch", "artifacts.load_posterior")),
    ):
        moved = sum(attr_sum(n, "bytes") for n in names) / MB
        busy = sum(total.get(n, 0.0) for n in names)
        out[f"artifacts.{direction}_mb_per_s"] = moved / busy if busy else 0.0
    return out
