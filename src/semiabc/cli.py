"""Command-line interface: stage-by-stage or end-to-end pipeline runs.

Subcommands: simulate | pilot | construct | infer | marginal | experiment
| report. A chained stage reloads the previous stage's artifacts from the
output directory and refuses inputs whose config hash differs from the
current run. `infer --full` computes all four stages with one
`run_semiauto` call and then writes them through the same four stage
commands, so both paths write the same bytes; `marginal` remaps the
joint posterior that `infer` wrote, on stages recomputed from (config,
seed). Exit codes: 0 success; 1 validation error, which leaves the
output directory as it was; 2 numerical failure, or an experiment whose
every cell failed. `--threads` sizes the one `engine.worker_pool` of the
run, opened around its command: speed only, never any computed value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import artifacts
from .engine import worker_pool
from .errors import ArtifactError, ConfigError, NumericalError
from .experiment import run_experiment
from .marginal import estimate_marginal, marginal_remap
from .runconfig import RunConfig, parse_config, serialize_config
from .semiauto import (
    build_fixture,
    check_draw_counts,
    posterior_target_estimates,
    project,
    run_semiauto,
    stage_batch,
    stage_construct,
    stage_infer,
    stage_pilot,
    targets_from_specs,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 1
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="semiabc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the config output directory")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (speed only, never changes output)")
        if name == "infer":
            p.add_argument("--full", action="store_true",
                           help="run simulate, pilot, construct and infer in one invocation")
    return parser


def _resolve(args) -> tuple[RunConfig, Path]:
    config = parse_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    out = args.out if args.out is not None else config.output_dir
    if out is None:
        raise ConfigError("no output directory: set 'output_dir' in the config or pass --out")
    config = replace(config, output_dir=str(out))
    return config, Path(out)


def _cmd_simulate(config, fixture, out, pool, held):
    h = config.config_hash()
    if "pilot_batch" not in held:
        held["pilot_batch"] = stage_batch(config, fixture, "pilot_batch", pool=pool)
    batch = held["pilot_batch"]
    artifacts.save_observed(out, fixture, h)
    artifacts.save_batch(out, "batch_pilot", batch, h)
    print(f"simulate: wrote batch_pilot ({batch.m} draws) to {out}")


def _cmd_pilot(config, fixture, out, pool, held):
    h = config.config_hash()
    if "region" not in held:
        batch = artifacts.load_batch(out, "batch_pilot", h)
        held["pilot_posterior"], held["region"] = stage_pilot(config, fixture, batch)
    accepted = held["pilot_posterior"]
    artifacts.save_posterior(out, "posterior_pilot", accepted, h)
    artifacts.save_region(out, held["region"], h)
    print(f"pilot: accepted {accepted.n} draws, region written to {out}")


def _cmd_construct(config, fixture, out, pool, held):
    h = config.config_hash()
    if "projector" not in held:
        region = artifacts.load_region(out, h)
        held["construct_batch"] = stage_batch(config, fixture, "construct_batch", region, pool=pool)
        held["projector"] = stage_construct(config, held["construct_batch"])
    projector = held["projector"]
    artifacts.save_batch(out, "batch_construct", held["construct_batch"], h)
    artifacts.save_projector(out, projector, h)
    print(
        f"construct: projector with {projector.out_dim} summaries "
        f"(condition {projector.condition_number:.3g}) written to {out}"
    )


def _cmd_infer(config, fixture, out, pool, held):
    h = config.config_hash()
    if "posterior" not in held:
        region = artifacts.load_region(out, h)
        projector = artifacts.load_projector(out, h, stat_dim=fixture.simulator.stat_dim)
        held["main_batch"] = stage_batch(config, fixture, "main_batch", region, pool=pool)
        held["posterior"] = stage_infer(config, fixture, projector, held["main_batch"])
    posterior = held["posterior"]
    artifacts.save_batch(out, "batch_main", held["main_batch"], h)
    artifacts.save_posterior(out, "posterior_main", posterior, h)
    print(
        f"infer: accepted {posterior.n} draws "
        f"(epsilon {posterior.epsilon:.6g}) written to {out}"
    )


def _cmd_marginal(config, fixture, out, pool, held):
    h = config.config_hash()
    joint = artifacts.load_posterior(out, "posterior_main", h)
    marginals = estimate_marginal(config, fixture, pool=pool)
    artifacts.save_posterior(out, "posterior_marginal", marginal_remap(joint, marginals), h)
    print(f"marginal: remapped {len(marginals)} margins, posterior written to {out}")


def _cmd_experiment(config, fixture, out, pool, held):
    report = run_experiment(config, fixture, pool=pool)
    artifacts.save_experiment_report(out, report, config.config_hash())
    if not report.rows:
        raise NumericalError(
            f"experiment: 0 rows, {len(report.failures)} failures, report written to "
            f"{out}; first failure: {report.failures[0].message}"
        )
    print(
        f"experiment: {len(report.rows)} rows, {len(report.failures)} failures, "
        f"report written to {out}"
    )
    for key, stats in report.error_by_p_prime().items():
        print(
            f"  {key[0]} p'={key[1]}: mean |error| {stats['mean']:.6g}, "
            f"median {stats['median']:.6g} (n={stats['n']})"
        )


def _cmd_report(config, fixture, out, pool, held):
    h = config.config_hash()
    name = "posterior_marginal" if (out / "posterior_marginal.json").exists() else "posterior_main"
    posterior = artifacts.load_posterior(out, name, h)
    estimates = posterior_target_estimates(posterior, config.targets)
    projector = artifacts.load_projector(out, h, stat_dim=fixture.simulator.stat_dim)
    rows = []
    for target in config.targets:
        try:
            oracle = float(fixture.oracle.target_mean(target))
        except NotImplementedError:
            oracle = None
        est = estimates[target.name]
        error = abs(est["estimate"] - oracle) if oracle is not None else None
        rows.append({"target": target.name, **est, "oracle": oracle, "abs_error": error})
    artifacts.save_report_table(out, rows)
    print(f"posterior: {name} (n={posterior.n}, epsilon={posterior.epsilon:.6g})")
    print(
        f"{'target':<16}{'estimate':>14}{'oracle':>14}{'abs error':>14}{'mc sd':>12}"
        f"{'adj. expect.':>14}{'adj. sd':>12}"
    )
    # beside each ABC estimate, the Bayes linear one under the truncated
    # prior: the projector's adjusted expectation at s_obs and adjusted sd
    expectations = project(projector, fixture.s_obs)
    for r, expectation, mss in zip(rows, expectations, projector.residual_mss):
        oracle_s = f"{r['oracle']:.6g}" if r["oracle"] is not None else "-"
        err_s = f"{r['abs_error']:.6g}" if r["abs_error"] is not None else "-"
        print(
            f"{r['target']:<16}{r['estimate']:>14.6g}{oracle_s:>14}{err_s:>14}"
            f"{r['mc_sd']:>12.3g}{expectation:>14.6g}{mss**0.5:>12.3g}"
        )


# Every command takes (config, fixture, out, pool, held): `pool` is the run's
# `engine.worker_pool`, None when it runs serially. `held` maps PipelineResult
# field names to stage outputs already computed: `infer --full` fills it from
# one run_semiauto call, so its four stages only write; a chained stage finds it
# empty, reloads its inputs from `out` and computes its own outputs.
_COMMANDS = {
    "simulate": _cmd_simulate,
    "pilot": _cmd_pilot,
    "construct": _cmd_construct,
    "infer": _cmd_infer,
    "marginal": _cmd_marginal,
    "experiment": _cmd_experiment,
    "report": _cmd_report,
}
# the chained stages, in the order `infer --full` writes them
_STAGES = ("simulate", "pilot", "construct", "infer")


def main(argv=None) -> int:
    parser = _build_parser()
    code = 0
    try:
        args = parser.parse_args(argv)
        config, out = _resolve(args)
        fixture = build_fixture(config)
        # before any stage writes
        targets_from_specs(config.targets, fixture.simulator.param_dim)
        # experiment checks its basis fits itself and records each failing cell
        if args.command != "experiment":
            check_draw_counts(config, fixture.simulator.stat_dim)
        with worker_pool(args.threads) as pool:
            stages, held = (args.command,), {}
            if getattr(args, "full", False):
                stages, held = _STAGES, vars(run_semiauto(config, fixture, pool=pool))
            for name in stages:
                _COMMANDS[name](config, fixture, out, pool, held)
    except (ConfigError, ArtifactError) as exc:
        # every command checks its inputs before it writes, and config.json
        # comes last, so a refused command leaves its output directory as it was
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        code = 2
    # echoed without the output path so artifact trees stay byte-identical
    # wherever the run lands
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(serialize_config(replace(config, output_dir=None)))
    return code


if __name__ == "__main__":
    sys.exit(main())
