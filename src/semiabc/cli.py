"""Command-line interface: stage-by-stage or end-to-end pipeline runs.

Subcommands: simulate | pilot | construct | infer | marginal | experiment
| report. A chained stage reloads the previous stage's artifacts from the
output directory and refuses inputs whose config hash differs from the
current run. `infer --full` computes all four stages with one
`run_semiauto` call and then writes them through the same four stage
commands, so both paths write the same bytes; with `adjust.marginal` set
it then runs `marginal` on the joint posterior it holds. Exit codes: 0
success, 1 validation error, 2 numerical failure.
`--threads` affects speed only, never any computed value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import artifacts
from .errors import ArtifactError, ConfigError, NumericalError
from .experiment import run_experiment
from .marginal import estimate_marginal, marginal_remap
from .runconfig import RunConfig, parse_config, serialize_config
from .semiauto import (
    build_fixture,
    posterior_target_estimates,
    run_semiauto,
    stage_construct,
    stage_infer,
    stage_pilot,
    stage_pilot_batch,
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
                           help="run simulate, pilot, construct and infer in one invocation, "
                                "then marginal when adjust.marginal is set")
    return parser


def _resolve(args) -> tuple[RunConfig, Path]:
    config = parse_config(args.config)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    out = args.out if args.out is not None else config.output_dir
    if out is None:
        raise ConfigError("no output directory: set 'output_dir' in the config or pass --out")
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    config = replace(config, output_dir=str(out))
    return config, Path(out)


def _cmd_simulate(config, fixture, out, threads, held):
    h = config.config_hash()
    if "pilot_batch" not in held:
        held["pilot_batch"] = stage_pilot_batch(config, fixture, threads=threads)
    batch = held["pilot_batch"]
    artifacts.save_observed(out, fixture, h, config.seed)
    artifacts.save_batch(out, "batch_pilot", batch, h, "simulate")
    print(f"simulate: wrote batch_pilot ({batch.m} draws) to {out}")


def _cmd_pilot(config, fixture, out, threads, held):
    h = config.config_hash()
    if "region" not in held:
        batch = artifacts.load_batch(out, "batch_pilot", h)
        held["pilot_posterior"], held["region"] = stage_pilot(config, fixture, batch)
    accepted = held["pilot_posterior"]
    artifacts.save_posterior(out, "posterior_pilot", accepted, h, "pilot")
    artifacts.save_region(out, held["region"], h, config.seed)
    print(f"pilot: accepted {accepted.n} draws, region written to {out}")


def _cmd_construct(config, fixture, out, threads, held):
    h = config.config_hash()
    if "projector" not in held:
        region = artifacts.load_region(out, h)
        held["construct_batch"], held["projector"] = stage_construct(
            config, fixture, region, threads=threads
        )
    projector = held["projector"]
    artifacts.save_batch(out, "batch_construct", held["construct_batch"], h, "construct")
    artifacts.save_projector(out, projector, h, config.seed)
    print(
        f"construct: projector with {projector.out_dim} summaries "
        f"(condition {projector.condition_number:.3g}) written to {out}"
    )


def _cmd_infer(config, fixture, out, threads, held):
    h = config.config_hash()
    if "posterior" not in held:
        region = artifacts.load_region(out, h)
        projector = artifacts.load_projector(out, h)
        held["main_batch"], held["posterior"] = stage_infer(
            config, fixture, region, projector, threads=threads
        )
    posterior = held["posterior"]
    artifacts.save_batch(out, "batch_main", held["main_batch"], h, "infer")
    stage = "infer+regression_adjust" if config.regression_adjust else "infer"
    artifacts.save_posterior(out, "posterior_main", posterior, h, stage)
    print(
        f"infer: accepted {posterior.n} draws "
        f"(epsilon {posterior.epsilon:.6g}) written to {out}"
    )


def _cmd_marginal(config, fixture, out, threads, held):
    h = config.config_hash()
    joint = held.get("posterior") or artifacts.load_posterior(out, "posterior_main", h)
    marginals = []
    for i in range(fixture.simulator.param_dim):
        marginal = estimate_marginal(i, config, fixture, threads=threads)
        artifacts.save_marginal(out, f"marginal_{i}", marginal, h)
        marginals.append(marginal)
    adjusted = marginal_remap(joint, marginals)
    artifacts.save_posterior(out, "posterior_marginal", adjusted, h, "marginal")
    print(f"marginal: remapped {len(marginals)} margins, posterior written to {out}")


def _cmd_experiment(config, fixture, out, threads, held):
    if config.experiment is None:
        raise ConfigError("config has no 'experiment' section")
    report = run_experiment(config.experiment, config, fixture, threads=threads)
    artifacts.save_experiment_report(out, report, config.config_hash())
    print(
        f"experiment: {len(report.rows)} rows, {len(report.failures)} failures, "
        f"report written to {out}"
    )
    for key, stats in report.error_by_p_prime().items():
        print(
            f"  {key[0]} p'={key[1]}: mean |error| {stats['mean']:.6g}, "
            f"median {stats['median']:.6g} (n={stats['n']})"
        )


def _cmd_report(config, fixture, out, threads, held):
    h = config.config_hash()
    name = "posterior_marginal" if (out / "posterior_marginal.json").exists() else "posterior_main"
    posterior = artifacts.load_posterior(out, name, h)
    targets = targets_from_specs(config.targets, fixture.simulator.param_dim)
    estimates = posterior_target_estimates(posterior, targets)
    rows = []
    for target in targets:
        try:
            oracle_value = float(fixture.oracle.target_mean(target))
        except NotImplementedError:
            oracle_value = None
        est = estimates[target.name]
        rows.append(
            {
                "target": target.name,
                "estimate": est["estimate"],
                "oracle": oracle_value,
                "abs_error": (
                    abs(est["estimate"] - oracle_value) if oracle_value is not None else None
                ),
                "mc_sd": est["mc_sd"],
            }
        )
    artifacts.save_report_table(out, rows)
    print(f"posterior: {name} (n={posterior.n}, epsilon={posterior.epsilon:.6g})")
    print(f"{'target':<16}{'estimate':>14}{'oracle':>14}{'abs error':>14}{'mc sd':>12}")
    for r in rows:
        oracle_s = f"{r['oracle']:.6g}" if r["oracle"] is not None else "-"
        err_s = f"{r['abs_error']:.6g}" if r["abs_error"] is not None else "-"
        print(
            f"{r['target']:<16}{r['estimate']:>14.6g}{oracle_s:>14}{err_s:>14}"
            f"{r['mc_sd']:>12.3g}"
        )


# Every command takes (config, fixture, out, threads, held). `held` maps
# PipelineResult field names to stage outputs already computed: `infer
# --full` fills it from one run_semiauto call, so its four stages only
# write and `marginal` takes the joint posterior from it; a chained stage
# finds it empty, reloads its inputs from `out` and computes its own
# outputs.
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
    try:
        args = parser.parse_args(argv)
        config, out = _resolve(args)
        out.mkdir(parents=True, exist_ok=True)
        # echoed without the output path so artifact trees stay byte-identical
        # wherever the run lands
        (out / "config.json").write_text(serialize_config(replace(config, output_dir=None)))
        fixture = build_fixture(config)
        targets_from_specs(config.targets, fixture.simulator.param_dim)  # before any stage writes
        stages, held = (args.command,), {}
        if getattr(args, "full", False):
            held = vars(run_semiauto(config, fixture, threads=args.threads))
            stages = _STAGES + (("marginal",) if config.marginal_adjust else ())
        for name in stages:
            _COMMANDS[name](config, fixture, out, args.threads, held)
    except (ConfigError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
