"""Accuracy-vs-target-count study on `configs/gpd_quantiles.json`.

For each target count p' the joint strategy regresses all p' posterior
quantile functionals at once and runs ABC in the resulting p'-dimensional
constructed-summary space; errors are measured against the grid-posterior
oracle. The sweep prints the error-vs-p' and adjustment
condition-number-vs-p' tables and writes one experiment report per
level. A level whose every cell failed prints its failure count and
first failure, and the script then exits 2 after the last level; an
invalid argument exits 1. `--threads` n opens one pool of n worker
threads for the whole sweep.

Usage: python scripts/run_gpd_dimension_sweep.py [--levels 1 10 50]
       [--replications 20] [--out runs/gpd_sweep] [--seed 4242]
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from semiabc import artifacts
from semiabc.engine import worker_pool
from semiabc.errors import ConfigError
from semiabc.experiment import run_experiment
from semiabc.runconfig import ExperimentConfig, TargetSpec, parse_config
from semiabc.semiauto import build_fixture

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "gpd_quantiles.json"


def tau_ladder(count: int) -> tuple[float, ...]:
    if count == 1:
        return (0.9,)
    top = 0.95 if count <= 10 else 0.99
    step = (top - 0.5) / (count - 1)
    return tuple(round(0.5 + k * step, 4) for k in range(count))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--levels", type=int, nargs="+", default=[1, 10, 50])
    parser.add_argument("--replications", type=int, default=20)
    parser.add_argument("--out", default="runs/gpd_sweep")
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--main-m", type=int, default=20_000)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    base = parse_config(CONFIG)
    fixture = build_fixture(base)
    with worker_pool(args.threads) as pool:
        return sweep(args, base, fixture, pool)


def sweep(args, base, fixture, pool) -> int:
    """Run and report each level of the sweep on `base`; 2 if one has no rows."""
    code = 0
    for level in args.levels:
        config = replace(
            base,
            targets=tuple(TargetSpec("gpd_quantile", tau=t) for t in tau_ladder(level)),
            main_m=args.main_m,
            experiment=ExperimentConfig(strategies=("joint",), replications=args.replications),
            seed=args.seed,
        )
        report = run_experiment(config, fixture, pool=pool)
        out = f"{args.out}/p{level}"
        artifacts.save_experiment_report(out, report, config.config_hash())
        if not report.rows:
            print(
                f"p'={level:3d}: no rows, {len(report.failures)} failures, "
                f"first: {report.failures[0].message} -> {out}"
            )
            code = 2
            continue

        errors = report.error_by_p_prime()[("joint", level)]
        conditions = report.adjustment_condition_by_p_prime()[("joint", level)]
        print(
            f"p'={level:3d}: median |error| {errors['median']:.4f} "
            f"(mean {errors['mean']:.4f}, n={errors['n']}), "
            f"median adjustment condition {conditions['median']:.3g}, "
            f"{len(report.failures)} failures -> {out}"
        )
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
