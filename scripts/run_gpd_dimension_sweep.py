"""Accuracy-vs-target-count study on the GPD exceedance fixture.

For each target count p' the joint strategy regresses all p' posterior
quantile functionals at once and runs ABC in the resulting p'-dimensional
constructed-summary space; errors are measured against the grid-posterior
oracle. The sweep prints the error-vs-p' and condition-number-vs-p'
tables and writes one experiment report per level. A level whose every
cell failed prints its failure count and first failure, and the script
then exits 2 after the last level; an invalid argument exits 1.

Usage: python scripts/run_gpd_dimension_sweep.py [--levels 1 10 50]
       [--replications 20] [--out runs/gpd_sweep] [--seed 4242]
"""

import argparse
import sys

from semiabc import artifacts
from semiabc.errors import ConfigError
from semiabc.experiment import run_experiment
from semiabc.models import gpd_fixture
from semiabc.runconfig import ExperimentConfig, RunConfig, TargetSpec


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

    fixture = gpd_fixture(sigma_true=1.0, xi_true=0.2, n_exceedances=100)

    code = 0
    for level in args.levels:
        taus = tau_ladder(level)
        config = RunConfig(
            model="gpd",
            model_params=fixture.params,
            pilot_m=2000,
            pilot_accept_fraction=0.05,
            construct_m=5000,
            main_m=args.main_m,
            main_accept_fraction=0.02,
            targets=tuple(TargetSpec("gpd_quantile", tau=t) for t in taus),
            regression_adjust=True,
            ridge_lambda=1e-8,
            experiment=ExperimentConfig(strategies=("joint",), replications=args.replications),
            seed=args.seed,
        )
        report = run_experiment(config, fixture, threads=args.threads)
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
        conditions = report.condition_by_p_prime()[("joint", level)]
        print(
            f"p'={level:3d}: median |error| {errors['median']:.4f} "
            f"(mean {errors['mean']:.4f}, n={errors['n']}), "
            f"median construction condition {conditions['median']:.3g}, "
            f"{len(report.failures)} failures -> {out}"
        )
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
