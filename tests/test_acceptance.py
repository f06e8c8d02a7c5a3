"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every tolerance is pinned here. Statistical criteria are fully seeded and
therefore deterministic; runtime ceilings are asserted with the generous
margins they were stated with.
"""

import math
import time

import numpy as np

from semiabc.cli import main
from semiabc.engine import (
    SimulationBatch,
    derive_seed,
    ndtr,
    regression_adjust,
    rejection_abc,
    simulate_batch,
)
from semiabc.experiment import run_experiment
from semiabc.marginal import estimate_marginal, marginal_remap
from semiabc.models import (
    gaussian_location_fixture,
    gpd_fixture,
    linear_gaussian_fixture,
)
from semiabc.regression import fit_linear
from semiabc.runconfig import ExperimentConfig, RunConfig, TargetSpec
from semiabc.semiauto import run_semiauto

from bayes_linear import (
    adjusted_expectation,
    adjusted_variance,
    criterion_value,
    fit_bayes_linear,
    from_moments,
)


def report_line(number: int, ok: bool, message: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {number} {status}: {message}")


def make_batch(thetas, stats, seed=0):
    return SimulationBatch(
        thetas=np.asarray(thetas, dtype=np.float64),
        stats=np.asarray(stats, dtype=np.float64),
        seed=seed,
        model_name="test",
        prior_hash="none",
    )


LG_PARAMS = dict(
    p=2, d=2, coeffs=[[1.0, 0.0], [1.0, 1.0]], noise_sd=1.0, s_obs=[1.0, 2.0]
)


def test_criterion_1_bayes_linear_exactness():
    start = time.time()
    fixture = linear_gaussian_fixture(**LG_PARAMS)
    exact_mean = fixture.oracle.mean

    analytic = from_moments(**fixture.oracle.moments)
    analytic_err = float(
        np.max(np.abs(adjusted_expectation(analytic, fixture.s_obs) - exact_mean))
    )

    batch = simulate_batch(fixture.prior, fixture.simulator, 100_000, seed=101)
    fitted = fit_bayes_linear(batch)
    mc_err = float(
        np.max(np.abs(adjusted_expectation(fitted, fixture.s_obs) - exact_mean))
    )
    elapsed = time.time() - start

    ok = analytic_err < 1e-8 and mc_err < 0.02 and elapsed < 10.0
    report_line(
        1,
        ok,
        "Bayes linear exactness under joint Gaussianity: analytic-moment error "
        f"{analytic_err:.2e} (< 1e-8), estimated-moment error {mc_err:.4f} "
        f"(< 0.02 at M=1e5), {elapsed:.1f}s (< 10s)",
    )
    assert ok


def test_criterion_2_monte_carlo_equals_ols():
    start = time.time()
    worst = 0.0
    rng = np.random.default_rng(202)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        d = int(rng.integers(1, 11))
        m = 500
        thetas = rng.standard_normal((m, p))
        stats = thetas @ rng.standard_normal((p, d)) + rng.standard_normal((m, d))
        batch = make_batch(thetas, stats)
        model = fit_bayes_linear(batch)
        ols = fit_linear(batch.stats, batch.thetas, ridge_lambda=0.0)
        worst = max(
            worst,
            float(np.max(np.abs(model.coef - ols.coef))),
            float(np.max(np.abs(model.intercept - ols.intercept))),
        )
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report_line(
        2,
        ok,
        "moment-based fit coincides with least squares on 100 random batches: "
        f"max |diff| {worst:.2e} (< 1e-8), {elapsed:.1f}s (< 10s)",
    )
    assert ok


def test_criterion_3_criterion_optimality():
    start = time.time()
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        p = int(rng.integers(1, 3))
        d = int(rng.integers(1, 5))
        thetas = rng.standard_normal((300, p))
        stats = thetas @ rng.standard_normal((p, d)) + rng.standard_normal((300, d))
        batch = make_batch(thetas, stats)
        model = fit_bayes_linear(batch)
        best = criterion_value(model.intercept, model.coef, batch)
        for _ in range(100):
            da = 0.05 * rng.standard_normal(p)
            db = 0.05 * rng.standard_normal((p, d))
            if criterion_value(model.intercept + da, model.coef + db, batch) <= best:
                failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 5.0
    report_line(
        3,
        ok,
        "fitted estimator beats all 100 random perturbations on each of 20 "
        f"seeded batches: {failures} losses, {elapsed:.1f}s (< 5s)",
    )
    assert ok


def test_criterion_4_constructed_summary_beats_raw_rejection():
    start = time.time()
    # sample mean is sufficient for the location; the sample sd and the 18
    # pure-noise columns are all uninformative, so the raw vector carries
    # 1 sufficient + 19 noise statistics (d = 20)
    fixture = gaussian_location_fixture(
        mu0=0.0, tau0=1.0, sigma=1.0, n=4, xbar_obs=1.0, n_noise_stats=18
    )
    oracle_mean = fixture.oracle.post_mean
    config = RunConfig(
        model="gaussian_location",
        model_params={"n_noise_stats": 18},
        pilot_m=10_000,
        pilot_accept_fraction=0.05,
        construct_m=10_000,
        main_m=100_000,
        main_accept_fraction=0.01,
        targets=(TargetSpec("coordinate", index=0),),
        seed=0,
    )
    wins = 0
    replicates = 50
    for r in range(replicates):
        run_seed = 1000 + r
        result = run_semiauto(config.with_seed(run_seed), fixture)
        semiauto_err = abs(result.estimates["theta_0"]["estimate"] - oracle_mean)

        raw_batch = simulate_batch(
            fixture.prior, fixture.simulator, 100_000, seed=derive_seed(run_seed, 99)
        )
        raw_post = rejection_abc(raw_batch, fixture.s_obs, fraction=0.01)
        raw_err = abs(float(raw_post.thetas.mean(axis=0)[0]) - oracle_mean)
        wins += semiauto_err < raw_err
    elapsed = time.time() - start
    ok = wins >= 0.8 * replicates and elapsed < 180.0
    report_line(
        4,
        ok,
        "single constructed summary beats 20-d raw rejection at matched "
        f"acceptance counts in {wins}/{replicates} replicates (>= 40), "
        f"{elapsed:.0f}s (< 180s)",
    )
    assert ok


def test_criterion_5_regression_adjustment_oracle():
    start = time.time()
    fixture = linear_gaussian_fixture(**LG_PARAMS)
    oracle_mean = fixture.oracle.mean
    wins = 0
    replicates = 50
    for r in range(replicates):
        batch = simulate_batch(fixture.prior, fixture.simulator, 2000, seed=5000 + r)
        post = rejection_abc(batch, fixture.s_obs, fraction=0.5)
        adjusted = regression_adjust(
            post, batch.stats[post.accepted_indices], fixture.s_obs
        )
        before = float(np.linalg.norm(post.thetas.mean(axis=0) - oracle_mean))
        after = float(np.linalg.norm(adjusted.thetas.mean(axis=0) - oracle_mean))
        wins += after < before
    elapsed = time.time() - start
    ok = wins >= 0.9 * replicates and elapsed < 60.0
    report_line(
        5,
        ok,
        "linear adjustment of a loose (fraction 0.5) acceptance lands closer "
        f"to the exact posterior mean in {wins}/{replicates} replicates (>= 45), "
        f"{elapsed:.0f}s (< 60s)",
    )
    assert ok


def _ks_to_cdf(sample, cdf_values_fn):
    x = np.sort(sample)
    n = x.shape[0]
    f = cdf_values_fn(x)
    grid = np.arange(n)
    return float(np.max(np.maximum(f - grid / n, (grid + 1) / n - f)))


def _rank_matrix(thetas):
    return np.argsort(np.argsort(thetas, axis=0, kind="stable"), axis=0, kind="stable")


def test_criterion_6_marginal_adjustment():
    start = time.time()
    # correlated 2-d posterior; 10 pure-noise statistics make the joint
    # 12-d comparison weakly informative while per-coordinate constructed
    # (regression-adjusted) summaries stay sharp
    n_noise = 10
    coeffs = [[1.0, 0.0], [1.0, 1.0]] + [[0.0, 0.0]] * n_noise
    params = dict(
        p=2, d=2 + n_noise, coeffs=coeffs, noise_sd=1.0,
        s_obs=[1.0, 2.0] + [0.0] * n_noise,
    )
    fixture = linear_gaussian_fixture(**params)
    config = RunConfig(
        model="linear_gaussian",
        model_params=params,
        pilot_m=2000,
        pilot_accept_fraction=0.1,
        construct_m=3000,
        main_m=40_000,
        main_accept_fraction=0.01,
        regression_adjust=True,
        targets=(TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)),
        seed=0,
    )

    replicates = 50
    ks_wins = 0
    rank_preserved = 0
    for r in range(replicates):
        run_seed = 7000 + r
        joint_batch = simulate_batch(
            fixture.prior, fixture.simulator, 20_000, seed=derive_seed(run_seed, 98)
        )
        joint = rejection_abc(joint_batch, fixture.s_obs, fraction=0.02)
        marginals = estimate_marginal(config.with_seed(run_seed), fixture)
        remapped = marginal_remap(joint, marginals)

        improved = True
        for i in range(2):
            sd = math.sqrt(float(fixture.oracle.cov[i, i]))
            cdf = lambda x, i=i, sd=sd: ndtr((x - fixture.oracle.mean[i]) / sd)
            before = _ks_to_cdf(joint.thetas[:, i], cdf)
            after = _ks_to_cdf(remapped.thetas[:, i], cdf)
            improved &= after <= before
        ks_wins += improved
        rank_preserved += np.array_equal(
            _rank_matrix(joint.thetas), _rank_matrix(remapped.thetas)
        )
    elapsed = time.time() - start
    ok = (
        ks_wins >= 0.9 * replicates
        and rank_preserved == replicates
        and elapsed < 120.0
    )
    report_line(
        6,
        ok,
        f"margin replacement improves both KS distances in {ks_wins}/{replicates} "
        f"replicates (>= 45) and preserves the rank matrix in "
        f"{rank_preserved}/{replicates} (= 50), {elapsed:.0f}s (< 120s)",
    )
    assert ok


def test_criterion_7_large_target_count_study():
    start = time.time()
    taus_by_level = {
        1: (0.9,),
        10: tuple(round(0.5 + 0.05 * k, 2) for k in range(10)),  # 0.5 .. 0.95
        50: tuple(round(0.5 + 0.01 * k, 2) for k in range(50)),  # 0.5 .. 0.99
    }
    assert all(0.9 in taus for taus in taus_by_level.values())
    params = {"sigma_true": 1.0, "xi_true": 0.2, "n_exceedances": 100}
    fixture = gpd_fixture(**params)

    replicates = 20

    def config_for(taus, strategy):
        return RunConfig(
            model="gpd",
            model_params=params,
            pilot_m=2000,
            pilot_accept_fraction=0.05,
            construct_m=5000,
            main_m=20_000,
            main_accept_fraction=0.02,
            targets=tuple(TargetSpec("gpd_quantile", tau=t) for t in taus),
            regression_adjust=True,
            ridge_lambda=1e-8,
            experiment=ExperimentConfig(strategies=(strategy,), replications=replicates),
            seed=4242,
        )

    reports = {}
    for level, taus in taus_by_level.items():
        reports[level] = run_experiment(config_for(taus, "joint"), fixture)

    separate_report = run_experiment(config_for((0.9,), "separate"), fixture)

    # tables must exist, with every cell populated
    no_failures = all(not rep.failures for rep in reports.values())
    error_table = {}
    condition_table = {}
    for level, rep in reports.items():
        error_table.update(rep.error_by_p_prime())
        condition_table.update(rep.adjustment_condition_by_p_prime())
    tables_ok = (
        {("joint", 1), ("joint", 10), ("joint", 50)} == set(error_table)
        and set(condition_table) == set(error_table)
        and all(v["n"] == 20 * level for (s, level), v in error_table.items())
    )

    # separate-singleton strategy reproduces the single-target joint run
    # bit for bit at matched seeds
    joint_single = {r.replicate: r for r in reports[1].rows}
    sep_rows = {r.replicate: r for r in separate_report.rows}
    bitwise_ok = joint_single.keys() == sep_rows.keys() and all(
        sep_rows[k].estimate == joint_single[k].estimate
        and sep_rows[k].epsilon == joint_single[k].epsilon
        for k in joint_single
    )

    # directional outcome for the shared target, reported not asserted
    fixed = "gpd_q0.9"
    medians = {}
    for level, rep in reports.items():
        errs = [r.abs_error for r in rep.rows if r.target == fixed]
        medians[level] = float(np.median(errs))
    direction = (
        "non-decreasing" if medians[1] <= medians[10] <= medians[50] else "mixed"
    )

    elapsed = time.time() - start
    ok = tables_ok and bitwise_ok and no_failures and elapsed < 900.0
    report_line(
        7,
        ok,
        f"error-vs-p' and condition-vs-p' tables produced for p' in (1, 10, 50); "
        f"median |error| for {fixed}: "
        f"{medians[1]:.3f} / {medians[10]:.3f} / {medians[50]:.3f} ({direction}, "
        "reported only); separate singletons reproduce joint p'=1 bit-for-bit: "
        f"{bitwise_ok}; {elapsed:.0f}s (< 900s)",
    )
    print("  error by p':", {k: round(v["median"], 4) for k, v in error_table.items()})
    print(
        "  adjustment condition by p':",
        {k: f"{v['median']:.3g}" for k, v in condition_table.items()},
    )
    assert ok


def test_criterion_8_pipeline_determinism(tmp_path):
    start = time.time()
    import json

    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "model": {"name": "gaussian_location", "params": {"n_noise_stats": 2}},
                "pilot": {"m": 2000, "accept_fraction": 0.1},
                "construct": {"m": 2000},
                "main": {"m": 10000, "accept_fraction": 0.02},
                "targets": [{"kind": "coordinate", "index": 0}],
                "adjust": {"regression": True},
                "seed": 88,
            }
        )
    )

    def run(out, threads):
        code = main(
            ["infer", "--full", "--config", str(config_path), "--out", str(out),
             "--threads", str(threads)]
        )
        assert code == 0
        code = main(
            ["marginal", "--config", str(config_path), "--out", str(out),
             "--threads", str(threads)]
        )
        assert code == 0
        return {
            p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    first = run(tmp_path / "a", 1)
    second = run(tmp_path / "b", 1)
    threaded = run(tmp_path / "c", 8)
    elapsed = time.time() - start
    ok = first == second == threaded and elapsed < 120.0
    report_line(
        8,
        ok,
        "full pipeline re-runs (including marginal adjustment) are byte-identical "
        f"across runs and at 1 vs 8 threads, {elapsed:.0f}s (< 120s)",
    )
    assert ok


def test_criterion_9_discrete_abc_oracle():
    start = time.time()
    # two-point toy: theta in {0,1} equally weighted, statistic = theta
    rng = np.random.default_rng(99)
    thetas = rng.integers(0, 2, 64).astype(np.float64)[:, None]
    batch = make_batch(thetas, thetas.copy(), seed=9)
    post = rejection_abc(batch, [1.0], epsilon=0.0, scales=[1.0])

    # brute-force enumeration of the exact zero-tolerance ABC posterior:
    # uniform over every draw whose statistic equals the observation
    expected_idx = np.nonzero(thetas[:, 0] == 1.0)[0]
    expected_weights = np.full(expected_idx.shape[0], 1.0 / expected_idx.shape[0])
    elapsed = time.time() - start
    ok = (
        np.array_equal(post.accepted_indices, expected_idx)
        and np.array_equal(post.thetas[:, 0], thetas[expected_idx, 0])
        and np.array_equal(post.weights, expected_weights)
        and post.epsilon == 0.0
        and elapsed < 1.0
    )
    report_line(
        9,
        ok,
        "zero-tolerance rejection on the two-point toy matches brute-force "
        f"enumeration exactly ({expected_idx.size} of 64 draws), {elapsed:.2f}s (< 1s)",
    )
    assert ok


def test_criterion_10_adjusted_draws_carry_the_bayes_linear_moments():
    # Nott, Fan, Marshall and Sisson (JCGS 2014): the mean and covariance of
    # regression-adjusted draws are the adjusted expectation and adjusted
    # variance of the Bayes linear fit to the draws the adjustment read
    start = time.time()
    worst = 0.0
    for number, fixture in enumerate((linear_gaussian_fixture(**LG_PARAMS), gpd_fixture())):
        batch = simulate_batch(fixture.prior, fixture.simulator, 20_000, seed=1000 + number)
        for fraction in (1.0, 0.1):
            post = rejection_abc(batch, fixture.s_obs, fraction=fraction)
            stats = batch.stats[post.accepted_indices]
            adjusted = regression_adjust(post, stats, fixture.s_obs, ridge_lambda=0.0)
            model = fit_bayes_linear(make_batch(post.thetas, stats))
            mean = adjusted_expectation(model, fixture.s_obs)
            cov = adjusted_variance(model)
            mean_err = np.max(np.abs(adjusted.thetas.mean(axis=0) - mean) / np.abs(mean))
            cov_err = np.max(np.abs(np.cov(adjusted.thetas, rowvar=False, ddof=1) - cov))
            worst = max(worst, float(mean_err), float(cov_err / np.max(np.abs(cov))))
    elapsed = time.time() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report_line(
        10,
        ok,
        "regression-adjusted draws carry the adjusted expectation and variance of "
        "the Bayes linear fit to the accepted draws (linear-Gaussian and GPD, "
        f"fractions 1.0 and 0.1, ridge 0): worst relative gap {worst:.1e} (<= 1e-12), "
        f"{elapsed:.1f}s (< 10s)",
    )
    assert ok
