import tracemalloc

import numpy as np
import pytest

from semiabc import semiauto
from semiabc.engine import (
    CHUNK,
    SimulationBatch,
    SimulatorContract,
    TruncationRegion,
    derive_seed,
    simulate_batch,
    worker_pool,
)
from semiabc.errors import ConfigError, NumericalError
from semiabc.models import ModelFixture, gaussian_location_fixture, gpd_fixture, make_fixture
from semiabc.regression import BasisSpec, expand_design, fit_linear
from semiabc.runconfig import RunConfig, TargetSpec
from semiabc.semiauto import (
    _BLOCK_BYTES,
    TAG_CONSTRUCT,
    TAG_MAIN,
    TAG_PILOT,
    SummaryProjector,
    _design_blocks,
    build_fixture,
    construct_projector,
    evaluate_targets,
    posterior_target_estimates,
    project,
    project_matrix,
    run_semiauto,
    shared_stages,
    stage_batch,
    targets_from_specs,
)

from bayes_linear import fit_bayes_linear


def make_batch(thetas, stats, seed=0):
    return SimulationBatch(
        thetas=np.asarray(thetas, dtype=np.float64),
        stats=np.asarray(stats, dtype=np.float64),
        seed=seed,
        model_name="test",
        prior_hash="none",
    )


class TestTargets:
    def test_coordinate_spec_is_identity_column(self):
        rng = np.random.default_rng(0)
        thetas = rng.standard_normal((50, 3))
        values = evaluate_targets(thetas, [TargetSpec("coordinate", index=0)])
        np.testing.assert_array_equal(values[:, 0], thetas[:, 0])

    def test_gpd_quantile_closed_form(self):
        thetas = np.array([[1.0, 0.5]])
        values = evaluate_targets(thetas, [TargetSpec("gpd_quantile", tau=0.99)])
        assert values[0, 0] == pytest.approx(18.0)

    def test_gpd_quantile_small_xi_branch(self):
        thetas = np.array([[1.0, 1e-9]])
        values = evaluate_targets(thetas, [TargetSpec("gpd_quantile", tau=0.99)])
        assert values[0, 0] == pytest.approx(4.60517, abs=1e-5)

    def test_column_order_matches_target_order(self):
        thetas = np.array([[1.0, 2.0]])
        values = evaluate_targets(
            thetas, [TargetSpec("coordinate", index=1), TargetSpec("coordinate", index=0)]
        )
        np.testing.assert_array_equal(values, [[2.0, 1.0]])

    def test_non_finite_target_raises_with_name(self):
        # (1 - tau)^(-xi) overflows at xi = 1000
        thetas = np.array([[1.0, 1000.0]])
        with pytest.raises(NumericalError, match="gpd_q0.9"):
            evaluate_targets(thetas, [TargetSpec("gpd_quantile", tau=0.9)])

    def test_specs_to_targets(self):
        targets = targets_from_specs(
            (TargetSpec("coordinate", index=1), TargetSpec("gpd_quantile", tau=0.9)), 2
        )
        assert [t.name for t in targets] == ["theta_1", "gpd_q0.9"]
        with pytest.raises(ConfigError, match="out of range"):
            targets_from_specs((TargetSpec("coordinate", index=5),), 2)


class TestProjector:
    def test_noiseless_identity_recovery(self):
        rng = np.random.default_rng(1)
        thetas = rng.standard_normal((200, 1))
        batch = make_batch(thetas, thetas.copy())
        projector = construct_projector(batch, [TargetSpec("coordinate", index=0)], BasisSpec())
        assert projector.out_dim == 1
        assert projector.coef[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert projector.intercept[0] == pytest.approx(0.0, abs=1e-10)
        assert projector.residual_mss[0] < 1e-20

    def test_exact_affine_fit_scores_zero_residual(self):
        rng = np.random.default_rng(0)
        stats = rng.standard_normal((60, 3))
        coef = np.array([[1.5, -2.0, 0.5], [0.0, 1.0, 3.0]])
        intercept = np.array([0.7, -1.2])
        thetas = intercept + stats @ coef.T
        targets = [TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)]
        projector = construct_projector(make_batch(thetas, stats), targets, BasisSpec())
        scale = np.mean(thetas**2, axis=0)
        assert np.all(projector.residual_mss <= 1e-16 * scale)

    def test_duplicated_targets_give_identical_summaries(self):
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((300, 2))
        stats = thetas @ rng.standard_normal((2, 3)) + 0.1 * rng.standard_normal((300, 3))
        batch = make_batch(thetas, stats)
        targets = [
            TargetSpec("coordinate", index=0),
            TargetSpec("coordinate", index=0),
        ]
        projector = construct_projector(batch, targets, BasisSpec())
        out = project_matrix(projector, stats)
        assert np.max(np.abs(out[:, 0] - out[:, 1])) < 1e-8

    def test_output_dimension_equals_target_count(self):
        rng = np.random.default_rng(3)
        thetas = rng.standard_normal((100, 2))
        stats = rng.standard_normal((100, 4))
        targets = [TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1),
                   TargetSpec("coordinate", index=0)]
        projector = construct_projector(batch := make_batch(thetas, stats), targets, BasisSpec())
        assert projector.out_dim == 3
        assert project(projector, stats[0]).shape == (3,)
        with pytest.raises(ValueError, match="one statistic per target"):
            SummaryProjector(
                basis=BasisSpec(),
                intercept=projector.intercept,
                coef=projector.coef,
                target_names=("just_one",),
                condition_number=1.0,
                vifs=projector.vifs,
                residual_mss=projector.residual_mss,
            )

    def test_noise_columns_get_near_zero_weight(self):
        # sufficient mean + 19 pure-noise statistics; coefficients on noise
        # stay tiny and the mean coefficient matches the fit on the
        # sufficient statistic alone
        rng = np.random.default_rng(4)
        m = 100_000
        thetas = rng.standard_normal((m, 1))
        suff = thetas[:, 0] + 0.5 * rng.standard_normal(m)
        noise = rng.standard_normal((m, 19))
        stats = np.column_stack([suff, noise])
        batch = make_batch(thetas, stats)
        projector = construct_projector(batch, [TargetSpec("coordinate", index=0)], BasisSpec())

        suff_only = fit_bayes_linear(make_batch(thetas, suff[:, None]))
        assert abs(projector.coef[0, 0] - suff_only.coef[0, 0]) < 0.02
        assert np.max(np.abs(projector.coef[0, 1:])) < 0.05

    def test_project_hand_arithmetic(self):
        projector = SummaryProjector(
            basis=BasisSpec(),
            intercept=np.array([0.0]),
            coef=np.array([[0.5, 0.5]]),
            target_names=("t",),
            condition_number=1.0,
            vifs=np.ones(2),
            residual_mss=np.zeros(1),
        )
        assert project(projector, [2.0, 4.0])[0] == pytest.approx(3.0)

    def test_zero_coefficients_return_intercept(self):
        projector = SummaryProjector(
            basis=BasisSpec(),
            intercept=np.array([1.5, -2.0]),
            coef=np.zeros((2, 3)),
            target_names=("a", "b"),
            condition_number=1.0,
            vifs=np.ones(3),
            residual_mss=np.zeros(2),
        )
        np.testing.assert_array_equal(project(projector, [9.0, 9.0, 9.0]), [1.5, -2.0])

    def test_projected_fit_batch_mean_matches_target_mean(self):
        rng = np.random.default_rng(5)
        thetas = rng.standard_normal((500, 2))
        stats = thetas @ rng.standard_normal((2, 4)) + rng.standard_normal((500, 4))
        batch = make_batch(thetas, stats)
        targets = [TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)]
        projector = construct_projector(batch, targets, BasisSpec())
        projected_mean = project_matrix(projector, stats).mean(axis=0)
        target_mean = evaluate_targets(thetas, targets).mean(axis=0)
        np.testing.assert_allclose(projected_mean, target_mean, atol=1e-10)

    def test_json_roundtrip_preserves_projection(self):
        rng = np.random.default_rng(6)
        thetas = rng.standard_normal((100, 1))
        stats = rng.standard_normal((100, 2))
        projector = construct_projector(
            make_batch(thetas, stats),
            [TargetSpec("coordinate", index=0)],
            BasisSpec("polynomial", degree=2),
        )
        clone = SummaryProjector.from_dict(projector.to_dict())
        s = rng.standard_normal(2)
        np.testing.assert_array_equal(project(clone, s), project(projector, s))
        assert clone.projector_id() == projector.projector_id()


def linear_gaussian_batch(m=3000):
    """A batch of the two-parameter `linear_gaussian` model."""
    fixture = make_fixture(
        "linear_gaussian",
        {"p": 2, "d": 3, "coeffs": [[1.0, 0.0], [1.0, 1.0], [0.5, -1.0]], "noise_sd": 1.0,
         "s_obs": [1.0, 2.0, 0.0]},
    )
    return simulate_batch(fixture.prior, fixture.simulator, m, derive_seed(11, TAG_CONSTRUCT))


class TestProjectorRows:
    TARGETS = (TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1))

    def test_rows_of_every_target_project_as_the_whole_projector(self):
        batch = linear_gaussian_batch()
        projector = construct_projector(batch, self.TARGETS, BasisSpec("polynomial", degree=2))
        whole = projector.rows(range(projector.out_dim))
        assert whole.target_names == projector.target_names
        assert whole.projector_id() == projector.projector_id()
        assert (
            project_matrix(whole, batch.stats).tobytes()
            == project_matrix(projector, batch.stats).tobytes()
        )

    def test_a_row_matches_the_fit_of_its_target_alone(self):
        batch = linear_gaussian_batch()
        row = construct_projector(batch, self.TARGETS, BasisSpec()).rows([0])
        alone = construct_projector(batch, self.TARGETS[:1], BasisSpec())
        assert row.target_names == alone.target_names == ("theta_0",)
        assert row.coef.flags.f_contiguous

        def assert_close(a, b):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

        assert_close(row.intercept, alone.intercept)
        assert_close(row.coef, alone.coef)
        assert_close(row.residual_mss, alone.residual_mss)
        assert_close(project_matrix(row, batch.stats), project_matrix(alone, batch.stats))


def assert_blockwise_matches_whole_matrix():
    """`project_matrix`, computed on CHUNK-row design blocks, equals the
    whole-matrix product bit for bit on m = 2 CHUNK + 17 rows, so the last
    block is partial; one target projects by a matrix-vector product, two
    by a matrix product. The construct fit's `residual_mss`, which it takes
    from the R factor of those blocks, agrees with the whole-matrix
    residuals to rounding."""
    rng = np.random.default_rng(12)
    m = 2 * CHUNK + 17
    thetas = rng.uniform(0.5, 2.0, (m, 2))
    stats = thetas @ rng.standard_normal((2, 4)) + 0.3 * rng.standard_normal((m, 4))
    basis = BasisSpec("polynomial", degree=2)
    design = expand_design(stats, basis)
    quantile = TargetSpec("gpd_quantile", tau=0.9)
    for targets in ([quantile], [TargetSpec("coordinate", index=0), quantile]):
        projector = construct_projector(make_batch(thetas, stats), targets, basis)

        whole = projector.intercept + design @ projector.coef.T
        assert project_matrix(projector, stats).tobytes() == whole.tobytes()

        resid = evaluate_targets(thetas, targets) - projector.intercept - design @ projector.coef.T
        np.testing.assert_allclose(projector.residual_mss, (resid**2).sum(axis=0) / m, rtol=1e-9)


class TestBlockwiseDesign:
    def test_matches_whole_matrix_bitwise(self):
        assert_blockwise_matches_whole_matrix()

    def test_matches_whole_matrix_bitwise_on_one_blas_thread(self):
        with worker_pool(1):
            assert_blockwise_matches_whole_matrix()

    def test_construct_fit_holds_under_three_block_designs(self):
        # a degree-3 basis of 13 statistics has 559 columns; the whole
        # 3 CHUNK-row design would be three block designs
        rng = np.random.default_rng(14)
        m, q = 3 * CHUNK, 559
        thetas = rng.uniform(0.5, 1.5, (m, 2))
        stats = np.hstack([thetas, rng.uniform(0.5, 1.5, (m, 11))])
        batch = make_batch(thetas, stats)
        targets = [TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)]
        tracemalloc.start()
        try:
            projector = construct_projector(
                batch, targets, BasisSpec("polynomial", degree=3), ridge_lambda=1e-8
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert projector.coef.shape == (2, q)
        assert peak < 3 * CHUNK * q * 8

    def test_construct_fit_expands_each_row_once(self, monkeypatch):
        # 2 CHUNK + 17 GPD draws under a degree-2 basis (104 columns): two
        # full blocks and a partial one, read by the fit in one pass
        fixture = gpd_fixture()
        batch = simulate_batch(fixture.prior, fixture.simulator, 2 * CHUNK + 17, seed=7)
        expanded = []

        def counting_expand_design(stats, basis):
            expanded.append(stats.shape[0])
            return expand_design(stats, basis)

        monkeypatch.setattr(semiauto, "expand_design", counting_expand_design)
        construct_projector(
            batch, [TargetSpec("coordinate", index=0)], BasisSpec("polynomial", degree=2)
        )
        assert sum(expanded) == batch.m

    def test_project_matrix_holds_under_two_block_designs(self):
        # a degree-3 basis of 13 statistics has 559 columns: the whole
        # 20000-row design would be 89 MB, one CHUNK-row block 18 MB
        rng = np.random.default_rng(13)
        stats = rng.uniform(0.5, 1.5, (20_000, 13))
        q = 559
        projector = SummaryProjector(
            basis=BasisSpec("polynomial", degree=3),
            intercept=np.zeros(2),
            coef=rng.standard_normal((2, q)),
            target_names=("a", "b"),
            condition_number=1.0,
            vifs=np.ones(q),
            residual_mss=np.zeros(2),
        )
        tracemalloc.start()
        try:
            out = project_matrix(projector, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (20_000, 2)
        assert peak < 2 * CHUNK * q * 8


CUBIC = BasisSpec("polynomial", degree=3)  # 559 columns of 13 statistics


def cubic_projector(rng, n_targets):
    q = CUBIC.width(13)
    return SummaryProjector(
        basis=CUBIC,
        intercept=rng.standard_normal(n_targets),
        coef=rng.standard_normal((n_targets, q)),
        target_names=tuple(f"t{j}" for j in range(n_targets)),
        condition_number=1.0,
        vifs=np.ones(q),
        residual_mss=np.zeros(n_targets),
    )


def assert_wide_blockwise_matches_whole_matrix():
    """At q = 559 a design block has fewer than CHUNK rows; `project_matrix`
    on such blocks, on m rows that make three full blocks and a partial
    fourth, agrees with the whole-matrix product for one target (a
    matrix-vector product) and for two (a matrix product).

    Not bit for bit: OpenBLAS sums a row of a product in an order that
    depends on where the row falls in its operand (the tail rows of an
    unrolled loop, a small-matrix kernel for a short block, the split
    between BLAS threads), so the two may differ in the last bits of an
    entry, as they did with 4096-row blocks. The bound is q eps times the
    sum of the entry's |terms|, twice the first-order error bound of one
    summation order; a row out of place would miss it by far.
    """
    rng = np.random.default_rng(15)
    q = CUBIC.width(13)
    step = _BLOCK_BYTES // (8 * q)
    stats = rng.uniform(0.5, 1.5, (3 * step + 17, 13))
    design = expand_design(stats, CUBIC)
    for n_targets in (1, 2):
        projector = cubic_projector(rng, n_targets)
        whole = projector.intercept + design @ projector.coef.T
        bound = q * np.finfo(np.float64).eps * (np.abs(design) @ np.abs(projector.coef.T))
        got = project_matrix(projector, stats)
        assert got.shape == whole.shape
        assert np.all(np.abs(got - whole) <= bound)


class TestByteSizedBlocks:
    @pytest.mark.parametrize("basis, d", [
        (BasisSpec(), 20),
        (BasisSpec("polynomial", degree=2), 13),  # 104 columns
        (BasisSpec("polynomial", degree=1), 256),
    ])
    def test_bases_up_to_256_columns_keep_chunk_rows(self, basis, d):
        stats = np.ones((2 * CHUNK + 5, d))
        sizes = [block.shape[0] for _, block in _design_blocks(stats, basis)]
        assert sizes == [CHUNK, CHUNK, 5]

    def test_a_559_column_block_holds_at_most_the_byte_cap(self):
        stats = np.ones((CHUNK, 13))
        blocks = list(_design_blocks(stats, CUBIC))
        assert len(blocks) == 3
        assert all(block.nbytes <= _BLOCK_BYTES for _, block in blocks)
        assert blocks[0][1].shape == (_BLOCK_BYTES // (8 * 559), 559)
        assert [rows.start for rows, _ in blocks] == [0, 1875, 3750]
        assert np.concatenate([block for _, block in blocks]).tobytes() == (
            expand_design(stats, CUBIC).tobytes()
        )

    def test_wide_projection_matches_whole_matrix(self):
        assert_wide_blockwise_matches_whole_matrix()

    def test_wide_projection_matches_whole_matrix_on_one_blas_thread(self):
        with worker_pool(1):
            assert_wide_blockwise_matches_whole_matrix()

    def test_streamed_wide_fit_matches_the_one_block_fit(self):
        # monomials of standard normals: the centred design's condition
        # number is about 20, so the two R factors' rounding stays small
        rng = np.random.default_rng(16)
        stats = rng.standard_normal((4000, 13))
        design = expand_design(stats, CUBIC)
        y = design @ rng.standard_normal((559, 2)) + rng.standard_normal((4000, 2))
        streamed = fit_linear(_design_blocks(stats, CUBIC), y)
        whole = fit_linear(design, y)
        assert len(list(_design_blocks(stats, CUBIC))) == 3
        for field in ("intercept", "coef", "vifs", "residual_mss", "condition_number"):
            np.testing.assert_allclose(
                getattr(streamed, field), getattr(whole, field), rtol=1e-10, err_msg=field
            )

    def test_degree_3_construct_fit_peak_under_30_mb(self):
        # 3 CHUNK rows of 13 statistics; 4096-row blocks made the QR of
        # [R; block] hold about 48 MB here
        rng = np.random.default_rng(14)
        m = 3 * CHUNK
        thetas = rng.uniform(0.5, 1.5, (m, 2))
        stats = np.hstack([thetas, rng.uniform(0.5, 1.5, (m, 11))])
        batch = make_batch(thetas, stats)
        targets = [TargetSpec("coordinate", index=0), TargetSpec("coordinate", index=1)]
        tracemalloc.start()
        try:
            construct_projector(batch, targets, CUBIC, ridge_lambda=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6

    def test_degree_3_projection_peak_under_two_block_caps(self):
        # one 4096-row block of 559 columns alone is 18.3 MB, and with the
        # expansion's tile buffer the peak was 24.4 MB
        rng = np.random.default_rng(13)
        stats = rng.uniform(0.5, 1.5, (20_000, 13))
        projector = cubic_projector(rng, 2)
        tracemalloc.start()
        try:
            project_matrix(projector, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _BLOCK_BYTES


def gaussian_config(**over):
    base = dict(
        model="gaussian_location",
        model_params={"n_noise_stats": 2},
        pilot_m=2000,
        pilot_accept_fraction=0.05,
        construct_m=4000,
        main_m=20_000,
        main_accept_fraction=0.01,
        targets=(TargetSpec("coordinate", index=0),),
        seed=17,
    )
    base.update(over)
    return RunConfig(**base)


class TestPipeline:
    def test_gaussian_posterior_mean_near_oracle(self):
        config = gaussian_config(regression_adjust=True)
        result = run_semiauto(config)
        est = result.estimates["theta_0"]
        assert abs(est["estimate"] - 0.8) < 3 * est["mc_sd"]

    def test_degenerate_pilot_completes(self):
        config = gaussian_config(pilot_accept_fraction=1.0, main_m=5000)
        result = run_semiauto(config)
        # region is then the bounding box of the whole pilot sample
        thetas, region = result.pilot_batch.thetas, result.region
        assert np.all((region.lo <= thetas) & (thetas <= region.hi))
        assert result.posterior.n == 50

    def test_end_to_end_determinism(self):
        config = gaussian_config(main_m=5000)
        a = run_semiauto(config)
        b = run_semiauto(config)
        np.testing.assert_array_equal(a.posterior.thetas, b.posterior.thetas)
        np.testing.assert_array_equal(a.region.lo, b.region.lo)
        assert a.estimates == b.estimates
        with worker_pool(4) as pool:
            c = run_semiauto(config, pool=pool)
        np.testing.assert_array_equal(a.posterior.thetas, c.posterior.thetas)

    def test_monotone_affine_statistic_invariance(self):
        config = gaussian_config(main_m=5000)
        fixture = gaussian_location_fixture(n_noise_stats=2)
        base = run_semiauto(config, fixture)

        # strictly increasing affine map on statistic column 0
        a, b = 2.5, -3.0
        inner = fixture.simulator.simulate

        def mapped(thetas, rng):
            stats = inner(thetas, rng)
            stats = stats.copy()
            stats[:, 0] = a * stats[:, 0] + b
            return stats

        mapped_fixture = ModelFixture(
            simulator=SimulatorContract(
                name=fixture.simulator.name,
                param_dim=fixture.simulator.param_dim,
                stat_dim=fixture.simulator.stat_dim,
                simulate=mapped,
            ),
            prior=fixture.prior,
            observed_data=fixture.observed_data,
            s_obs=np.concatenate([[a * fixture.s_obs[0] + b], fixture.s_obs[1:]]),
            oracle=fixture.oracle,
            params=fixture.params,
        )
        transformed = run_semiauto(config, mapped_fixture)
        np.testing.assert_array_equal(
            base.pilot_posterior.accepted_indices,
            transformed.pilot_posterior.accepted_indices,
        )
        np.testing.assert_array_equal(
            base.posterior.accepted_indices, transformed.posterior.accepted_indices
        )

    def test_estimates_report_mc_sd(self):
        config = gaussian_config(main_m=5000)
        result = run_semiauto(config)
        est = result.estimates["theta_0"]
        assert est["mc_sd"] > 0
        # uniform weights: mc sd is sd/sqrt(n)
        targets = targets_from_specs(config.targets, 1)
        redo = posterior_target_estimates(result.posterior, targets)
        assert redo == result.estimates

    def test_held_shared_stages_change_no_bit(self):
        config = gaussian_config(main_m=5000, regression_adjust=True)
        fixture = build_fixture(config)
        held = shared_stages(config, fixture)
        assert set(held) == {
            "pilot_batch", "pilot_posterior", "region", "construct_batch", "projector",
            "main_batch",
        }
        fresh = run_semiauto(config, fixture)
        given = run_semiauto(config, fixture, held=held)
        assert all(getattr(given, name) is held[name] for name in held)
        for a, b in zip(pipeline_arrays(fresh), pipeline_arrays(given)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStageBatch:
    @pytest.mark.parametrize("construct_m", [3000, None])
    def test_each_batch_is_its_tagged_simulation(self, construct_m):
        config = gaussian_config(construct_m=construct_m, main_m=5000)
        fixture = build_fixture(config)
        region = TruncationRegion(lo=np.array([-0.5]), hi=np.array([1.5]))
        cases = [
            ("pilot_batch", None, config.pilot_m, TAG_PILOT),
            # construct.m unset: the construct batch is as large as the pilot's
            ("construct_batch", region, construct_m or config.pilot_m, TAG_CONSTRUCT),
            ("main_batch", region, config.main_m, TAG_MAIN),
        ]
        for name, box, m, tag in cases:
            prior = fixture.prior if box is None else fixture.prior.truncated(box)
            want = simulate_batch(prior, fixture.simulator, m, derive_seed(config.seed, tag))
            with worker_pool(2) as pool:
                got = stage_batch(config, fixture, name, box, pool=pool)
            assert got.m == m
            assert got.thetas.tobytes() == want.thetas.tobytes()
            assert got.stats.tobytes() == want.stats.tobytes()
            assert (got.seed, got.prior_hash) == (want.seed, want.prior_hash)


def pipeline_arrays(result):
    """The batches, region, projector coefficients and posterior draws of a run."""
    return (
        result.pilot_batch.thetas, result.pilot_batch.stats,
        result.region.lo, result.region.hi,
        result.construct_batch.thetas, result.construct_batch.stats,
        result.projector.coef,
        result.main_batch.thetas, result.main_batch.stats,
        result.posterior.thetas,
    )
