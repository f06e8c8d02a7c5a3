"""semiabc: likelihood-free inference with constructed summary statistics.

Core pieces: optimal affine (Bayes linear) estimation of parameters from
statistics, regression-based construction of one summary per target
functional, rejection ABC with optional regression adjustment, marginal
adjustment of joint posterior samples, oracle test models, and a
replicated experiment harness.
"""

from .bayes_linear import (
    BayesLinearModel,
    adjusted_expectation,
    adjusted_variance,
    criterion_value,
    fit_bayes_linear,
    from_moments,
)
from .engine import (
    MarginalPrior,
    PriorSpec,
    SimulationBatch,
    SimulatorContract,
    TruncationRegion,
    WeightedPosterior,
    compute_scales,
    lognormal,
    normal,
    regression_adjust,
    rejection_abc,
    simulate_batch,
    systematic_resample,
    truncation_from_pilot,
    uniform,
)
from .errors import (
    ArtifactError,
    ConfigError,
    NumericalError,
    RankDeficientError,
    SingularMatrixError,
)
from .experiment import ExperimentPlan, ExperimentReport, plan_from_config, run_experiment
from .linalg import sample_cov, sample_mean, solve_spd
from .marginal import MarginalEstimate, estimate_marginal, marginal_remap
from .models import (
    ModelFixture,
    gaussian_location_fixture,
    gpd_fixture,
    linear_gaussian_fixture,
    make_fixture,
)
from .regression import BasisSpec, LinearFit, condition_diagnostics, expand_basis, fit_linear
from .runconfig import RunConfig, TargetSpec, parse_config, parse_config_dict
from .semiauto import (
    SummaryProjector,
    TargetFunctional,
    construct_projector,
    coordinate_target,
    evaluate_targets,
    gpd_quantile_target,
    posterior_target_estimates,
    project,
    project_matrix,
    run_semiauto,
    targets_from_specs,
)

__version__ = "0.1.0"
