"""semiabc: likelihood-free inference with constructed summary statistics.

Core pieces: regression-based construction of one summary per target
functional (its optimal affine, Bayes linear, estimate), rejection ABC
with optional regression adjustment, marginal adjustment of joint
posterior samples, oracle test models, and a replicated experiment
harness.
"""

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
from .experiment import ExperimentReport, run_experiment
from .marginal import MarginalEstimate, estimate_marginal, marginal_remap
from .models import (
    ModelFixture,
    gaussian_location_fixture,
    gpd_fixture,
    linear_gaussian_fixture,
    make_fixture,
)
from .regression import BasisSpec, LinearFit, fit_linear
from .runconfig import ExperimentConfig, RunConfig, TargetSpec, parse_config, parse_config_dict
from .semiauto import (
    SummaryProjector,
    construct_projector,
    evaluate_targets,
    posterior_target_estimates,
    project,
    project_matrix,
    run_semiauto,
    targets_from_specs,
)

__version__ = "0.1.0"
