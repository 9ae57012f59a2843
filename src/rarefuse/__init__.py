"""rarefuse: rare-event failure probability estimation toolkit.

Builds biasing densities from surrogate-model failure sets, runs
importance-sampling estimators against the high-fidelity model, and fuses
the unbiased estimators into a single minimum-variance estimate.  Plain
Monte Carlo and subset simulation are included as baselines, together with
desk-scale benchmarks whose failure probabilities have independent
oracles.
"""

from .densities import (
    GaussianMixture,
    InsufficientSamplesError,
    UniformBox,
    fit_gaussian,
)
from .estimators import (
    EstimatorResult,
    cv,
    importance_sampling_estimate,
    monte_carlo_estimate,
    rmse,
    theoretical_mc_cv,
)
from .fusion import (
    CovarianceMatrix,
    FusedResult,
    SingularCovarianceError,
    dominance_criterion,
    fuse,
    optimal_weights,
    optimal_weights_diagonal,
)
from .mfis import BiasingBuildReport, build_biasing_density
from .models import (
    Benchmark,
    LimitState,
    Model,
    benchmark_names,
    get_benchmark,
    make_arrhenius_2d,
    make_linear_gaussian,
    oracle_failure_probability,
)
from .subset_sim import SubsetResult, subset_simulation

__version__ = "0.1.0"

__all__ = [
    "UniformBox",
    "GaussianMixture",
    "fit_gaussian",
    "InsufficientSamplesError",
    "Model",
    "LimitState",
    "Benchmark",
    "oracle_failure_probability",
    "make_linear_gaussian",
    "make_arrhenius_2d",
    "get_benchmark",
    "benchmark_names",
    "BiasingBuildReport",
    "build_biasing_density",
    "EstimatorResult",
    "monte_carlo_estimate",
    "importance_sampling_estimate",
    "rmse",
    "cv",
    "theoretical_mc_cv",
    "CovarianceMatrix",
    "FusedResult",
    "optimal_weights",
    "optimal_weights_diagonal",
    "fuse",
    "dominance_criterion",
    "SingularCovarianceError",
    "SubsetResult",
    "subset_simulation",
]
