"""Numerical laboratory for test-time self-training with pseudo-labels.

A linear predictor adapts to an unlabeled Gaussian test domain by gradient
descent on a self-training loss built from its own predictions (hard or
conjugate pseudo-labels, square/logistic/exponential families).  The package
simulates the sampled and infinite-data dynamics, certifies the convergence
and non-convergence claims numerically, and reproduces the benchmark figures.
"""

__version__ = "0.1.0"

from .model import (
    GaussianModel,
    PredictorDecomposition,
    decompose,
    derive_stream_seed,
    gauss_upper_tail,
    is_epsilon_optimal,
    sample_batch,
    zero_one_loss,
)
from .losses import (
    ClubParams,
    LabelRule,
    LossFamily,
    SelfTrainingLoss,
    all_losses,
    club_losses,
    make_loss,
    parse_loss_id,
    pseudo_label,
    self_loss_gradient,
)
from .dynamics import (
    OVERFLOW_LIMIT,
    ExperimentConfig,
    Mode,
    TrajectoryPoint,
    UnsupportedLossError,
    conj_square_ratio_closed_form,
    epsilon_iteration_bound,
    expectation_terms,
    gd_step,
    hard_square_scalar_step,
    population_step,
    run_population,
    run_stochastic,
)
from .analysis import (
    ClubCertificate,
    LogRateReport,
    RecursionReport,
    SteinReport,
    TailRateCurve,
    recursion_bound_run,
    nu_star,
    nu_star_upper,
    log_rate_check,
    record_text,
    stein_identity_check,
    tail_rate_curve,
    verify_club,
)
from .serialize import ConfigError, RunManifest, parse_config_file
from .presets import (
    ETA_GRID,
    FIGURE_IDS,
    FigureResult,
    alternating_pm_mu_sampler,
    build_benchmark_domains,
    render_figure_svg,
    reproduce_figure,
)
from .harness import GridPoint, grid_search, run_config, run_experiment, step_size_sweep

__all__ = [
    "__version__",
    # model
    "GaussianModel", "PredictorDecomposition", "sample_batch",
    "derive_stream_seed", "gauss_upper_tail", "zero_one_loss", "decompose",
    "is_epsilon_optimal",
    # losses
    "LabelRule", "LossFamily", "ClubParams", "SelfTrainingLoss", "make_loss",
    "all_losses", "club_losses", "parse_loss_id", "pseudo_label",
    "self_loss_gradient",
    # dynamics
    "Mode", "UnsupportedLossError", "ExperimentConfig", "TrajectoryPoint",
    "OVERFLOW_LIMIT", "gd_step", "run_stochastic", "expectation_terms",
    "population_step", "run_population", "hard_square_scalar_step",
    "conj_square_ratio_closed_form", "epsilon_iteration_bound",
    # analysis
    "ClubCertificate", "TailRateCurve", "RecursionReport", "LogRateReport",
    "SteinReport", "verify_club", "tail_rate_curve", "recursion_bound_run",
    "log_rate_check", "stein_identity_check", "nu_star",
    "nu_star_upper", "record_text",
    # io and presets
    "ConfigError", "RunManifest", "parse_config_file", "ETA_GRID",
    "FIGURE_IDS", "FigureResult", "build_benchmark_domains",
    "alternating_pm_mu_sampler", "reproduce_figure", "render_figure_svg",
    "GridPoint", "grid_search", "step_size_sweep", "run_config", "run_experiment",
]
