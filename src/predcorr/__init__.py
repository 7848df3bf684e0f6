"""Prediction-correction solvers and benchmarks for time-varying smooth
optimization: a solver family (gradient-only tracking, quadratic-model
prediction, normalized-step and trust-radius predictors), analytic and
streaming benchmark problems, and empirical checkers for the convergence
bounds the solvers are expected to satisfy."""

from .core import (
    FDReport,
    MissingOracleError,
    ProblemConstants,
    ProblemOracle,
    RatioEstimate,
    TimeGrid,
    ball_sampler,
    estimate_Z,
    finite_difference_check,
    gaussian_sampler,
    rng_from_seed,
)
from .solvers import (
    ALGORITHMS,
    CP,
    FOA_MIN,
    TVGD,
    UFOPC,
    DivergenceError,
    SolverConfig,
    Trace,
    correct,
    g_select,
    predict_cauchy_point,
    predict_foa_min,
    predict_ufopc,
    run,
)
from .problems import (
    linreg_g2_bound,
    linreg_g2_from_values,
    linreg_static_constants,
    make_linreg,
    make_mf,
    make_robust,
    make_toy,
    mf_warm_start,
    robust_constants,
    toy_constants,
)
from .ratings import RatingsDataset, filter_min_counts, load_ratings, synth_ratings
from .analysis import (
    AverageGradientReport,
    OrderFit,
    PostConvergenceReport,
    PredictionGapReport,
    TailStats,
    average_gradient_bound,
    bound_tol,
    check_lipschitz_optimum,
    check_post_convergence,
    check_prediction_gap,
    check_tvgd_pl_envelope,
    envelope_limit,
    fit_order,
    g2_bar,
    max_prediction_increase,
    pl_stationarity_threshold,
    ratio_bound_selftest,
    stationarity_threshold,
    summarize_sweep,
    tail_stats,
)

__version__ = "0.1.0"
