"""Clipped stochastic gradient methods under heavy-tailed noise."""

from .clip import (
    ACClipParams,
    ACClipState,
    acclip_step,
    bias_variance_grid,
    cclip,
    gclip,
)
from .diagnostics import (
    EnvelopeResult,
    FuzzResult,
    SandwichResult,
    SlopeFit,
    bound_envelope_check,
    fit_loglog_slope,
    sandwich_check,
    sandwich_fuzz,
    strongly_convex_bound,
)
from .errors import ConfigurationError, DomainError, InsufficientDataError
from .noise import (
    MomentEstimate,
    NoiseSpec,
    TailIndexEstimate,
    empirical_moment,
    sample_noise,
    sample_noise_batch,
    tail_index,
    variance_growth_curve,
)
from .optimizers import (
    OptimizerConfig,
    Schedule,
    Trace,
    average_traces,
    cclip_schedule,
    constant_schedule,
    run,
    run_seeds,
    nonconvex_schedule,
    strongly_convex_schedule,
    weighted_average,
)
from .problems import (
    Ball,
    Box,
    ChainInstance,
    Constants,
    Interval,
    LowerBoundInstance,
    StochasticProblem,
    chain_oracle,
    lowerbound_oracle,
    nonconvex_problem,
    prog,
    project,
    quadratic_problem,
)

__version__ = "0.1.0"
