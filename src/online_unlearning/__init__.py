"""Streamed convex learning with deletion requests.

Simulates projected online gradient descent under interleaved deletion
requests, implements noise-injecting (passive) and descend-then-noise
(active) unlearners plus exact baselines, meters dynamic regret against the
theoretical bounds, and certifies the indistinguishability budget both
analytically (shift ledger) and exactly (Gaussian oracle on quadratic
streams).
"""

from .active import ActiveConfig, active_sigma, required_iters, run_active, run_active_second_order
from .baselines import run_discard_restart, run_retraining
from .certifier import (
    AnalyticCertificate,
    GaussianSummary,
    IntervalCertificate,
    McDivergenceReport,
    ShiftLedger,
    analytic_bound,
    certify_passive_run,
    exact_divergence_quadratic,
    gaussian_renyi,
    mc_divergence_check,
)
from .core import BallDomain, CostStream, DeletionSchedule, FnClass, project, retained
from .errors import (
    CertificationRefusedError,
    GeneratorError,
    InvalidConfigError,
    InvalidInputError,
    InvalidScheduleError,
    NonContractiveStepError,
    NotStronglyConvexError,
    NumericError,
    OracleUnavailableError,
    ScheduleShapeError,
)
from .harness import ExperimentConfig, build_schedule, gen_stream, run_experiment
from .ogd import (
    AdaptiveRate,
    AdaptiveState,
    ConstantRate,
    ConvexDecreasing,
    SCDecreasing,
    constant_rate_worst_case,
    contraction_coeff,
    rate,
    sensitivity,
)
from .passive import UnlearnerConfig, run_ogd, run_passive
from .regret import (
    BoundResult,
    GValues,
    bound_rhs,
    comparators,
    g_functions,
    regret_dynamic,
)
from .trace import NoiseEvent, RunTrace

__version__ = "0.1.0"
