"""Projected online gradient descent: steps, rate schedules, and step diagnostics.

The update at time ``t`` is ``z_t = proj(z_{t-1} - eta_t * grad f_t(z_{t-1}))``;
a SKIP item leaves the iterate unchanged while the schedule clock still
advances.  The per-step contraction factor and displacement bound computed
here are what the noise calibration and the certifier consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .core import (
    BallDomain,
    CostFn,
    FnClass,
    StreamItem,
    eval_grad,
    is_skip,
    project,
)
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NonContractiveStepError,
    NumericError,
    OracleUnavailableError,
)

__all__ = [
    "AdaptiveRate",
    "AdaptiveState",
    "ConditionReport",
    "ConstantRate",
    "ConvexDecreasing",
    "RateSchedule",
    "SCDecreasing",
    "check_conditions",
    "constant_rate_worst_case",
    "contraction_coeff",
    "gamma_nominal",
    "ogd_step",
    "rate",
    "rates_array",
    "sensitivity",
    "step_contraction",
]


@dataclass(frozen=True)
class SCDecreasing:
    """Strongly convex schedule ``eta_t = 1 / (mu * t)``."""

    mu: float

    def __post_init__(self) -> None:
        if self.mu <= 0.0:
            raise InvalidConfigError("SCDecreasing needs mu > 0")


@dataclass(frozen=True)
class ConvexDecreasing:
    """Convex schedule ``eta_t = D / (L * sqrt(t))``."""

    diameter: float
    lipschitz: float

    def __post_init__(self) -> None:
        if self.diameter <= 0.0 or self.lipschitz <= 0.0:
            raise InvalidConfigError("ConvexDecreasing needs positive D and L")


@dataclass(frozen=True)
class AdaptiveRate:
    """Gradient-norm adaptive schedule ``eta_t = D / max(sqrt(p(t)), warm_floor)``.

    ``p(t)`` accumulates the squared norms of the gradients actually applied.
    The warm-start floor (``beta / 2`` by convention) keeps the rate finite
    until ``p`` exceeds ``beta^2 / 4``.
    """

    diameter: float
    warm_floor: float

    def __post_init__(self) -> None:
        if self.diameter <= 0.0 or self.warm_floor <= 0.0:
            raise InvalidConfigError("AdaptiveRate needs positive diameter and warm floor")


@dataclass(frozen=True)
class ConstantRate:
    eta: float

    def __post_init__(self) -> None:
        if self.eta <= 0.0:
            raise InvalidConfigError("ConstantRate needs eta > 0")


RateSchedule = Union[SCDecreasing, ConvexDecreasing, AdaptiveRate, ConstantRate]


@dataclass
class AdaptiveState:
    """Cumulative squared gradient norm; owned by a single run."""

    p: float = 0.0

    def add(self, grad_sq_norm: float) -> None:
        if grad_sq_norm < 0.0:
            raise InvalidInputError("squared gradient norm cannot be negative")
        self.p += grad_sq_norm


def rate(sched: RateSchedule, t: int, adapt: AdaptiveState | None = None) -> float:
    """Learning rate at 1-based step ``t``."""
    if t < 1:
        raise InvalidInputError(f"time index must be >= 1, got {t}")
    if isinstance(sched, SCDecreasing):
        return 1.0 / (sched.mu * t)
    if isinstance(sched, ConvexDecreasing):
        return sched.diameter / (sched.lipschitz * math.sqrt(t))
    if isinstance(sched, AdaptiveRate):
        p = adapt.p if adapt is not None else 0.0
        return sched.diameter / max(math.sqrt(p), sched.warm_floor)
    if isinstance(sched, ConstantRate):
        return sched.eta
    raise InvalidConfigError(f"unknown rate schedule {sched!r}")


def rates_array(rates: RateSchedule, horizon: int) -> np.ndarray:
    """Learning rates ``eta_1..eta_T`` for a clock-driven (non-adaptive) schedule.

    Each entry is ``rate(rates, t)`` bit for bit: the same IEEE operations
    on ``t`` as a float.
    """
    if isinstance(rates, AdaptiveRate):
        raise OracleUnavailableError(
            "adaptive rates depend on the realized gradients; pass a trace's recorded rates"
        )
    t = np.arange(1, horizon + 1, dtype=np.float64)
    if isinstance(rates, SCDecreasing):
        return 1.0 / (rates.mu * t)
    if isinstance(rates, ConvexDecreasing):
        return rates.diameter / (rates.lipschitz * np.sqrt(t))
    if isinstance(rates, ConstantRate):
        return np.full(horizon, rates.eta, dtype=np.float64)
    raise InvalidConfigError(f"unknown rate schedule {rates!r}")


def constant_rate_worst_case(
    diameter: float, lipschitz: float, horizon: int, k: int, dim: int, eps: float
) -> float:
    """Constant step size tuned for any deletion schedule of size ``k``.

    ``eta = sqrt(2 D^2 / (T L^2 (1 + 1.2 k^2.2 d / (0.42 eps))))``; requires
    the horizon and deletion count up front.
    """
    if horizon <= 0 or eps <= 0.0:
        raise InvalidConfigError("worst-case rate needs horizon > 0 and eps > 0")
    if diameter <= 0.0 or lipschitz <= 0.0 or dim < 1 or k < 0:
        raise InvalidConfigError("worst-case rate needs positive D, L and d >= 1, k >= 0")
    inflation = 1.0 + 1.2 * k**2.2 * dim / (0.42 * eps)
    try:
        return math.sqrt(2.0 * diameter**2 / (horizon * lipschitz**2 * inflation))
    except (ZeroDivisionError, OverflowError):  # L^2 underflows to 0, or a square overflows
        raise InvalidConfigError(f"worst-case rate out of range at L = {lipschitz!r}") from None


def ogd_step(z_prev: np.ndarray, item: StreamItem, eta: float, dom: BallDomain) -> np.ndarray:
    """One projected gradient step; SKIP returns the iterate unchanged."""
    if eta <= 0.0:
        raise InvalidConfigError(f"step size must be positive, got {eta}")
    if is_skip(item):
        return np.asarray(z_prev, dtype=np.float64)
    _, grad = eval_grad(item, z_prev)
    if not np.all(np.isfinite(grad)):
        raise NumericError("gradient is non-finite")
    return project(np.asarray(z_prev, dtype=np.float64) - eta * grad, dom)


def gamma_nominal(cls: FnClass) -> float:
    """Reference contraction ``(beta/mu - 1) / (beta/mu + 1)``; 1 when mu = 0."""
    if cls.strong_convexity == 0.0:
        return 1.0
    return (cls.smoothness - cls.strong_convexity) / (cls.smoothness + cls.strong_convexity)


# A step factor above ``1 + _CONTRACTION_TOL`` is non-contractive.
_CONTRACTION_TOL = 1e-12


def _positive_rates(eta):
    rates = np.asarray(eta, dtype=np.float64)
    if np.any(rates <= 0.0):
        raise InvalidConfigError(f"step size must be positive, got {rates.min()}")
    return rates


def step_contraction(cls: FnClass, eta):
    """Raw factor ``max(|1 - eta mu|, |1 - eta beta|)``; may exceed 1.

    ``eta`` is one rate (returns a float) or an array of rates (returns the
    factor of each).
    """
    rates = _positive_rates(eta)
    gamma = np.maximum(
        np.abs(1.0 - rates * cls.strong_convexity), np.abs(1.0 - rates * cls.smoothness)
    )
    return gamma if gamma.ndim else float(gamma)


def contraction_coeff(cls: FnClass, eta: float) -> float:
    """Contraction factor of one gradient step on the class, which needs ``eta <= 2/beta``.

    At ``eta = 2 / (beta + mu)`` the factor equals ``gamma_nominal``.
    """
    gamma = step_contraction(cls, eta)
    if gamma > 1.0 + _CONTRACTION_TOL:
        raise NonContractiveStepError(
            f"eta={eta} exceeds 2/beta={2.0 / cls.smoothness if cls.smoothness else math.inf}; "
            f"step factor {gamma} > 1"
        )
    return min(gamma, 1.0)


def sensitivity(cls: FnClass, eta):
    """Bound ``Delta = eta * L`` on ``||step(x) - x||`` for one update at rate ``eta``.

    ``eta`` is one rate (returns a float) or an array of rates (returns the
    bound of each).
    """
    value = _positive_rates(eta) * cls.lipschitz
    if not np.all(np.isfinite(value)):
        raise NumericError("sensitivity bound is non-finite")
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class ConditionReport:
    """Sampled witnesses for the Markov / contraction / sensitivity conditions."""

    max_contraction_ratio: float
    contraction_bound: float
    max_step_displacement: float
    displacement_bound: float
    skipped_pairs: int
    markov_structural: bool = True

    @property
    def contraction_ok(self) -> bool:
        return self.max_contraction_ratio <= self.contraction_bound + 1e-10

    @property
    def displacement_ok(self) -> bool:
        return self.max_step_displacement <= self.displacement_bound + 1e-10


def check_conditions(
    f_samples: Sequence[CostFn],
    z_samples: Sequence[np.ndarray],
    eta: float,
    dom: BallDomain,
    cls: FnClass,
) -> ConditionReport:
    """Probe the update map on sampled losses and points.

    Contraction is probed on consecutive point pairs, displacement on every
    point.  The Markov condition holds by construction (the step reads only
    ``(f_t, z_{t-1})``), so it is reported structurally rather than sampled.
    """
    if not f_samples or not z_samples:
        raise InvalidInputError("need nonempty sample sets")
    gamma = step_contraction(cls, eta)
    delta = sensitivity(cls, eta)
    worst_ratio = 0.0
    worst_disp = 0.0
    skipped = 0
    pairs = list(zip(z_samples[:-1], z_samples[1:]))
    for f in f_samples:
        for za, zb in pairs:
            gap = float(np.linalg.norm(np.asarray(za) - np.asarray(zb)))
            if gap < 1e-14:
                skipped += 1
                continue
            moved = float(np.linalg.norm(ogd_step(za, f, eta, dom) - ogd_step(zb, f, eta, dom)))
            worst_ratio = max(worst_ratio, moved / gap)
        for z in z_samples:
            z_arr = project(np.asarray(z, dtype=np.float64), dom)
            worst_disp = max(worst_disp, float(np.linalg.norm(ogd_step(z_arr, f, eta, dom) - z_arr)))
    return ConditionReport(
        max_contraction_ratio=worst_ratio,
        contraction_bound=gamma,
        max_step_displacement=worst_disp,
        displacement_bound=delta,
        skipped_pairs=skipped,
    )
