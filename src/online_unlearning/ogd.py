"""Projected online gradient descent: steps, rate schedules, and step diagnostics.

The update at time ``t`` is ``z_t = proj(z_{t-1} - eta_t * grad f_t(z_{t-1}))``;
a deleted slot leaves the iterate unchanged while the schedule clock still
advances.  The per-step contraction factor and displacement bound computed
here are what the noise calibration and the certifier consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import FnClass
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
    "ConstantRate",
    "ConvexDecreasing",
    "RateSchedule",
    "SCDecreasing",
    "constant_rate_worst_case",
    "contraction_coeff",
    "gamma_nominal",
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
    if isinstance(sched, AdaptiveRate):
        p = adapt.p if adapt is not None else 0.0
        return sched.diameter / max(math.sqrt(p), sched.warm_floor)
    return float(_clock_rate(sched, float(t)))


def rates_array(rates: RateSchedule, horizon: int) -> np.ndarray:
    """Learning rates ``eta_1..eta_T`` for a clock-driven (non-adaptive) schedule.

    Each entry is ``rate(rates, t)`` bit for bit: the same formula on ``t``
    as a float.
    """
    if isinstance(rates, AdaptiveRate):
        raise OracleUnavailableError(
            "adaptive rates depend on the realized gradients; pass a trace's recorded rates"
        )
    return _clock_rate(rates, np.arange(1, horizon + 1, dtype=np.float64))


def _clock_rate(sched: RateSchedule, t: float | np.ndarray) -> float | np.ndarray:
    """A clock-driven schedule's rate at step ``t``, a float or an array of floats."""
    if isinstance(sched, SCDecreasing):
        return 1.0 / (sched.mu * t)
    if isinstance(sched, ConvexDecreasing):
        return sched.diameter / (sched.lipschitz * np.sqrt(t))
    if isinstance(sched, ConstantRate):
        return np.full_like(t, sched.eta)
    raise InvalidConfigError(f"unknown rate schedule {sched!r}")


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
    with np.errstate(over="ignore"):  # an overflow makes the factor inf, which is refused
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
