"""Passive unlearner: run OGD as usual and inject calibrated noise at deletion times.

The noise scale for the ``i``-th deletion is

    sigma_i = sqrt(omega * i**omega / (2 (omega - 1) eps)) * decay_i * Delta_{u_i}

where ``Delta_{u_i} = eta_{u_i} * L`` is the displacement bound of the deleted
step and ``decay_i``, the contraction accumulated between the deleted step
and the deletion time, is the product of the honest per-step factors
``max(|1 - eta_t mu|, |1 - eta_t beta|)`` over the live steps of
``(u_i, tau_i]``.  :func:`deletion_calibration` is the one implementation of
that calibration: the runner calls it at each deletion time and the
certifier calls it for each deletion it checks.  Between deletions the run
is plain projected OGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    EMPTY_SCHEDULE,
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
)
from .engine import StepEngine
from .errors import InvalidConfigError, InvalidInputError
from .ogd import _CONTRACTION_TOL, RateSchedule, sensitivity, step_contraction
from .rng import noise_generator
from .trace import RunTrace

__all__ = [
    "UnlearnerConfig",
    "calibrated_sigma",
    "deletion_calibration",
    "noise_multiplier",
    "run_ogd",
    "run_passive",
    "series_term",
]


@dataclass(frozen=True)
class UnlearnerConfig:
    """Indistinguishability budget (alpha, eps) and the series exponent omega."""

    alpha: float
    eps: float
    omega: float = 1.2

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise InvalidConfigError(f"need alpha > 1, got {self.alpha}")
        if not self.eps > 0.0:
            raise InvalidConfigError(f"need eps > 0, got {self.eps}")
        if not self.omega > 1.0:
            raise InvalidConfigError(f"need omega > 1, got {self.omega}")
        # The budget alpha * eps, and alpha * eps * (omega - 1) in ``series_term``.
        if not math.isfinite(self.alpha * self.eps * max(1.0, self.omega - 1.0)):
            raise InvalidConfigError(
                f"budget alpha * eps or its series terms out of range at alpha = {self.alpha!r}, "
                f"eps = {self.eps!r}, omega = {self.omega!r}")

    @property
    def budget(self) -> float:
        """The certified divergence budget alpha * eps."""
        return self.alpha * self.eps


def noise_multiplier(cfg: UnlearnerConfig, i: int) -> float:
    """``sqrt(omega i^omega / (2 (omega - 1) eps))``, the ``i``-th deletion's share of the budget.

    Both first-order unlearners scale their noise by it.  A multiplier past
    the float range (a large ``omega`` or a tiny ``eps``) is refused.
    """
    try:
        value = math.sqrt(cfg.omega * i**cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps))
    except (OverflowError, ZeroDivisionError):  # i ** omega overflows or the divisor underflows
        value = math.inf
    if value == math.inf:
        raise InvalidConfigError(f"noise multiplier of deletion {i} out of range at "
                                 f"omega = {cfg.omega!r}, eps = {cfg.eps!r}")
    return value


def calibrated_sigma(cfg: UnlearnerConfig, i: int, decay: float, delta: float) -> float:
    """Noise scale for the ``i``-th deletion given its decay factor and sensitivity."""
    if i < 1:
        raise InvalidInputError(f"deletion ordinal must be >= 1, got {i}")
    if decay < 0.0 or delta < 0.0:
        raise InvalidInputError("decay and sensitivity must be nonnegative")
    return noise_multiplier(cfg, i) * decay * delta


def series_term(cfg: UnlearnerConfig, j: int) -> float:
    """What the ``j``-th deletion adds to the interval bound: ``alpha eps (omega-1) / (omega j^omega)``.

    The terms sum to at most ``alpha * eps`` over any number of deletions.
    """
    return cfg.alpha * cfg.eps * (cfg.omega - 1.0) / (cfg.omega * j**cfg.omega)


def deletion_calibration(
    stream: CostStream,
    rates: np.ndarray,
    cls: FnClass,
    cfg: UnlearnerConfig,
    i: int,
    u: int,
    tau: int,
) -> Tuple[float, float, float, bool]:
    """Calibration ``(delta, decay, sigma, contractive)`` of the ``i``-th deletion ``(u, tau)``.

    ``delta = eta_u * L`` is the deleted step's sensitivity, 0 for a deleted
    slot; ``decay`` is the product of the per-step factors over the live steps
    of ``(u, tau]``; ``contractive`` is False when one of those factors exceeds
    1, and the calibration is then not certifiable.  ``rates`` needs
    ``eta_1..eta_tau``.
    """
    if not 1 <= u <= tau <= len(stream):
        raise InvalidInputError(f"need 1 <= u <= tau <= {len(stream)}, got ({u}, {tau})")
    delta = sensitivity(cls, float(rates[u - 1])) if stream.live[u - 1] else 0.0
    # An overflow makes a factor or the decay inf: the step is not contractive,
    # so no certificate follows, and the run's inf noise is refused.
    with np.errstate(over="ignore"):
        factors = step_contraction(cls, rates[np.flatnonzero(stream.live[u:tau]) + u])
        decay = float(np.prod(factors))
    contractive = not np.any(factors > 1.0 + _CONTRACTION_TOL)
    return delta, decay, calibrated_sigma(cfg, i, decay, delta), contractive


def run_passive(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    cfg: UnlearnerConfig | None,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
) -> RunTrace:
    """Run the passive unlearner over the stream; deterministic given the seed.

    At every ``t`` not in the schedule the update is a plain projected OGD
    step (a deleted slot holds the iterate while the rate clock advances).
    At the ``i``-th deletion time the freshly updated iterate gets
    ``N(0, sigma_i^2 I)`` noise added after projection, and the emitted (noisy) point is what the
    trace records and scores.  ``cfg`` may be None only for an empty schedule.
    """
    if cfg is None and sched.k:
        raise InvalidConfigError("deletions need an UnlearnerConfig to calibrate their noise")
    engine = StepEngine(stream, sched, rates, dom)
    noise = noise_generator(seed, ())
    noise_events = []
    warnings_log: list[str] = []

    def add_noise(i: int, u: int, tau: int) -> None:
        engine.advance(tau, tau)
        delta, decay, sigma, contractive = deletion_calibration(
            stream, engine.rates, cls, cfg, i, u, tau
        )
        if not contractive:
            warnings_log.append(
                f"deletion {i}: a step in ({u}, {tau}] is not contractive; "
                "certification refused, run continues"
            )
        noise_events.append(engine.add_noise(noise, i, u, tau, delta, decay, sigma))

    engine.run(add_noise)
    return engine.trace(
        "passive",
        seed,
        noise_events=tuple(noise_events),
        certifiable=not warnings_log,
        warnings=tuple(warnings_log),
        # run.json names the decay rule; the per-step product is the only one.
        config={} if cfg is None else {
            "alpha": cfg.alpha, "eps": cfg.eps, "omega": cfg.omega,
            "gamma_mode": "per-step-product",
        },
    )


def run_ogd(
    stream: CostStream,
    rates: RateSchedule,
    dom: BallDomain,
    cls: FnClass,
    seed: int = 0,
) -> RunTrace:
    """Plain projected OGD (no deletions): the passive runner on an empty schedule."""
    trace = run_passive(stream, EMPTY_SCHEDULE, rates, None, cls, dom, seed)
    trace.algorithm = "ogd"
    return trace
