"""Passive unlearner: run OGD as usual and inject calibrated noise at deletion times.

The noise scale for the ``i``-th deletion is

    sigma_i = sqrt(omega * i**omega / (2 (omega - 1) eps)) * decay_i * Delta_{u_i}

where ``Delta_{u_i} = eta_{u_i} * L`` is the displacement bound of the deleted
step and ``decay_i`` accounts for the contraction accumulated between the
deleted step and the deletion time: either ``gamma_nominal ** gap`` or the
product of the honest per-step factors over ``(u_i, tau_i]``, per
``gamma_mode``.  Between deletions the run is plain projected OGD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .core import (
    EMPTY_SCHEDULE,
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    QuadraticCost,
    as_point,
    cost_value,
    eval_grad,
    is_skip,
    stack_quadratics,
)
from .errors import InvalidConfigError, InvalidInputError, NumericError
from .ogd import (
    AdaptiveRate,
    AdaptiveState,
    RateSchedule,
    gamma_nominal,
    rate,
    sensitivity,
    step_contraction,
)
from .rng import NoiseSource
from .trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, NoiseEvent, RunTrace

__all__ = [
    "GAMMA_MODES",
    "UnlearnerConfig",
    "calibrated_sigma",
    "deletion_decay",
    "deletion_delta",
    "passive_sigma",
    "run_ogd",
    "run_passive",
    "series_term",
]

GAMMA_MODES = ("nominal", "per-step-product")


@dataclass(frozen=True)
class UnlearnerConfig:
    """Indistinguishability budget (alpha, eps) and the series exponent omega.

    ``gamma_mode`` selects the decay used in the noise calibration: the
    constant-rate reference value, or the product of per-step factors (never
    smaller than the truth, hence what the certifier can validate).
    """

    alpha: float
    eps: float
    omega: float = 1.2
    gamma_mode: str = "nominal"

    def __post_init__(self) -> None:
        if not self.alpha > 1.0:
            raise InvalidConfigError(f"need alpha > 1, got {self.alpha}")
        if not self.eps > 0.0:
            raise InvalidConfigError(f"need eps > 0, got {self.eps}")
        if not self.omega > 1.0:
            raise InvalidConfigError(f"need omega > 1, got {self.omega}")
        if self.gamma_mode not in GAMMA_MODES:
            raise InvalidConfigError(f"gamma_mode must be one of {GAMMA_MODES}")

    @property
    def budget(self) -> float:
        """The certified divergence budget alpha * eps."""
        return self.alpha * self.eps

    def with_mode(self, gamma_mode: str) -> "UnlearnerConfig":
        return replace(self, gamma_mode=gamma_mode)


def calibrated_sigma(cfg: UnlearnerConfig, i: int, decay: float, delta: float) -> float:
    """Noise scale for the ``i``-th deletion given its decay factor and sensitivity."""
    if i < 1:
        raise InvalidInputError(f"deletion ordinal must be >= 1, got {i}")
    if decay < 0.0 or delta < 0.0:
        raise InvalidInputError("decay and sensitivity must be nonnegative")
    base = math.sqrt(cfg.omega * i**cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps))
    return base * decay * delta


def series_term(cfg: UnlearnerConfig, j: int) -> float:
    """What the ``j``-th deletion adds to the interval bound: ``alpha eps (omega-1) / (omega j^omega)``.

    The terms sum to at most ``alpha * eps`` over any number of deletions.
    """
    return cfg.alpha * cfg.eps * (cfg.omega - 1.0) / (cfg.omega * j**cfg.omega)


def passive_sigma(cfg: UnlearnerConfig, i: int, gap: int, delta_u: float, gamma: float) -> float:
    """Noise scale ``sqrt(omega i^omega / (2(omega-1) eps)) * gamma^gap * Delta_u``."""
    if gap < 0:
        raise InvalidInputError(f"gap must be >= 0, got {gap}")
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in (0, 1], got {gamma}")
    return calibrated_sigma(cfg, i, gamma**gap, delta_u)


def _projected_step(
    z: np.ndarray, grad: np.ndarray, eta: float, radius: float
) -> Tuple[np.ndarray, bool]:
    """Gradient step then ball projection; reports whether the projection bound.

    Arithmetic matches ``core.project`` exactly (including the ulp nudge), so
    runner outputs agree bitwise with ``ogd_step``.
    """
    moved = z - eta * grad
    norm = float(np.linalg.norm(moved))
    if norm <= radius:
        return moved, False
    while norm > radius:
        moved = moved * (radius / norm)
        norm = float(np.linalg.norm(moved))
    return moved, True


def deletion_delta(stream: CostStream, u: int, rates: np.ndarray, cls: FnClass) -> float:
    """Public sensitivity of the deleted step: ``eta_u * L``, or 0 for a SKIP slot."""
    if not 1 <= u <= len(stream):
        raise InvalidInputError(f"time {u} outside the horizon [1, {len(stream)}]")
    if not stream.live[u - 1]:
        return 0.0
    return sensitivity(cls, float(rates[u - 1]))


def deletion_decay(
    stream: CostStream,
    u: int,
    tau: int,
    rates: np.ndarray,
    cls: FnClass,
    gamma_mode: str,
) -> Tuple[float, bool]:
    """Decay factor applied to the deleted step's displacement by time ``tau``.

    Returns ``(decay, contractive)`` where ``contractive`` is False if some
    step in ``(u, tau]`` has a raw factor above 1 (the calibration is then not
    certifiable).  SKIP steps inside the gap contribute a factor of 1.
    """
    if not 1 <= u <= tau <= len(stream):
        raise InvalidInputError(f"need 1 <= u <= tau <= {len(stream)}, got ({u}, {tau})")
    gap_live = enumerate(stream.live[u:tau].tolist(), start=u + 1)
    contractive = True
    if gamma_mode == "nominal":
        decay = gamma_nominal(cls) ** (tau - u)
        for s, keep in gap_live:
            if keep and step_contraction(cls, float(rates[s - 1])) > 1.0 + 1e-12:
                contractive = False
                break
        return decay, contractive
    if gamma_mode == "per-step-product":
        decay = 1.0
        for s, keep in gap_live:
            if not keep:
                continue
            factor = step_contraction(cls, float(rates[s - 1]))
            if factor > 1.0 + 1e-12:
                contractive = False
            decay *= factor
        return decay, contractive
    raise InvalidConfigError(f"gamma_mode must be one of {GAMMA_MODES}")


def _step_evaluators(stream: CostStream):
    """Per-step ``grad(t, z)`` and ``loss(t, z)`` for live 1-based slots, plus the dimension.

    Quadratic streams read their stacked rows, split once into per-step row
    views (indexing the stacked arrays per step is slower); other costs go
    through ``eval_grad``/``cost_value``.  The dimension is None when no
    quadratic reveals it.
    """
    if stream.all_quadratic() and stream.live.any():
        mats, centers, offsets, _ = stack_quadratics(stream)
        mats, centers, offsets = list(mats), list(centers), offsets.tolist()

        def grad(t: int, z: np.ndarray) -> np.ndarray:
            return mats[t - 1] @ (z - centers[t - 1])

        def loss(t: int, z: np.ndarray) -> float:
            diff = z - centers[t - 1]
            return 0.5 * float(diff @ (mats[t - 1] @ diff)) + offsets[t - 1]

        return grad, loss, centers[0].size
    items = stream.items
    probe = next((it for it in items if not is_skip(it)), None)
    return (
        lambda t, z: eval_grad(items[t - 1], z)[1],
        lambda t, z: cost_value(items[t - 1], z),
        probe.dim if isinstance(probe, QuadraticCost) else None,
    )


def run_passive(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    cfg: UnlearnerConfig | None,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
    z0: np.ndarray | None = None,
) -> RunTrace:
    """Run the passive unlearner over the stream; deterministic given the seed.

    At every ``t`` not in the schedule the update is a plain projected OGD
    step (SKIP holds the iterate while the rate clock advances).  At the
    ``i``-th deletion time the freshly updated iterate gets ``N(0, sigma_i^2 I)``
    noise added after projection, and the emitted (noisy) point is what the
    trace records and scores.  ``cfg`` may be None only for an empty schedule.
    """
    horizon = len(stream)
    sched.validate_horizon(horizon)
    if horizon == 0:
        raise InvalidInputError("stream is empty")
    if cfg is None and sched.k:
        raise InvalidConfigError("deletions need an UnlearnerConfig to calibrate their noise")
    live = stream.live.tolist()
    grad_at, loss_at, dim = _step_evaluators(stream)
    if dim is None and z0 is not None:
        dim = as_point(z0).size
    if dim is None:
        raise InvalidInputError("cannot infer dimension from an all-SKIP stream without z0")
    z = dom.project(as_point(z0, dim) if z0 is not None else np.zeros(dim))

    noise = NoiseSource(seed)
    adapt = AdaptiveState() if isinstance(rates, AdaptiveRate) else None
    by_time = {tau: (i, u) for i, (u, tau) in enumerate(sched.entries, start=1)}

    outputs = np.empty((horizon, dim))
    losses = np.zeros(horizon)
    rate_hist = np.empty(horizon)
    events = []
    noise_events = []
    warnings_log: list[str] = []
    grad_evals = 0
    bound_steps = 0
    certifiable = True

    for t in range(1, horizon + 1):
        if not live[t - 1]:
            eta_t = rate(rates, t, adapt)
            event = EVENT_SKIP
        else:
            grad = grad_at(t, z)
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient at step {t}")
            grad_evals += 1
            if adapt is not None:
                adapt.add(float(grad @ grad))
            eta_t = rate(rates, t, adapt)
            z, bound = _projected_step(z, grad, eta_t, dom.radius)
            if bound:
                bound_steps += 1
            event = EVENT_LEARN
        rate_hist[t - 1] = eta_t
        if adapt is not None:
            adapt.record()

        if t in by_time:
            i, u = by_time[t]
            delta = deletion_delta(stream, u, rate_hist, cls)
            decay, contractive = deletion_decay(stream, u, t, rate_hist, cls, cfg.gamma_mode)
            if not contractive:
                certifiable = False
                warnings_log.append(
                    f"deletion {i}: a step in ({u}, {t}] is not contractive; "
                    "certification refused, run continues"
                )
            sigma = calibrated_sigma(cfg, i, decay, delta)
            xi = sigma * noise.normals(dim)
            z = z + xi
            noise_events.append(
                NoiseEvent(
                    ordinal=i, time=t, index=u, gap=t - u,
                    delta=delta, decay=decay, sigma=sigma, xi=xi,
                )
            )
            event = EVENT_UNLEARN

        outputs[t - 1] = z
        if live[t - 1]:
            losses[t - 1] = loss_at(t, z)
        events.append(event)

    return RunTrace(
        algorithm="passive",
        seed=seed,
        outputs=outputs,
        losses=losses,
        rates=rate_hist,
        events=tuple(events),
        noise_events=tuple(noise_events),
        p_history=np.array(adapt.history) if adapt is not None else None,
        grad_evals=grad_evals,
        projection_bound_steps=bound_steps,
        certifiable=certifiable,
        warnings=tuple(warnings_log),
        config={} if cfg is None else {
            "alpha": cfg.alpha, "eps": cfg.eps, "omega": cfg.omega,
            "gamma_mode": cfg.gamma_mode,
        },
    )


def run_ogd(
    stream: CostStream,
    rates: RateSchedule,
    dom: BallDomain,
    cls: FnClass,
    seed: int = 0,
    z0: np.ndarray | None = None,
) -> RunTrace:
    """Plain projected OGD (no deletions): the passive runner on an empty schedule."""
    trace = run_passive(stream, EMPTY_SCHEDULE, rates, None, cls, dom, seed, z0)
    trace.algorithm = "ogd"
    return trace
