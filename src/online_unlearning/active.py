"""Active unlearner: shift the iterate toward the retained-data optimum, then add noise.

On the ``i``-th deletion the run performs the regular OGD update, then
``I_1,i`` inner gradient-descent steps on the average of every loss seen so
far, then ``I_2`` steps on the average of the retained losses, and finally
injects Gaussian noise whose scale shrinks with ``gamma ** I_2``.  Inner steps
use the fixed rate ``1 / (beta + mu)``; averaging keeps the inner objective's
curvature inside ``[mu, beta]`` so that rate is valid regardless of how many
losses have arrived.

A second-order variant replaces the retained-phase descent with one Newton
correction built from exact quadratic Hessians.  It is experimental: its
noise formula carries no certified budget and traces are flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    QuadraticCost,
    as_point,
    cost_value,
    eval_grad,
    is_skip,
)
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NotStronglyConvexError,
    NumericError,
    ScheduleShapeError,
)
from .ogd import AdaptiveRate, AdaptiveState, RateSchedule, rate, step_contraction
from .passive import UnlearnerConfig, _projected_step, deletion_delta
from .rng import NoiseSource
from .trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, NoiseEvent, RunTrace

__all__ = [
    "ActiveConfig",
    "active_sigma",
    "required_iters",
    "run_active",
    "run_active_second_order",
    "second_order_sigma",
]


@dataclass(frozen=True)
class ActiveConfig:
    """Active-run knobs on top of the (alpha, eps, omega) budget.

    ``i1`` (per deletion) and ``i2`` default to the certified minimum counts
    from :func:`required_iters`; ``inner_rate`` defaults to ``1/(beta+mu)``;
    ``gamma`` defaults to the honest contraction of the inner rate on the
    class.
    """

    base: UnlearnerConfig
    i1: Tuple[int, ...] | None = None
    i2: int | None = None
    inner_rate: float | None = None
    gamma: float | None = None

    def __post_init__(self) -> None:
        if self.i1 is not None and any(v < 0 for v in self.i1):
            raise InvalidConfigError("inner step counts must be nonnegative")
        if self.i2 is not None and self.i2 < 0:
            raise InvalidConfigError("inner step counts must be nonnegative")
        if self.inner_rate is not None and self.inner_rate <= 0.0:
            raise InvalidConfigError("inner rate must be positive")
        if self.gamma is not None and not 0.0 < self.gamma < 1.0:
            raise InvalidConfigError("active gamma must lie in (0, 1)")


def required_iters(
    gamma: float, mu: float, diameter: float, lipschitz: float, tau_i: int, k: int
) -> Tuple[int, int]:
    """Minimum inner step counts for a certified deletion at time ``tau_i``.

    ``I_1 = ceil(log_{1/gamma}(mu D tau_i / L))`` and
    ``I_2 = ceil(2.2 log_{1/gamma} k)``, both floored at zero.
    """
    if not 0.0 < gamma < 1.0:
        raise NotStronglyConvexError(
            f"active certification needs a strict contraction, got gamma={gamma}"
        )
    if k < 1 or tau_i < 1:
        raise InvalidInputError("need k >= 1 and tau_i >= 1")
    if mu <= 0.0 or diameter <= 0.0 or lipschitz <= 0.0:
        raise InvalidInputError("need positive mu, D, L")
    log_inv = math.log(1.0 / gamma)
    i1 = max(0, math.ceil(math.log(mu * diameter * tau_i / lipschitz) / log_inv - 1e-12))
    i2 = max(0, math.ceil(2.2 * math.log(k) / log_inv - 1e-12))
    return i1, i2


def active_sigma(
    cfg: UnlearnerConfig,
    i: int,
    tau_i: int,
    u_i: int,
    eta_u: float,
    lipschitz: float,
    mu: float,
    gamma: float,
    i2: int,
) -> float:
    """Noise scale of the first-order active unlearner:

    ``gamma^{I_2} sqrt(i^omega omega / (2(omega-1) eps))
      * L (6 i + L gamma^{tau_i - u_i} eta_{u_i}) / (tau_i mu)``.
    """
    if mu <= 0.0:
        raise NotStronglyConvexError("active noise calibration needs mu > 0")
    if i < 1 or tau_i < u_i or u_i < 1 or i2 < 0:
        raise InvalidInputError("bad deletion bookkeeping for active_sigma")
    if not 0.0 < gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in (0, 1], got {gamma}")
    base = math.sqrt(cfg.omega * i**cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps))
    shift = lipschitz * (6.0 * i + lipschitz * gamma ** (tau_i - u_i) * eta_u) / (tau_i * mu)
    return gamma**i2 * base * shift


def second_order_sigma(
    cfg: UnlearnerConfig,
    i: int,
    tau_i: int,
    k: int,
    lipschitz: float,
    mu: float,
    beta: float,
    hessian_lipschitz: float,
) -> float:
    """Noise scale of the Newton variant (experimental, no certified budget)."""
    if mu <= 0.0:
        raise NotStronglyConvexError("second-order noise calibration needs mu > 0")
    if tau_i <= k or tau_i <= i:
        raise NumericError(f"noise formula undefined for tau_i={tau_i} with k={k}, i={i}")
    base = math.sqrt(cfg.alpha * cfg.omega * i**cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps))
    inner = 2.0 + k * beta * (hessian_lipschitz / mu - 1.0) / (mu * (tau_i - k))
    return base * lipschitz * max(inner, 0.0) / (mu * (tau_i - i))


class _AverageLoss:
    """Running aggregate of seen and deleted losses for inner descent phases.

    Quadratic streams use closed-form sums (sum of curvatures and
    curvature-weighted centers); anything else falls back to looping over the
    retained items.
    """

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.sum_matrix = np.zeros((dim, dim))
        self.sum_mc = np.zeros(dim)
        self.count = 0
        self.del_matrix = np.zeros((dim, dim))
        self.del_mc = np.zeros(dim)
        self.del_count = 0
        self.items: list = []
        self.deleted: list = []
        self.fast = True

    def see(self, item) -> None:
        if is_skip(item):
            return
        self.items.append(item)
        self.count += 1
        if isinstance(item, QuadraticCost) and self.fast:
            self.sum_matrix += item.matrix
            self.sum_mc += item.matrix @ item.center
        else:
            self.fast = False

    def delete(self, item) -> None:
        if is_skip(item):
            return
        self.deleted.append(item)
        self.del_count += 1
        if isinstance(item, QuadraticCost) and self.fast:
            self.del_matrix += item.matrix
            self.del_mc += item.matrix @ item.center

    def grad_all(self, z: np.ndarray) -> Tuple[np.ndarray, int]:
        if self.fast:
            return (self.sum_matrix @ z - self.sum_mc) / self.count, self.count
        total = np.zeros(self.dim)
        for item in self.items:
            total += eval_grad(item, z)[1]
        return total / self.count, self.count

    def grad_retained(self, z: np.ndarray) -> Tuple[np.ndarray, int]:
        n = self.count - self.del_count
        if n <= 0:
            return np.zeros(self.dim), 0
        if self.fast:
            mat = self.sum_matrix - self.del_matrix
            vec = self.sum_mc - self.del_mc
            return (mat @ z - vec) / n, n
        deleted = set(map(id, self.deleted))
        total = np.zeros(self.dim)
        for item in self.items:
            if id(item) not in deleted:
                total += eval_grad(item, z)[1]
        return total / n, n

    def retained_hessian(self, z: np.ndarray) -> np.ndarray:
        if self.fast:
            return self.sum_matrix - self.del_matrix
        deleted = set(map(id, self.deleted))
        total = np.zeros((self.dim, self.dim))
        for item in self.items:
            if id(item) not in deleted:
                total += item.hessian(z)
        return total

    def deleted_gradient_sum(self, z: np.ndarray) -> np.ndarray:
        total = np.zeros(self.dim)
        for item in self.deleted:
            total += eval_grad(item, z)[1]
        return total


def _check_schedule_shape(sched: DeletionSchedule, strict: bool) -> Tuple[bool, list]:
    """Enforce tau_{i-1} <= u_i <= tau_i; the active guarantee needs this shape."""
    ok = True
    notes = []
    prev_tau = 0
    for i, (u, tau) in enumerate(sched.entries, start=1):
        if not prev_tau <= u <= tau:
            if strict:
                raise ScheduleShapeError(
                    f"deletion {i}: index {u} outside [{prev_tau}, {tau}]"
                )
            ok = False
            notes.append(f"deletion {i}: index {u} outside [{prev_tau}, {tau}]; certification void")
        prev_tau = tau
    return ok, notes


def _run_active_engine(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    acfg: ActiveConfig,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
    z0: np.ndarray | None,
    strict_schedule: bool,
    second_order: bool,
    hessian_lipschitz: float,
) -> RunTrace:
    horizon = len(stream)
    sched.validate_horizon(horizon)
    if cls.strong_convexity <= 0.0:
        raise NotStronglyConvexError("the active unlearner requires mu > 0")
    shape_ok, shape_notes = _check_schedule_shape(sched, strict_schedule)

    probe = next((it for it in stream.items if not is_skip(it)), None)
    if probe is None:
        raise InvalidInputError("stream has no cost items")
    dim = probe.dim if isinstance(probe, QuadraticCost) else as_point(z0).size
    z = dom.project(as_point(z0, dim) if z0 is not None else np.zeros(dim))

    cfg = acfg.base
    inner_eta = acfg.inner_rate if acfg.inner_rate is not None else 1.0 / (
        cls.smoothness + cls.strong_convexity
    )
    gamma = acfg.gamma if acfg.gamma is not None else step_contraction(cls, inner_eta)

    noise = NoiseSource(seed)
    adapt = AdaptiveState() if isinstance(rates, AdaptiveRate) else None
    agg = _AverageLoss(dim)
    by_time = {tau: (i, u) for i, (u, tau) in enumerate(sched.entries, start=1)}

    outputs = np.empty((horizon, dim))
    losses = np.zeros(horizon)
    rate_hist = np.empty(horizon)
    events = []
    noise_events = []
    inner_steps = []
    i1_used = []
    warnings_log = list(shape_notes)
    certifiable = shape_ok
    if second_order:
        certifiable = False
        warnings_log.append("experimental: second-order unlearner has no certified budget")
    grad_evals = 0
    bound_steps = 0
    i2_resolved: int | None = acfg.i2

    for t in range(1, horizon + 1):
        item = stream.item_at(t)
        if is_skip(item):
            eta_t = rate(rates, t, adapt)
            event = EVENT_SKIP
        else:
            _, grad = eval_grad(item, z)
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
        agg.see(item)

        if t in by_time:
            i, u = by_time[t]
            needed_i1, needed_i2 = required_iters(
                gamma, cls.strong_convexity, dom.diameter, cls.lipschitz, t, sched.k
            )
            i1 = acfg.i1[i - 1] if acfg.i1 is not None else needed_i1
            if i2_resolved is None:
                i2_resolved = needed_i2
            i2 = i2_resolved
            if i1 < needed_i1 or i2 < needed_i2:
                certifiable = False
                warnings_log.append(
                    f"deletion {i}: inner steps ({i1}, {i2}) below certified "
                    f"minimum ({needed_i1}, {needed_i2})"
                )

            steps_done = 0
            for _ in range(i1):
                avg_grad, n = agg.grad_all(z)
                z, _ = _projected_step(z, avg_grad, inner_eta, dom.radius)
                grad_evals += n
                steps_done += 1
            agg.delete(stream.item_at(u))

            if second_order:
                hess = agg.retained_hessian(z)
                eigs = np.linalg.eigvalsh(hess)
                if eigs[0] <= 1e-12 * max(1.0, float(eigs[-1])):
                    raise NumericError("retained Hessian is singular; Newton correction undefined")
                correction = np.linalg.solve(hess, agg.deleted_gradient_sum(z))
                grad_evals += len(agg.deleted)
                z = dom.project(z + correction)
                sigma = second_order_sigma(
                    cfg, i, t, sched.k, cls.lipschitz, cls.strong_convexity,
                    cls.smoothness, hessian_lipschitz,
                )
            else:
                for _ in range(i2):
                    avg_grad, n = agg.grad_retained(z)
                    if n == 0:
                        break
                    z, _ = _projected_step(z, avg_grad, inner_eta, dom.radius)
                    grad_evals += n
                    steps_done += 1
                sigma = active_sigma(
                    cfg, i, t, u, float(rate_hist[u - 1]), cls.lipschitz,
                    cls.strong_convexity, gamma, i2,
                )

            xi = sigma * noise.normals(dim)
            z = z + xi
            delta = deletion_delta(stream, u, rate_hist, cls)
            noise_events.append(
                NoiseEvent(
                    ordinal=i, time=t, index=u, gap=t - u,
                    delta=delta, decay=gamma ** (t - u), sigma=sigma, xi=xi,
                )
            )
            inner_steps.append(steps_done)
            i1_used.append(i1)
            event = EVENT_UNLEARN

        outputs[t - 1] = z
        if not is_skip(item):
            losses[t - 1] = cost_value(item, z)
        events.append(event)

    return RunTrace(
        algorithm="active2" if second_order else "active",
        seed=seed,
        outputs=outputs,
        losses=losses,
        rates=rate_hist,
        events=tuple(events),
        noise_events=tuple(noise_events),
        p_history=np.array(adapt.history) if adapt is not None else None,
        grad_evals=grad_evals,
        inner_steps=tuple(inner_steps),
        i1_per_deletion=tuple(i1_used),
        i2=i2_resolved if sched.k else None,
        projection_bound_steps=bound_steps,
        certifiable=certifiable,
        warnings=tuple(warnings_log),
        config={
            "alpha": cfg.alpha, "eps": cfg.eps, "omega": cfg.omega,
            "inner_rate": inner_eta, "gamma": gamma,
        },
    )


def run_active(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    acfg: ActiveConfig,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
    z0: np.ndarray | None = None,
    strict_schedule: bool = True,
) -> RunTrace:
    """First-order active unlearner (descent toward the retained optimum).

    With an empty schedule the trace is bitwise identical to plain OGD.
    ``strict_schedule=False`` accepts deletions outside ``(tau_{i-1}, tau_i]``
    for simulation but marks the trace uncertifiable.
    """
    return _run_active_engine(
        stream, sched, rates, acfg, cls, dom, seed, z0, strict_schedule,
        second_order=False, hessian_lipschitz=0.0,
    )


def run_active_second_order(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    acfg: ActiveConfig,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
    z0: np.ndarray | None = None,
    strict_schedule: bool = True,
    hessian_lipschitz: float = 0.0,
) -> RunTrace:
    """Newton-correction variant: one exact second-order fixup per deletion.

    Quadratic losses have exact Hessians, so the correction lands on the
    retained optimum up to the residual full-data gradient.  Experimental: no
    certified budget is claimed and traces are flagged.
    """
    return _run_active_engine(
        stream, sched, rates, acfg, cls, dom, seed, z0, strict_schedule,
        second_order=True, hessian_lipschitz=hessian_lipschitz,
    )
