"""Active unlearner: shift the iterate toward the retained-data optimum, then add noise.

On the ``i``-th deletion the run performs the regular OGD update, then
``I_1,i`` inner gradient-descent steps on the average of every loss seen so
far, then ``I_2`` steps on the average of the retained losses, and finally
injects Gaussian noise whose scale shrinks with ``gamma ** I_2``.  Inner steps
use the fixed rate ``1 / (beta + mu)``; averaging keeps the inner objective's
curvature inside ``[mu, beta]`` so that rate is valid regardless of how many
losses have arrived.

Losses are tracked by slot: the seen ones are the live slots up to ``tau_i``,
the retained ones those less the deleted slots, and a loss object held at
several slots counts at each.  The phases sum the stream's stacked rows.

A second-order variant replaces the retained-phase descent with one Newton
correction built from exact quadratic Hessians.  It is experimental: its
noise formula carries no certified budget and traces are flagged accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import BallDomain, CostStream, DeletionSchedule, FnClass, _into_ball, stack_quadratics
from .engine import StepEngine
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    NotStronglyConvexError,
    NumericError,
    ScheduleShapeError,
)
from .ogd import RateSchedule, step_contraction
from .passive import UnlearnerConfig, deletion_calibration, noise_multiplier
from .rng import NoiseSource
from .trace import RunTrace

__all__ = [
    "ActiveConfig",
    "active_sigma",
    "check_active_run",
    "required_iters",
    "run_active",
    "run_active_second_order",
    "second_order_sigma",
]


@dataclass(frozen=True)
class ActiveConfig:
    """Active-run knobs on top of the (alpha, eps, omega) budget.

    ``i1`` (one count per deletion) and ``i2`` default to the certified
    minimum counts from :func:`required_iters`.  The inner rate is always
    ``1/(beta+mu)`` and ``gamma`` its contraction on the class.
    """

    base: UnlearnerConfig
    i1: Tuple[int, ...] | None = None
    i2: int | None = None

    def __post_init__(self) -> None:
        if self.i1 is not None and any(v < 0 for v in self.i1):
            raise InvalidConfigError("inner step counts must be nonnegative")
        if self.i2 is not None and self.i2 < 0:
            raise InvalidConfigError("inner step counts must be nonnegative")


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
    shift = lipschitz * (6.0 * i + lipschitz * gamma ** (tau_i - u_i) * eta_u) / (tau_i * mu)
    return gamma**i2 * noise_multiplier(cfg, i) * shift


def second_order_sigma(
    cfg: UnlearnerConfig,
    i: int,
    tau_i: int,
    k: int,
    lipschitz: float,
    mu: float,
    beta: float,
) -> float:
    """Noise scale of the Newton variant (experimental, no certified budget)."""
    if mu <= 0.0:
        raise NotStronglyConvexError("second-order noise calibration needs mu > 0")
    if tau_i <= k or tau_i <= i:
        raise NumericError(f"noise formula undefined for tau_i={tau_i} with k={k}, i={i}")
    base = math.sqrt(cfg.alpha * cfg.omega * i**cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps))
    inner = 2.0 - k * beta / (mu * (tau_i - k))  # quadratics: no Hessian-Lipschitz term
    return base * lipschitz * max(inner, 0.0) / (mu * (tau_i - i))


class _SeenLosses:
    """The losses an active run has seen, tracked by 1-based slot, for its inner phases.

    ``slots`` lists the live slots seen so far and ``deleted`` the deleted
    live slots in deletion order, so a loss object held at several slots
    counts once per slot.  Each list also keeps running sums of ``A_t`` and
    ``A_t c_t``, added in slot order one block of stacked rows per call.
    """

    def __init__(self, stream: CostStream, dim: int) -> None:
        self.live = stream.live
        self.rows = stack_quadratics(stream)[:2]
        self.seen = 0
        self.slots: list = []
        self.deleted: list = []
        self.sums = [np.zeros((dim, dim)), np.zeros(dim)]
        self.deleted_sums = [np.zeros((dim, dim)), np.zeros(dim)]

    def _add(self, slots: list, sums: list, lo: int, hi: int) -> None:
        """Take in the live slots ``lo..hi``, adding their rows to ``sums``.

        The running sum leads the block and ``np.add.accumulate`` adds in slot
        order, so the sums are bit for bit those of adding one row at a time.
        """
        index = np.flatnonzero(self.live[lo - 1:hi]) + (lo - 1)
        slots.extend((index + 1).tolist())
        if index.size:
            mats, centers = self.rows[0][index], self.rows[1][index]
            for k, rows in enumerate((mats, np.matmul(mats, centers[..., None])[..., 0])):
                block = np.concatenate((sums[k][None], rows))
                sums[k] = np.add.accumulate(block, axis=0, out=block)[-1].copy()

    def see(self, tau: int) -> None:
        """Take in the slots after the last one seen, up to ``tau``."""
        self._add(self.slots, self.sums, self.seen + 1, tau)
        self.seen = tau

    def delete(self, u: int) -> None:
        self._add(self.deleted, self.deleted_sums, u, u)

    def gradient_sum(self, z: np.ndarray, retained_only: bool) -> np.ndarray:
        """Summed gradient at ``z`` of every seen loss, or of the retained ones."""
        (mat, mc), (dmat, dmc) = self.sums, self.deleted_sums
        if retained_only:
            return (mat - dmat) @ z - (mc - dmc)
        return mat @ z - mc

    def deleted_gradient_sum(self, z: np.ndarray) -> np.ndarray:
        """Summed gradient at ``z`` of the deleted slots' losses, one slot at a time."""
        mats, centers = self.rows
        return sum((mats[t - 1] @ (z - centers[t - 1]) for t in self.deleted), np.zeros_like(z))


def check_active_run(sched: DeletionSchedule, acfg: ActiveConfig, mu: float,
                     strict_schedule: bool) -> list:
    """Refuse an active run its inputs rule out; returns the schedule-shape notes.

    ``i1`` needs one count per deletion and the class mu > 0.  Each deletion
    must satisfy tau_{i-1} <= u_i <= tau_i (the active guarantee needs it):
    a miss is refused under ``strict_schedule`` and noted otherwise.
    """
    if acfg.i1 is not None and len(acfg.i1) != sched.k:
        raise InvalidConfigError(f"active.i1 has {len(acfg.i1)} entries for {sched.k} deletions")
    if mu <= 0.0:
        raise NotStronglyConvexError("the active unlearner requires mu > 0")
    notes = []
    for i, ((u, tau), prev_tau) in enumerate(zip(sched.entries, (0, *sched.times)), start=1):
        if not prev_tau <= u <= tau:
            miss = f"deletion {i}: index {u} outside [{prev_tau}, {tau}]"
            if strict_schedule:
                raise ScheduleShapeError(miss)
            notes.append(f"{miss}; certification void")
    return notes


def _run_active(
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
) -> RunTrace:
    sched.validate_horizon(len(stream))
    shape_notes = check_active_run(sched, acfg, cls.strong_convexity, strict_schedule)
    engine = StepEngine(stream, sched, rates, dom, z0)

    cfg = acfg.base
    inner_eta = 1.0 / (cls.smoothness + cls.strong_convexity)
    gamma = step_contraction(cls, inner_eta)
    mu, diameter, lipschitz = cls.strong_convexity, dom.diameter, cls.lipschitz
    i2 = acfg.i2
    if i2 is None and sched.k:
        i2 = required_iters(gamma, mu, diameter, lipschitz, sched.times[0], sched.k)[1]

    noise = NoiseSource(seed)
    agg = _SeenLosses(stream, engine.dim)
    noise_events = []
    inner_steps = []
    i1_used = []
    warnings_log = list(shape_notes)
    if second_order:
        warnings_log.append("experimental: second-order unlearner has no certified budget")
    certifiable = not shape_notes and not second_order

    def inner_descent(z: np.ndarray, steps: int, retained_only: bool) -> np.ndarray:
        """Projected descent on the averaged loss; each step costs one gradient per loss."""
        n = len(agg.slots) - (len(agg.deleted) if retained_only else 0)
        if n == 0:
            return z
        for _ in range(steps):
            grad = agg.gradient_sum(z, retained_only) / n
            z, _ = _into_ball(z - inner_eta * grad, dom.radius)
            engine.grad_evals += n
            inner_steps[-1] += 1
        return z

    def descend(i: int, u: int, tau: int) -> None:
        nonlocal certifiable
        engine.advance(tau, tau)
        agg.see(tau)
        needed_i1, needed_i2 = required_iters(gamma, mu, diameter, lipschitz, tau, sched.k)
        i1 = acfg.i1[i - 1] if acfg.i1 is not None else needed_i1
        if i1 < needed_i1 or i2 < needed_i2:
            certifiable = False
            warnings_log.append(
                f"deletion {i}: inner steps ({i1}, {i2}) below certified "
                f"minimum ({needed_i1}, {needed_i2})"
            )

        inner_steps.append(0)
        z = inner_descent(engine.z, i1, retained_only=False)
        agg.delete(u)

        if second_order:
            hess = agg.sums[0] - agg.deleted_sums[0]
            eigs = np.linalg.eigvalsh(hess)
            if eigs[0] <= 1e-12 * max(1.0, float(eigs[-1])):
                raise NumericError("retained Hessian is singular; Newton correction undefined")
            correction = np.linalg.solve(hess, agg.deleted_gradient_sum(z))
            engine.grad_evals += len(agg.deleted)
            z = dom.project(z + correction)
            sigma = second_order_sigma(cfg, i, tau, sched.k, lipschitz, mu, cls.smoothness)
        else:
            z = inner_descent(z, i2, retained_only=True)
            eta_u = float(engine.rates[u - 1])
            sigma = active_sigma(cfg, i, tau, u, eta_u, lipschitz, mu, gamma, i2)

        engine.z = z
        delta = deletion_calibration(stream, engine.rates, cls, cfg, i, u, tau)[0]
        noise_events.append(engine.add_noise(noise, i, u, tau, delta, gamma ** (tau - u), sigma))
        i1_used.append(i1)

    engine.run(descend)
    return engine.trace(
        "active2" if second_order else "active",
        seed,
        noise_events=tuple(noise_events),
        inner_steps=tuple(inner_steps),
        i1_per_deletion=tuple(i1_used),
        i2=i2 if sched.k else None,
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
    return _run_active(
        stream, sched, rates, acfg, cls, dom, seed, z0, strict_schedule, second_order=False
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
) -> RunTrace:
    """Newton-correction variant: one exact second-order fixup per deletion.

    Quadratic losses have exact Hessians, so the correction lands on the
    retained optimum up to the residual full-data gradient.  Experimental: no
    certified budget is claimed and traces are flagged.
    """
    return _run_active(
        stream, sched, rates, acfg, cls, dom, seed, z0, strict_schedule, second_order=True
    )
