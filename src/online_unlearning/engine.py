"""The projected-OGD step loop that every runner shares.

``StepEngine`` runs ``z_t = proj(z_{t-1} - eta_t grad f_t(z_{t-1}))`` over a
stream and hands each deletion time to the runner's handler: the passive
unlearner adds noise, the active one descends then adds noise, retraining
replays from the deleted index, and discard-and-restart resets.  Between
deletions every runner is the same loop, so their outputs agree bit for bit
wherever their trajectories do.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    QuadraticCost,
    as_point,
    cost_value,
    eval_grad,
    _into_ball,
    stack_quadratics,
)
from .errors import InvalidInputError, NumericError
from .ogd import AdaptiveRate, AdaptiveState, RateSchedule, rate
from .rng import NoiseSource
from .trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, NoiseEvent, RunTrace

__all__ = ["StepEngine"]


def _projected_step(
    z: np.ndarray, grad: np.ndarray, eta: float, radius: float
) -> Tuple[np.ndarray, bool]:
    """Gradient step then ball projection; reports whether the projection bound.

    The projection is ``core.project``'s own (ulp nudge included), so runner
    outputs agree bitwise with ``ogd_step``.
    """
    return _into_ball(z - eta * grad, radius)


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
    return (
        lambda t, z: eval_grad(items[t - 1], z)[1],
        lambda t, z: cost_value(items[t - 1], z),
        next((it.dim for it in items if isinstance(it, QuadraticCost)), None),
    )


class StepEngine:
    """One projected-OGD run over ``stream`` with deletions ``sched``.

    The state is the iterate ``z`` and, for adaptive rates, the accumulator
    ``adapt.p``.  Steps read the slot mask ``live`` (a SKIP holds ``z`` while
    the rate clock ``t - clock0`` still advances).  For every step ``t`` the
    engine keeps the trajectory, ``path[t]`` (``path[0]`` is the start point)
    and ``p_hist[t-1]``, and the rate in ``rates[t-1]``; ``outputs`` holds what
    the run emitted.  ``grad_evals`` counts gradient evaluations of stream
    losses and ``bound_steps`` the steps whose projection bound.

    The start point is ``z0`` projected, or the origin in the dimension the
    stream's quadratics reveal.
    """

    def __init__(
        self,
        stream: CostStream,
        sched: DeletionSchedule,
        rates: RateSchedule,
        dom: BallDomain,
        z0: np.ndarray | None,
    ) -> None:
        horizon = len(stream)
        sched.validate_horizon(horizon)
        if horizon == 0:
            raise InvalidInputError("stream is empty")
        self._grad, self._loss, dim = _step_evaluators(stream)
        if z0 is not None:
            start = as_point(z0, dim)
        elif dim is None:
            raise InvalidInputError(
                "cannot infer the dimension: the stream holds no quadratic loss; pass z0"
            )
        else:
            start = np.zeros(dim)
        start = dom.project(start)
        self.dim = start.size
        self.sched = sched
        self.rate_schedule = rates
        self.radius = dom.radius
        self._live0 = stream.live
        self.live = self._live0.tolist()
        self.adapt = AdaptiveState() if isinstance(rates, AdaptiveRate) else None
        self.clock0 = 0
        self.z = start
        self.path = np.empty((horizon + 1, self.dim))
        self.path[0] = start
        self.p_hist = np.zeros(horizon)
        self.rates = np.empty(horizon)
        self.outputs = np.empty((horizon, self.dim))
        self.grad_evals = 0
        self.bound_steps = 0

    def advance(self, lo: int, hi: int) -> None:
        """Take the steps at slots ``lo..hi`` from the current state."""
        grad_at, live, adapt, sched = self._grad, self.live, self.adapt, self.rate_schedule
        path, p_hist, rates = self.path, self.p_hist, self.rates
        radius, clock0 = self.radius, self.clock0
        z = self.z
        evals = binds = 0
        for t in range(lo, hi + 1):
            if live[t - 1]:
                grad = grad_at(t, z)
                if not np.isfinite(grad).all():
                    raise NumericError(f"non-finite gradient at step {t}")
                evals += 1
                if adapt is not None:
                    adapt.add(float(grad @ grad))
                eta = rate(sched, t - clock0, adapt)
                z, bound = _projected_step(z, grad, eta, radius)
                binds += bound
            else:
                eta = rate(sched, t - clock0, adapt)
            rates[t - 1] = eta
            path[t] = z
            if adapt is not None:
                p_hist[t - 1] = adapt.p
        self.z = z
        self.grad_evals += evals
        self.bound_steps += binds

    def restore(self, t: int) -> None:
        """Return ``z`` and ``p`` to their state after step ``t`` of the kept trajectory."""
        self.z = self.path[t].copy()
        if self.adapt is not None:
            self.adapt.p = float(self.p_hist[t - 1]) if t else 0.0

    def add_noise(
        self, noise: NoiseSource, i: int, u: int, tau: int,
        delta: float, decay: float, sigma: float,
    ) -> NoiseEvent:
        """Add ``N(0, sigma^2 I)`` to ``z``; the event records the draw."""
        xi = sigma * noise.normals(self.dim)
        self.z = self.z + xi
        return NoiseEvent(
            ordinal=i, time=tau, index=u, gap=tau - u,
            delta=delta, decay=decay, sigma=sigma, xi=xi,
        )

    def run(self, on_delete: Callable[[int, int, int], None]) -> None:
        """Step through the stream, calling ``on_delete(i, u_i, tau_i)`` at each deletion time.

        The handler stands in for the step at ``tau_i``: it takes that step
        itself (or not) and may move ``z``, ``p``, the mask and the clock.
        The ``z`` it leaves is the state and the output at ``tau_i``.
        """
        done = 0
        for i, (u, tau) in enumerate(self.sched.entries, start=1):
            self.advance(done + 1, tau - 1)
            self.outputs[done:tau - 1] = self.path[done + 1:tau]
            on_delete(i, u, tau)
            self.path[tau] = self.outputs[tau - 1] = self.z
            if self.adapt is not None:
                self.p_hist[tau - 1] = self.adapt.p
            done = tau
        self.advance(done + 1, len(self.live))
        self.outputs[done:] = self.path[done + 1:]

    def trace(self, algorithm: str, seed: int, **fields) -> RunTrace:
        """The run's trace: outputs, their losses on the slots live in the stream, rates, events.

        Each slot is scored against the loss it held when the run stepped
        past it.  A slot is deleted no earlier than that (``u_i <= tau_i``),
        so the mask it was scored under is the stream's own.
        """
        losses = np.zeros(len(self.live))
        events = [EVENT_LEARN if keep else EVENT_SKIP for keep in self._live0.tolist()]
        for t in (np.flatnonzero(self._live0) + 1).tolist():
            losses[t - 1] = self._loss(t, self.outputs[t - 1])
        for tau in self.sched.times:
            events[tau - 1] = EVENT_UNLEARN
        fields.setdefault("p_history", self.p_hist.copy() if self.adapt is not None else None)
        return RunTrace(
            algorithm=algorithm,
            seed=seed,
            outputs=self.outputs,
            losses=losses,
            rates=self.rates,
            events=tuple(events),
            grad_evals=self.grad_evals,
            projection_bound_steps=self.bound_steps,
            **fields,
        )
