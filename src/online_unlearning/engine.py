"""The projected-OGD step loop that every runner shares.

``StepEngine`` runs ``z_t = proj(z_{t-1} - eta_t grad f_t(z_{t-1}))`` over a
stream and hands each deletion time to the runner's handler: the passive
unlearner adds noise, the active one descends then adds noise, retraining
replays from the deleted index, and discard-and-restart resets.  Between
deletions every runner is the same loop, so their outputs agree bit for bit
wherever their trajectories do.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable

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
from .ogd import AdaptiveRate, AdaptiveState, RateSchedule, rate, rates_array
from .rng import NoiseSource
from .trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, NoiseEvent, RunTrace

__all__ = ["StepEngine"]


def _step_evaluators(stream: CostStream):
    """Per-slot ``grad(t, z)`` for live 1-based slots, the stacked rows, and the dimension.

    Quadratic streams hand out their stacked rows ``(mats, centers, offsets)``,
    which ``StepEngine.advance`` reads as slices, one stretch of steps at a
    time; ``grad`` indexes them for a single slot.  Other costs go through
    ``eval_grad`` and have no rows.  The dimension is None when no quadratic
    reveals it.
    """
    if stream.all_quadratic() and stream.live.any():
        rows = stack_quadratics(stream)[:3]
        mats, centers = rows[0], rows[1]

        def grad(t: int, z: np.ndarray) -> np.ndarray:
            return mats[t - 1] @ (z - centers[t - 1])

        return grad, rows, centers.shape[1]
    items = stream.items
    return (
        lambda t, z: eval_grad(items[t - 1], z)[1],
        None,
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

    A non-finite gradient makes the step's iterate non-finite (``0 * inf``
    is NaN too), and the projection raises ``NumericError`` for it, so the
    loop tests no gradient; ``advance`` adds the step to the message.

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
        self._grad, self._rows, dim = _step_evaluators(stream)
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
        self._stream = stream
        self.live = stream.live.tolist()
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
        """Take the steps at slots ``lo..hi`` from the current state.

        A quadratic step is ``z - eta * A_t (z - c_t)`` projected, with its
        rows read from slices of the stacked arrays.  A clock-driven
        schedule takes the stretch's rates from one ``rates_array`` call;
        adaptive rates depend on the gradients, so they and opaque costs
        take ``rate`` and ``eval_grad`` step by step.
        """
        adapt, sched = self.adapt, self.rate_schedule
        path, p_hist, rates = self.path, self.p_hist, self.rates
        radius, clock0 = self.radius, self.clock0
        if self._rows is not None:
            costs, centers = self._rows[0][lo - 1:hi], self._rows[1][lo - 1:hi]
        else:
            costs, centers = self._stream.items[lo - 1:hi], repeat(None)
        if adapt is None:
            rates[lo - 1:hi] = rates_array(sched, hi - clock0)[lo - 1 - clock0:]
            etas = rates[lo - 1:hi].tolist()
        else:
            etas = repeat(None)
        z = self.z
        evals = binds = 0
        try:
            for t, cost, center, keep, eta in zip(
                range(lo, hi + 1), costs, centers, self.live[lo - 1:hi], etas
            ):
                if keep:
                    grad = eval_grad(cost, z)[1] if center is None else cost.dot(z - center)
                    evals += 1
                    if adapt is not None:
                        adapt.add(float(grad @ grad))
                        eta = rate(sched, t - clock0, adapt)
                    z, bound = _into_ball(z - eta * grad, radius)
                    binds += bound
                elif adapt is not None:
                    eta = rate(sched, t - clock0, adapt)
                path[t] = z
                if adapt is not None:
                    rates[t - 1] = eta
                    p_hist[t - 1] = adapt.p
        except NumericError as err:
            raise NumericError(f"{err} at step {t}") from None
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
        so the mask it was scored under is the stream's own.  Quadratic
        rows are scored in one batch, bit for bit the per-slot
        ``0.5 * diff @ (A @ diff) + o`` (``einsum`` or ``sum`` would not be);
        only a stream with SKIP slots copies its live rows.
        """
        live = self._stream.live
        losses = np.zeros(len(self.live))
        events = [EVENT_LEARN if keep else EVENT_SKIP for keep in live.tolist()]
        if self._rows is None:
            items = self._stream.items
            for t in (np.flatnonzero(live) + 1).tolist():
                losses[t - 1] = cost_value(items[t - 1], self.outputs[t - 1])
        else:
            mats, centers, offsets = self._rows
            outputs = self.outputs
            if not live.all():
                mats, centers, offsets, outputs = (
                    rows[live] for rows in (mats, centers, offsets, outputs)
                )
            diff = outputs - centers
            losses[live] = (
                0.5 * np.vecdot(diff, np.matmul(mats, diff[..., None])[..., 0]) + offsets
            )
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
