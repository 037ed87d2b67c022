"""The projected-OGD step loop that every runner shares.

``StepEngine`` runs ``z_t = proj(z_{t-1} - eta_t grad f_t(z_{t-1}))`` over a
stream and hands each deletion time to the runner's handler: the passive
unlearner adds noise, the active one descends then adds noise, retraining
replays from the deleted index, and discard-and-restart resets.  Between
deletions every runner is the same loop, so their outputs agree bit for bit
wherever their trajectories do.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable

import numpy as np

from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    as_point,
    _into_ball,
    _row_blocks,
    stack_quadratics,
)
from .errors import InvalidInputError, NumericError
from .ogd import AdaptiveRate, AdaptiveState, RateSchedule, rate, rates_array
from .rng import NoiseSource
from .trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, NoiseEvent, RunTrace

__all__ = ["StepEngine"]


class StepEngine:
    """One projected-OGD run over ``stream`` with deletions ``sched``.

    The state is the iterate ``z`` and, for adaptive rates, the accumulator
    ``adapt.p``.  Steps read the slot mask ``live`` (a deleted slot holds
    ``z`` while the rate clock ``t - clock0`` still advances).  For every
    step ``t`` the engine keeps the trajectory, ``path[t]`` (``path[0]`` is
    the start point), the rate in ``rates[t-1]`` and, for adaptive rates,
    ``p_hist[t-1]``.  The trajectory is what the run emitted: ``outputs`` is
    ``path[1:]``, and a runner that rewrites history puts the emitted rows
    back before it is traced.  ``grad_evals`` counts gradient evaluations of
    stream losses and ``bound_steps`` the steps whose projection bound.

    A non-finite gradient makes the step's iterate non-finite (``0 * inf``
    is NaN too), and the projection raises ``NumericError`` for it, so the
    loop tests no gradient; ``advance`` adds the step to the message.

    The start point is ``z0`` projected, or the origin in the stream's
    dimension.  A stream with no cost items is refused.
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
        if not stream.live.any():
            raise InvalidInputError("stream has no cost items")
        self._rows = stack_quadratics(stream)[:3]
        dim = self._rows[1].shape[1]
        start = dom.project(np.zeros(dim) if z0 is None else as_point(z0, dim))
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
        self.p_hist = np.zeros(horizon) if self.adapt is not None else None
        self.rates = np.empty(horizon)
        self.grad_evals = 0
        self.bound_steps = 0

    def advance(self, lo: int, hi: int) -> None:
        """Take the steps at slots ``lo..hi`` from the current state.

        A step is ``z - eta * A_t (z - c_t)`` projected, with its rows read
        from slices of the stacked arrays.  A clock-driven schedule takes the
        stretch's rates from one ``rates_array`` call; adaptive rates depend
        on the gradients, so they take ``rate`` step by step.  An adaptive
        rate whose sum of squared gradient norms overflows would be 0 from
        then on, so the stretch is refused once it ends.  Numpy warns of
        none of these overflows.
        """
        adapt, sched = self.adapt, self.rate_schedule
        path, p_hist, rates = self.path, self.p_hist, self.rates
        radius, clock0 = self.radius, self.clock0
        mats, centers = self._rows[0][lo - 1:hi], self._rows[1][lo - 1:hi]
        if adapt is None:
            rates[lo - 1:hi] = rates_array(sched, hi - clock0)[lo - 1 - clock0:]
            etas = rates[lo - 1:hi].tolist()
        else:
            etas = repeat(None)
        z = self.z
        evals = binds = 0
        # Whatever overflows in a step ends in a refusal: a non-finite iterate,
        # or the adaptive sum below.
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                for t, mat, center, keep, eta in zip(
                    range(lo, hi + 1), mats, centers, self.live[lo - 1:hi], etas
                ):
                    if keep:
                        grad = mat.dot(z - center)
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
        if adapt is not None and adapt.p == math.inf:
            first = lo + int(np.argmax(p_hist[lo - 1:hi] == math.inf))
            raise NumericError(f"adaptive rate's gradient sum out of range at step {first}")
        self.z = z
        self.grad_evals += evals
        self.bound_steps += binds

    @property
    def outputs(self) -> np.ndarray:
        """The emitted points ``z_1..z_T``, a view of ``path``."""
        return self.path[1:]

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
            on_delete(i, u, tau)
            self.path[tau] = self.z
            if self.adapt is not None:
                self.p_hist[tau - 1] = self.adapt.p
            done = tau
        self.advance(done + 1, len(self.live))

    def trace(self, algorithm: str, seed: int, **fields) -> RunTrace:
        """The run's trace: outputs, their losses on the slots live in the stream, rates, events.

        Each slot is scored against the loss it held when the run stepped
        past it.  A slot is deleted no earlier than that (``u_i <= tau_i``),
        so the mask it was scored under is the stream's own.  The rows are
        scored ``_ROW_BLOCK`` at a time, bit for bit the per-slot
        ``0.5 * diff @ (A @ diff) + o`` (``einsum`` or ``sum`` would not be).
        """
        live = self._stream.live
        outputs = self.outputs
        losses = np.zeros(len(self.live))
        events = [EVENT_LEARN if keep else EVENT_SKIP for keep in live.tolist()]
        mats, centers, offsets = self._rows
        every = live.all()
        # A loss or a sum that overflows is refused below, without numpy's warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in _row_blocks(len(losses)):
                keep = slice(None) if every else live[rows]
                diff = outputs[rows][keep] - centers[rows][keep]
                losses[rows][keep] = 0.5 * np.vecdot(
                    diff, np.matmul(mats[rows][keep], diff[..., None])[..., 0]
                ) + offsets[rows][keep]
            total = float(np.sum(losses))
        if not math.isfinite(total):
            raise NumericError("the run's losses sum past the float range")
        for tau in self.sched.times:
            events[tau - 1] = EVENT_UNLEARN
        fields.setdefault("p_history", self.p_hist)
        return RunTrace(
            algorithm=algorithm,
            seed=seed,
            outputs=outputs,
            losses=losses,
            rates=self.rates,
            events=tuple(events),
            grad_evals=self.grad_evals,
            projection_bound_steps=self.bound_steps,
            **fields,
        )
