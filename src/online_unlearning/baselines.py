"""Reference unlearners: retraining from scratch and discard-and-restart.

Retraining recomputes the trajectory on the retained stream at every deletion
(exact unlearning, cost ``tau_i`` per deletion).  Discard-and-restart resets
the iterate to the start point and restarts the rate clock (exact and free,
but it throws the learned state away).  Both emit the same trace format as
the noisy unlearners, with zero noise events.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .core import BallDomain, CostStream, DeletionSchedule, FnClass
from .engine import StepEngine
from .errors import InvalidInputError
from .ogd import RateSchedule, rate
from .trace import RunTrace

__all__ = ["dp_to_olu", "run_discard_restart", "run_retraining"]


def dp_to_olu(alpha: float, eps: float, k: int) -> Tuple[float, float]:
    """Convert a private online learner's (alpha, eps) guarantee to a deletion one.

    An (alpha, eps) Renyi-DP online learner handles any ``k`` deletions as an
    ``(alpha / k, k^1.6 eps)`` unlearner, provided ``alpha >= 2k`` (group
    privacy at order alpha/k).
    """
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    if alpha < 2.0 * k:
        raise InvalidInputError(f"conversion requires alpha >= 2k, got alpha={alpha}, k={k}")
    if eps < 0.0:
        raise InvalidInputError(f"need eps >= 0, got {eps}")
    return alpha / k, k**1.6 * eps


def run_retraining(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    dom: BallDomain,
    cls: FnClass,
    seed: int = 0,
    z0: np.ndarray | None = None,
) -> RunTrace:
    """Retrain-from-scratch unlearner.

    At deletion time ``tau_i`` the prefix ``1..tau_i`` becomes OGD on the
    stream with the first ``i`` deleted indices skipped, and the run
    continues from its endpoint.  Post-deletion outputs therefore equal OGD on
    the retained stream exactly.  Nothing before ``u_i`` changes, so the run
    keeps its trajectory and replays only ``u_i..tau_i`` from the state at
    ``u_i - 1``; the counters still charge a replay from ``t = 1``
    (``replay_costs`` gets ``tau_i``, ``grad_evals`` every live slot up to it).
    """
    engine = StepEngine(stream, sched, rates, dom, z0)
    replay_costs = []

    def replay(i: int, u: int, tau: int) -> None:
        engine.advance(tau, tau)
        first_rates = engine.rates[u - 1:tau].copy()
        evals = engine.grad_evals
        engine.live[u - 1] = False
        engine.restore(u - 1)
        engine.advance(u, tau)
        # The trace reports the rates each step ran with the first time.
        engine.rates[u - 1:tau] = first_rates
        engine.grad_evals = evals + sum(engine.live[:tau])
        replay_costs.append(tau)

    engine.run(replay)
    return engine.trace("retrain", seed, replay_costs=tuple(replay_costs), config={})


def run_discard_restart(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    dom: BallDomain,
    cls: FnClass,
    seed: int = 0,
    z0: np.ndarray | None = None,
) -> RunTrace:
    """Reset to the start point at every deletion and restart the rate clock.

    Trivially exact (post-deletion outputs depend only on later items) at the
    price of forgetting everything learned so far.  Decreasing schedules must
    restart their clock to recover per-segment regret, hence the reset.  The
    deletion time itself takes no step and reports the rate at clock 1.
    """
    engine = StepEngine(stream, sched, rates, dom, z0)

    def restart(i: int, u: int, tau: int) -> None:
        engine.restore(0)
        engine.clock0 = tau
        engine.rates[tau - 1] = rate(rates, 1, engine.adapt)

    engine.run(restart)
    return engine.trace("discard", seed, p_history=None, config={})
