"""Reference unlearners: retraining from scratch and discard-and-restart.

Retraining recomputes the trajectory on the retained stream at every deletion
(exact unlearning, cost ``tau_i`` per deletion).  Discard-and-restart resets
the iterate to the origin and restarts the rate clock (exact and free,
but it throws the learned state away).  Both emit the same trace format as
the noisy unlearners, with zero noise events.
"""

from __future__ import annotations

import numpy as np

from .core import BallDomain, CostStream, DeletionSchedule
from .engine import StepEngine
from .ogd import RateSchedule, rate
from .trace import RunTrace

__all__ = ["run_discard_restart", "run_retraining"]


def run_retraining(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    dom: BallDomain,
    seed: int = 0,
) -> RunTrace:
    """Retrain-from-scratch unlearner.

    At deletion time ``tau_i`` the prefix ``1..tau_i`` becomes OGD on the
    stream with the first ``i`` deleted indices skipped, and the run
    continues from its endpoint.  Post-deletion outputs therefore equal OGD on
    the retained stream exactly.  Nothing before ``u_i`` changes, so the run
    keeps its trajectory and replays only ``u_i..tau_i`` from the state at
    ``u_i - 1``; the counters still charge a replay from ``t = 1``
    (``replay_costs`` gets ``tau_i``, ``grad_evals`` every live slot up to it).
    A replay rewrites emitted rows ``u_i..tau_i - 1`` of the engine's one
    trajectory, which later replays restore from: each row's emitted value
    is saved before the first replay that rewrites it and written back
    after the last replay.
    """
    engine = StepEngine(stream, sched, rates, dom)
    replay_costs = []
    saved = np.zeros(len(stream) + 1, dtype=bool)
    emitted = []  # (rows, their emitted values)

    def replay(i: int, u: int, tau: int) -> None:
        fresh = np.flatnonzero(~saved[u:tau]) + u
        saved[fresh] = True
        emitted.append((fresh, engine.path[fresh]))
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
        if i == sched.k:
            for rows, values in emitted:
                engine.path[rows] = values

    engine.run(replay)
    return engine.trace("retrain", seed, replay_costs=tuple(replay_costs), config={})


def run_discard_restart(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    dom: BallDomain,
    seed: int = 0,
) -> RunTrace:
    """Reset to the origin at every deletion and restart the rate clock.

    Trivially exact (post-deletion outputs depend only on later items) at the
    price of forgetting everything learned so far.  Decreasing schedules must
    restart their clock to recover per-segment regret, hence the reset.  The
    deletion time itself takes no step and reports the rate at clock 1.
    """
    engine = StepEngine(stream, sched, rates, dom)

    def restart(i: int, u: int, tau: int) -> None:
        engine.restore(0)
        engine.clock0 = tau
        engine.rates[tau - 1] = rate(rates, 1, engine.adapt)

    engine.run(restart)
    return engine.trace("discard", seed, p_history=None, config={})
