from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
import pytest

from online_unlearning import (
    ActiveConfig,
    BallDomain,
    DeletionSchedule,
    FnClass,
    InvalidInputError,
    UnlearnerConfig,
    build_schedule,
    retained,
    run_active,
    run_discard_restart,
    run_ogd,
    run_passive,
    run_retraining,
)
from online_unlearning.core import (
    EMPTY_SCHEDULE,
    CostStream,
    _into_ball,
    as_point,
    stack_quadratics,
)
from online_unlearning.errors import NumericError
from online_unlearning.ogd import (
    AdaptiveRate,
    ConstantRate,
    ConvexDecreasing,
    RateSchedule,
    SCDecreasing,
    rate,
)
from online_unlearning.trace import EVENT_LEARN, EVENT_SKIP, EVENT_UNLEARN, RunTrace

from conftest import loss_and_grad, random_spd_quad, row_at, rows_of, stream_of


def _stream(rng, horizon, dom, mu=1.0, beta=3.0):
    stream = stream_of(random_spd_quad(rng, 2, mu, beta, dom.radius / 2) for _ in range(horizon))
    lipschitz = stream.lipschitz_bound(dom)
    return stream, FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


class TestRetraining:
    def test_no_deletions_plain(self, unit_ball):
        rng = np.random.default_rng(40)
        stream, cls = _stream(rng, 20, unit_ball)
        rates = SCDecreasing(mu=1.0)
        tr = run_retraining(stream, EMPTY_SCHEDULE, rates, unit_ball, cls)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert np.array_equal(tr.outputs, plain.outputs)

    def test_deleting_skip_is_noop(self, unit_ball):
        rng = np.random.default_rng(41)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[3] = None
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        rates = SCDecreasing(mu=1.0)
        tr = run_retraining(stream, DeletionSchedule(((4, 8),)), rates, unit_ball, cls)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert np.array_equal(tr.outputs, plain.outputs)

    def test_post_deletion_equals_retained_ogd_bitwise(self, unit_ball):
        rng = np.random.default_rng(42)
        stream, cls = _stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((3, 9), (12, 17)))
        rates = SCDecreasing(mu=1.0)
        tr = run_retraining(stream, sched, rates, unit_ball, cls)
        oracle = run_ogd(retained(stream, sched), rates, unit_ball, cls)
        assert np.array_equal(tr.outputs[16:], oracle.outputs[16:])
        # Between the deletions the run matches the one-deletion retained stream.
        oracle1 = run_ogd(retained(stream, sched, upto=1), rates, unit_ball, cls)
        assert np.array_equal(tr.outputs[8:16], oracle1.outputs[8:16])

    @pytest.mark.parametrize("rates", [SCDecreasing(mu=1.0),
                                       AdaptiveRate(diameter=2.0, warm_floor=1.5)],
                             ids=["sc-decreasing", "adaptive"])
    def test_every_row_is_what_its_epoch_emitted(self, unit_ball, rates):
        # Each replay rewrites rows an earlier one rewrote (u_2 < tau_1, u_3 < u_2),
        # yet every emitted row is the retained OGD of the epoch that emitted it.
        rng = np.random.default_rng(50)
        stream, cls = _stream(rng, 40, unit_ball)
        sched = DeletionSchedule(((6, 12), (4, 20), (2, 31)))
        tr = run_retraining(stream, sched, rates, unit_ball, cls)
        # Epoch i emits steps tau_i..tau_{i+1} - 1, with tau_0 = 1 and tau_4 = T + 1.
        edges = (1,) + sched.times + (41,)
        for i in range(sched.k + 1):
            oracle = run_ogd(retained(stream, sched, upto=i), rates, unit_ball, cls)
            rows = slice(edges[i] - 1, edges[i + 1] - 1)
            assert np.array_equal(tr.outputs[rows], oracle.outputs[rows]), i

    def test_adaptive_rates_replayed(self, unit_ball):
        rng = np.random.default_rng(43)
        stream, cls = _stream(rng, 25, unit_ball)
        sched = DeletionSchedule(((5, 11),))
        rates = AdaptiveRate(diameter=unit_ball.diameter, warm_floor=1.5)
        tr = run_retraining(stream, sched, rates, unit_ball, cls)
        oracle = run_ogd(retained(stream, sched), rates, unit_ball, cls)
        assert np.array_equal(tr.outputs[10:], oracle.outputs[10:])

    def test_cost_counter(self, unit_ball):
        rng = np.random.default_rng(44)
        stream, cls = _stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((3, 9), (12, 17)))
        tr = run_retraining(stream, sched, SCDecreasing(mu=1.0), unit_ball, cls)
        assert tr.replay_costs == (9, 17)


class TestDiscardRestart:
    def test_no_deletions_plain(self, unit_ball):
        rng = np.random.default_rng(45)
        stream, cls = _stream(rng, 20, unit_ball)
        rates = SCDecreasing(mu=1.0)
        td = run_discard_restart(stream, EMPTY_SCHEDULE, rates, unit_ball, cls)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert np.array_equal(td.outputs, plain.outputs)

    def test_reset_semantics(self, unit_ball):
        rng = np.random.default_rng(46)
        stream, cls = _stream(rng, 20, unit_ball)
        sched = DeletionSchedule(((2, 7),))
        td = run_discard_restart(stream, sched, SCDecreasing(mu=1.0), unit_ball, cls)
        assert np.array_equal(td.output_at(7), np.zeros(2))

    def test_post_restart_equals_fresh_run_bitwise(self, unit_ball):
        rng = np.random.default_rng(47)
        stream, cls = _stream(rng, 24, unit_ball)
        sched = DeletionSchedule(((2, 9),))
        rates = SCDecreasing(mu=1.0)
        td = run_discard_restart(stream, sched, rates, unit_ball, cls)
        fresh = run_ogd(stream_of(rows_of(stream)[9:]), rates, unit_ball, cls)
        assert np.array_equal(td.outputs[9:], fresh.outputs)

    def test_invariant_to_pre_deletion_mutations(self, unit_ball):
        rng = np.random.default_rng(48)
        stream, cls = _stream(rng, 20, unit_ball)
        sched = DeletionSchedule(((4, 8),))
        rates = SCDecreasing(mu=1.0)
        base = run_discard_restart(stream, sched, rates, unit_ball, cls)
        for trial in range(10):
            items = rows_of(stream)
            mutate_at = int(rng.integers(0, 8))
            items[mutate_at] = random_spd_quad(rng, 2, 1.0, 3.0, 0.5)
            mutated = run_discard_restart(stream_of(items), sched, rates, unit_ball, cls)
            assert np.array_equal(mutated.outputs[8:], base.outputs[8:])

    def test_constant_extra_cost(self, unit_ball):
        rng = np.random.default_rng(49)
        stream, cls = _stream(rng, 20, unit_ball)
        sched = DeletionSchedule(((4, 8), (10, 15)))
        td = run_discard_restart(stream, sched, SCDecreasing(mu=1.0), unit_ball, cls)
        # Gradient evaluations: one per live non-deletion step, nothing extra.
        assert td.grad_evals == 18


# Retraining as it was before it kept its trajectory: every deletion replays
# the retained prefix from t = 1, and a second replay rebuilds the adaptive
# state and its history.  The checkpointed runner must reproduce it bit for bit.
# Bound projections are counted where the checkpointed runner computes them:
# every forward step, and each replay's steps from the deleted index ``u_i`` on.

@dataclass
class AdaptiveState:
    """Cumulative squared gradient norm; owned by a single run."""

    p: float = 0.0
    history: list = field(default_factory=list)

    def add(self, grad_sq_norm: float) -> None:
        if grad_sq_norm < 0.0:
            raise InvalidInputError("squared gradient norm cannot be negative")
        self.p += grad_sq_norm

    def record(self) -> None:
        self.history.append(self.p)


def _replay(
    items: Tuple, rates: RateSchedule, dom: BallDomain, z0: np.ndarray, count_from: int
) -> tuple[np.ndarray, int, int]:
    """OGD endpoint over ``items`` with the rate clock starting at 1.

    Also returns the gradient evaluations and the bound projections at
    steps ``count_from`` on.
    """
    z = dom.project(np.array(z0, dtype=np.float64))
    adapt = AdaptiveState() if isinstance(rates, AdaptiveRate) else None
    evals = binds = 0
    for t, item in enumerate(items, start=1):
        if item is None:
            continue
        _, grad = loss_and_grad(item, z)
        evals += 1
        if adapt is not None:
            adapt.add(float(grad @ grad))
        z, bound = _into_ball(z - rate(rates, t, adapt) * grad, dom.radius)
        binds += bound and t >= count_from
    return z, evals, binds


def reference_retraining(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    dom: BallDomain,
    cls: FnClass,
    seed: int = 0,
    z0: np.ndarray | None = None,
) -> RunTrace:
    """Retrain-from-scratch unlearner.

    At deletion time ``tau_i`` the entire prefix ``1..tau_i`` is recomputed
    over the stream with the first ``i`` deleted indices skipped, and the run
    continues from the replayed endpoint.  Post-deletion outputs therefore
    equal OGD on the retained stream exactly.
    """
    horizon = len(stream)
    sched.validate_horizon(horizon)
    dim = stack_quadratics(stream)[1].shape[1]
    start = dom.project(as_point(z0, dim) if z0 is not None else np.zeros(dim))
    z = start

    adapt = AdaptiveState() if isinstance(rates, AdaptiveRate) else None
    by_time = {tau: i for i, (_, tau) in enumerate(sched.entries, start=1)}

    outputs = np.empty((horizon, dim))
    losses = np.zeros(horizon)
    rate_hist = np.empty(horizon)
    events = []
    replay_costs = []
    grad_evals = bound_steps = 0
    current = stream

    for t in range(1, horizon + 1):
        item = row_at(current, t)
        if item is None:
            eta_t = rate(rates, t, adapt)
            event = EVENT_SKIP
        else:
            _, grad = loss_and_grad(item, z)
            if not np.all(np.isfinite(grad)):
                raise NumericError(f"non-finite gradient at step {t}")
            grad_evals += 1
            if adapt is not None:
                adapt.add(float(grad @ grad))
            eta_t = rate(rates, t, adapt)
            z, bound = _into_ball(z - eta_t * grad, dom.radius)
            bound_steps += bound
            event = EVENT_LEARN
        rate_hist[t - 1] = eta_t
        if adapt is not None:
            adapt.record()

        if t in by_time:
            i = by_time[t]
            current = retained(stream, sched, upto=i)
            z, evals, binds = _replay(rows_of(current)[:t], rates, dom, start,
                                      sched.entries[i - 1][0])
            grad_evals += evals
            bound_steps += binds
            replay_costs.append(t)
            if adapt is not None:
                adapt = _rebuild_adaptive(rows_of(current)[:t], rates, dom, start)
            event = EVENT_UNLEARN

        outputs[t - 1] = z
        # Score against the item as it stood when processed this tick.
        if item is not None:
            losses[t - 1] = loss_and_grad(item, z)[0]
        events.append(event)

    return RunTrace(
        algorithm="retrain",
        seed=seed,
        outputs=outputs,
        losses=losses,
        rates=rate_hist,
        events=tuple(events),
        p_history=np.array(adapt.history) if adapt is not None else None,
        grad_evals=grad_evals,
        replay_costs=tuple(replay_costs),
        projection_bound_steps=bound_steps,
        config={},
    )


def _rebuild_adaptive(items, rates, dom, z0) -> AdaptiveState:
    """Recompute the adaptive state as the replay saw it."""
    z = dom.project(np.array(z0, dtype=np.float64))
    adapt = AdaptiveState()
    for t, item in enumerate(items, start=1):
        if item is None:
            adapt.record()
            continue
        _, grad = loss_and_grad(item, z)
        adapt.add(float(grad @ grad))
        z, _ = _into_ball(z - rate(rates, t, adapt) * grad, dom.radius)
        adapt.record()
    return adapt


_RATES = {
    "sc-decreasing": SCDecreasing(mu=1.0),
    "convex-decreasing": ConvexDecreasing(diameter=2.0, lipschitz=4.5),
    "constant": ConstantRate(eta=0.3),
    "adaptive": AdaptiveRate(diameter=2.0, warm_floor=1.5),
}

_SCHEDULES = {
    # u_2 < u_1, and u_3 <= tau_2.
    "out-of-order": ((14, 18), (5, 24), (20, 31)),
    # Each index deleted before the previous deletion time.
    "behind-previous-tau": ((2, 10), (8, 15), (12, 19), (19, 23)),
    "adversarial-early": build_schedule(
        {"kind": "adversarial-early", "k": 4, "spacing": 8, "first_time": 6}, 40
    ).entries,
    # Index 9 is a deleted slot of the stream.
    "skip-slot": ((9, 12), (3, 20), (25, 25)),
}


def _retrain_stream(seed: int, horizon: int = 40, radius: float = 1.0):
    rng = np.random.default_rng(seed)
    items = [random_spd_quad(rng, 3, 1.0, 3.0, 0.8 * radius) for _ in range(horizon)]
    items[8] = None
    return stream_of(items)


def _assert_traces_equal(got: RunTrace, want: RunTrace) -> None:
    assert np.array_equal(got.outputs, want.outputs)
    assert np.array_equal(got.losses, want.losses)
    assert np.array_equal(got.rates, want.rates)
    assert (got.p_history is None) == (want.p_history is None)
    if want.p_history is not None:
        assert np.array_equal(got.p_history, want.p_history)
    assert got.events == want.events
    assert got.grad_evals == want.grad_evals
    assert got.replay_costs == want.replay_costs
    assert got.summary() == want.summary()


class TestCheckpointedRetraining:
    """The replay from ``u_i`` equals the replay from ``t = 1``, bit for bit."""

    @pytest.mark.parametrize("sched_name", sorted(_SCHEDULES))
    @pytest.mark.parametrize("rate_name", sorted(_RATES))
    def test_matches_full_replay(self, rate_name, sched_name):
        stream = _retrain_stream(60)
        dom = BallDomain(1.0)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(_SCHEDULES[sched_name])
        rates = _RATES[rate_name]
        _assert_traces_equal(
            run_retraining(stream, sched, rates, dom, cls),
            reference_retraining(stream, sched, rates, dom, cls),
        )

    @pytest.mark.parametrize("rate_name", sorted(_RATES))
    def test_matches_full_replay_when_projection_binds(self, rate_name):
        # Centers far outside a small ball: the projection binds on most steps.
        rng = np.random.default_rng(61)
        items = [random_spd_quad(rng, 3, 1.0, 3.0, 2.0) for _ in range(40)]
        stream = stream_of(items)
        dom = BallDomain(0.2)
        cls = FnClass(lipschitz=6.6, smoothness=3.0, strong_convexity=1.0)
        rates = _RATES[rate_name]
        assert run_ogd(stream, rates, dom, cls).projection_bound_steps > 10
        sched = DeletionSchedule(_SCHEDULES["out-of-order"])
        _assert_traces_equal(
            run_retraining(stream, sched, rates, dom, cls),
            reference_retraining(stream, sched, rates, dom, cls),
        )

    def test_baselines_report_projection_binds(self):
        # Centers at radius 2 in a radius-0.2 ball: plain OGD binds 14 times,
        # and both baselines count their own binds, replays included.
        rng = np.random.default_rng(61)
        stream = stream_of(random_spd_quad(rng, 3, 1.0, 3.0, 2.0) for _ in range(40))
        dom = BallDomain(0.2)
        cls = FnClass(lipschitz=6.6, smoothness=3.0, strong_convexity=1.0)
        rates = _RATES["sc-decreasing"]
        sched = DeletionSchedule(_SCHEDULES["out-of-order"])
        assert run_ogd(stream, rates, dom, cls).projection_bound_steps == 14
        for runner in (run_retraining, run_discard_restart):
            trace = runner(stream, sched, rates, dom, cls)
            assert trace.projection_bound_steps > 0
            assert trace.summary()["projection_bound_steps"] == trace.projection_bound_steps

def _quad_stream(horizon: int = 12) -> CostStream:
    rng = np.random.default_rng(63)
    return stream_of(random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(horizon))


_CLS = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
_RUNNERS = {
    "passive": lambda stream, sched, z0: run_passive(
        stream, sched, SCDecreasing(mu=1.0), UnlearnerConfig(alpha=2.0, eps=1.0), _CLS,
        BallDomain(1.0), 0, z0),
    "active": lambda stream, sched, z0: run_active(
        stream, sched, SCDecreasing(mu=1.0),
        ActiveConfig(base=UnlearnerConfig(alpha=2.0, eps=1.0)), _CLS, BallDomain(1.0), 0, z0),
    "retrain": lambda stream, sched, z0: run_retraining(
        stream, sched, SCDecreasing(mu=1.0), BallDomain(1.0), _CLS, 0, z0),
    "discard": lambda stream, sched, z0: run_discard_restart(
        stream, sched, SCDecreasing(mu=1.0), BallDomain(1.0), _CLS, 0, z0),
}


class TestStartPoint:
    @pytest.mark.parametrize("z0", [None, np.full(2, 0.1)], ids=["origin", "z0"])
    @pytest.mark.parametrize("name", sorted(_RUNNERS))
    def test_all_skip_stream_refused(self, name, z0):
        stream = CostStream(np.zeros((12, 2, 2)), np.zeros((12, 2)), live=np.zeros(12, dtype=bool))
        with pytest.raises(InvalidInputError, match="stream has no cost items"):
            _RUNNERS[name](stream, DeletionSchedule(((3, 6),)), z0)

    @pytest.mark.parametrize("name", sorted(_RUNNERS))
    def test_z0_sets_the_start_point(self, name):
        # Slot 1 is deleted at time 1, so no runner moves off its start point there.
        z0 = np.array([0.3, -0.2])
        stream = retained(_quad_stream(), DeletionSchedule(((1, 1),)))
        trace = _RUNNERS[name](stream, DeletionSchedule(((2, 2),)), z0)
        assert trace.outputs.shape == (12, 2)
        assert trace.outputs[0].tolist() == z0.tolist()
        origin = _RUNNERS[name](stream, DeletionSchedule(((2, 2),)), None)
        assert origin.outputs[0].tolist() == [0.0, 0.0]
