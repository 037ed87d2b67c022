"""The shared step loop: one trajectory, blocked loss scoring, and the refusal of non-finite steps."""

import numpy as np
import pytest

from online_unlearning import core
from online_unlearning import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    retained,
)
from online_unlearning.core import EMPTY_SCHEDULE, stack_quadratics
from online_unlearning.engine import StepEngine
from online_unlearning.errors import NumericError
from online_unlearning.harness import build_schedule, gen_stream
from online_unlearning.ogd import AdaptiveRate, ConstantRate, SCDecreasing
from online_unlearning.passive import UnlearnerConfig, run_ogd, run_passive

_DOM = BallDomain(1.0)
_CLS = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
_SCHED = DeletionSchedule(((3, 10), (12, 20), (25, 33)))


def _stream(seed: int, dim: int) -> CostStream:
    """A generated sc-quadratic stream with random nonzero offsets."""
    gs = gen_stream("sc-quadratic",
                    dict(dimension=dim, horizon=40, radius=1.0, mu=1.0, beta=3.0), seed)
    mats, centers, _, _ = stack_quadratics(gs.stream)
    offsets = np.random.default_rng(seed).random(40)
    return CostStream(mats, centers, offsets)


def _per_slot_losses(stream: CostStream, outputs: np.ndarray) -> np.ndarray:
    """The reference: each live slot scored on its own, zero at deleted slots."""
    mats, centers, offsets, live = stack_quadratics(stream)
    losses = np.zeros(len(stream))
    for t in np.flatnonzero(live).tolist():
        diff = outputs[t] - centers[t]
        losses[t] = 0.5 * float(diff @ (mats[t] @ diff)) + float(offsets[t])
    return losses


class TestBatchedLosses:
    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_all_live_matches_per_slot(self, seed, dim):
        stream = _stream(seed, dim)
        # The passive run emits noisy points outside the ball at its deletion times.
        cfg = UnlearnerConfig(alpha=2.0, eps=0.5)
        trace = run_passive(stream, _SCHED, SCDecreasing(mu=1.0), cfg, _CLS, _DOM, seed)
        assert trace.losses.tolist() == _per_slot_losses(stream, trace.outputs).tolist()

    @pytest.mark.parametrize("dim", [2, 5, 8])
    @pytest.mark.parametrize("seed", range(6))
    def test_skip_slots_match_per_slot(self, seed, dim):
        stream = retained(_stream(seed, dim), _SCHED)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), _DOM, _CLS, seed)
        expected = _per_slot_losses(stream, trace.outputs)
        assert trace.losses.tolist() == expected.tolist()
        assert trace.losses[[u - 1 for u in _SCHED.indices]].tolist() == [0.0] * _SCHED.k


def _scaled_row(step: int, scale: float, center: float | None = None) -> CostStream:
    """A 12-step stream whose row ``step`` has its curvature scaled (and its center moved)."""
    mats, centers, _, _ = stack_quadratics(_stream(0, 2))
    mats, centers = mats[:12].copy(), centers[:12].copy()
    mats[step - 1] *= scale
    if center is not None:
        centers[step - 1] = center
    return CostStream(mats, centers)


# Every refusal below comes without numpy's overflow warning.
@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestFiniteness:
    # A gradient past the float range makes the step non-finite: an adaptive
    # rate turns 0 and ``0 * inf`` is NaN.
    @pytest.mark.parametrize("rates", [ConstantRate(eta=0.5),
                                       AdaptiveRate(diameter=2.0, warm_floor=0.5)],
                             ids=["constant", "adaptive"])
    def test_gradient_past_the_float_range_mid_run(self, rates):
        stream = _scaled_row(7, 1e300, center=1e10)
        with pytest.raises(NumericError, match="non-finite iterate at step 7"):
            run_ogd(stream, rates, _DOM, _CLS, z0=np.zeros(2))

    def test_overflowing_constant_step_on_quadratics(self):
        # eta far past 2/beta, built directly.  Step 1's point is finite (about
        # 1e308) and projects onto the ball; step 2 leaves the float range.
        stream = _stream(0, 3)
        with pytest.raises(NumericError, match="non-finite iterate at step 2"):
            run_ogd(stream, ConstantRate(eta=1e308), _DOM, _CLS)

    def test_step_past_the_float_range_projects_onto_the_sphere(self):
        # Step 1's point has finite coordinates (1.2e308 each) and a norm past
        # the float range: it lands on the sphere toward the center, not at
        # the origin, and the run goes on inside the float range.
        stream = CostStream(np.stack([np.eye(3)] * 4), np.full((4, 3), 1.2))
        trace = run_ogd(stream, ConstantRate(eta=1e308), _DOM, _CLS, z0=np.zeros(3))
        assert np.allclose(trace.outputs[0], [np.sqrt(1 / 3)] * 3, rtol=1e-15, atol=0)
        assert np.all(np.linalg.norm(trace.outputs, axis=1) <= 1.0)

    def test_adaptive_gradient_sum_past_the_float_range(self):
        # A finite gradient whose squared norm overflows: the rate would be 0 from there on.
        stream = _scaled_row(4, 1e200)
        with pytest.raises(NumericError, match="gradient sum out of range at step 4"):
            run_ogd(stream, AdaptiveRate(diameter=2.0, warm_floor=0.5), _DOM, _CLS,
                    z0=np.zeros(2))

    def test_losses_past_the_float_range(self):
        engine = StepEngine(_stream(0, 3), EMPTY_SCHEDULE, SCDecreasing(mu=1.0), _DOM, None)
        engine.run(lambda i, u, tau: None)
        engine.outputs[5] = 1e200    # as a huge noise draw may leave an output
        with pytest.raises(NumericError, match="losses sum past the float range"):
            engine.trace("passive", 0)

    def test_non_finite_point_left_by_a_handler(self):
        engine = StepEngine(_stream(0, 3), EMPTY_SCHEDULE, SCDecreasing(mu=1.0), _DOM, None)
        engine.advance(1, 5)
        engine.z = np.full(3, np.inf)    # as a handler's noise may leave it
        with pytest.raises(NumericError, match="non-finite iterate at step 6"):
            engine.advance(6, 10)


class TestOneTrajectory:
    def test_trace_outputs_are_the_engine_path(self):
        engine = StepEngine(_stream(0, 3), _SCHED, SCDecreasing(mu=1.0), _DOM, None)
        engine.run(lambda i, u, tau: engine.advance(tau, tau))
        trace = engine.trace("passive", 0)
        assert trace.outputs.base is engine.path
        assert engine.p_hist is None and trace.p_history is None


class TestBlockedLosses:
    """Losses scored ``_ROW_BLOCK`` rows at a time are the one-batch losses bit for bit."""

    @pytest.mark.parametrize("block", [7, 1024])
    @pytest.mark.parametrize("skips", [False, True], ids=["live", "skips"])
    @pytest.mark.parametrize("horizon", [1023, 1024, 2500])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_matches_one_batch(self, monkeypatch, dim, horizon, skips, block):
        gs = gen_stream("sc-quadratic",
                        dict(dimension=dim, horizon=horizon, radius=1.0, mu=1.0, beta=3.0), dim)
        sched = build_schedule({"kind": "pattern", "k": 3, "gap": 40, "spacing": 300}, horizon)
        stream = retained(gs.stream, sched) if skips else gs.stream
        cfg = UnlearnerConfig(alpha=2.0, eps=0.5)

        def losses(rows: int) -> bytes:
            monkeypatch.setattr(core, "_ROW_BLOCK", rows)
            return run_passive(stream, sched, SCDecreasing(mu=1.0), cfg, gs.fn_class, _DOM,
                               0).losses.tobytes()

        assert losses(block) == losses(horizon)
