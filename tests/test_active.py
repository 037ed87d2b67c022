import math

import numpy as np
import pytest

from online_unlearning import (
    ActiveConfig,
    DeletionSchedule,
    FnClass,
    InvalidConfigError,
    NotStronglyConvexError,
    ScheduleShapeError,
    UnlearnerConfig,
    active_sigma,
    required_iters,
    run_active,
    run_active_second_order,
    comparators,
    run_ogd,
)
from online_unlearning.active import _SeenLosses, second_order_sigma
from online_unlearning.core import EMPTY_SCHEDULE, CostStream, retained, stack_quadratics
from online_unlearning.errors import NumericError
from online_unlearning.ogd import SCDecreasing, step_contraction

from conftest import iso_quad, quad, random_spd_quad, rows_of, stream_of


def _cfg(**kw):
    base = dict(alpha=2.0, eps=1.0, omega=1.2)
    base.update(kw)
    return UnlearnerConfig(**base)


def _sc_stream(rng, horizon, dom, mu=1.0, beta=3.0, common_center=None):
    items = []
    for _ in range(horizon):
        f = random_spd_quad(rng, 2, mu, beta, dom.radius / 2)
        if common_center is not None:
            f = quad(f[0], common_center)
        items.append(f)
    stream = stream_of(items)
    lipschitz = stream.lipschitz_bound(dom)
    return stream, FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


def _retained_erm(stream, sched, j, tau, dom):
    """The minimizer over the losses of steps ``1..tau`` less the first ``j`` deleted ones."""
    prefix = stream_of(rows_of(stream)[:tau])
    return comparators(prefix, DeletionSchedule(sched.entries[:j]), dom)[j]


class TestRequiredIters:
    def test_i1_example(self):
        i1, _ = required_iters(0.5, 1.0, 2.0, 1.0, 10, 1)
        assert i1 == 5  # ceil(log2 20)

    def test_i2_example(self):
        _, i2 = required_iters(0.5, 1.0, 2.0, 1.0, 10, 4)
        assert i2 == 5  # ceil(2.2 * log2 4)

    def test_single_deletion_needs_no_retained_phase(self):
        _, i2 = required_iters(0.5, 1.0, 2.0, 1.0, 10, 1)
        assert i2 == 0

    def test_floor_at_zero(self):
        i1, _ = required_iters(0.5, 1.0, 2.0, 1.0, 1, 1)
        assert i1 >= 0

    def test_gamma_one_rejected(self):
        with pytest.raises(NotStronglyConvexError):
            required_iters(1.0, 1.0, 2.0, 1.0, 10, 2)


class TestActiveSigma:
    def test_hand_value(self):
        sigma = active_sigma(_cfg(), 1, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=4)
        expected = 0.0625 * math.sqrt(3.0) * ((6.0 + 0.5**2 * 0.125) / 10.0)
        assert sigma == pytest.approx(expected, rel=1e-12)
        assert sigma == pytest.approx(0.06529, rel=1e-3)

    def test_vanishes_with_deep_retained_phase(self):
        small = active_sigma(_cfg(), 1, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=60)
        assert small < 1e-18

    def test_second_ordinal_hand_arithmetic(self):
        sigma = active_sigma(_cfg(), 2, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=4)
        expected = 0.0625 * math.sqrt(2**1.2 * 1.2 / 0.4) * ((12.0 + 0.25 * 0.125) / 10.0)
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_tau(self):
        values = [active_sigma(_cfg(), 1, tau, 2, 0.5, 1.0, 1.0, 0.9, i2=2) for tau in (5, 10, 20, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_mu_zero_rejected(self):
        with pytest.raises(NotStronglyConvexError):
            active_sigma(_cfg(), 1, 10, 8, 0.125, 1.0, 0.0, 0.5, i2=4)


class TestRunActive:
    def test_common_minimizer_fixed_point(self, unit_ball):
        rng = np.random.default_rng(30)
        center = np.array([0.2, -0.1])
        stream, cls = _sc_stream(rng, 30, unit_ball, common_center=center)
        sched = DeletionSchedule(((12, 15),))
        acfg = ActiveConfig(base=_cfg(eps=1e6), i1=(60,), i2=60)
        trace = run_active(stream, sched, SCDecreasing(mu=1.0), acfg, cls, unit_ball, seed=0)
        prenoise = trace.output_at(15) - trace.noise_events[0].xi
        assert np.linalg.norm(prenoise - center) < 1e-6

    def test_empty_schedule_bitwise_ogd(self, unit_ball):
        rng = np.random.default_rng(31)
        stream, cls = _sc_stream(rng, 25, unit_ball)
        rates = SCDecreasing(mu=1.0)
        active = run_active(stream, EMPTY_SCHEDULE, rates, ActiveConfig(base=_cfg()),
                            cls, unit_ball, seed=7)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert np.array_equal(active.outputs, plain.outputs)

    def test_post_phase_contraction_bound(self, unit_ball):
        """Distance to the retained optimum after both phases obeys the two-stage decay."""
        rng = np.random.default_rng(32)
        stream, cls = _sc_stream(rng, 40, unit_ball)
        sched = DeletionSchedule(((10, 14), (20, 28)))
        rates = SCDecreasing(mu=1.0)
        inner_eta = 1.0 / (cls.smoothness + cls.strong_convexity)
        gamma = step_contraction(cls, inner_eta)
        acfg = ActiveConfig(base=_cfg())
        trace = run_active(stream, sched, rates, acfg, cls, unit_ball, seed=1)
        for j, event in enumerate(trace.noise_events, start=1):
            tau = event.time
            prenoise = trace.output_at(tau) - event.xi
            target = _retained_erm(stream, sched, j, tau, unit_ball)
            i1 = trace.i1_per_deletion[j - 1]
            i2 = trace.i2
            bound = gamma**i2 * (
                gamma**i1 * unit_ball.diameter
                + 2.0 * j * cls.lipschitz / (tau * cls.strong_convexity)
            )
            assert np.linalg.norm(prenoise - target) <= bound + 1e-8

    def test_inner_step_contracts_to_average_optimum(self, unit_ball):
        """One inner GD step on the averaged objective contracts toward its optimum."""
        rng = np.random.default_rng(33)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.4) for _ in range(8)]
        inner_eta = 1.0 / 4.0
        gamma = max(abs(1.0 - inner_eta * 1.0), abs(1.0 - inner_eta * 3.0))
        total = sum(f[0] for f in items)
        rhs = sum(f[0] @ f[1] for f in items)
        target = np.linalg.solve(total, rhs)
        for _ in range(1000):
            z = rng.uniform(-1, 1, 2)
            step = z - inner_eta * (total @ z - rhs) / len(items)
            assert np.linalg.norm(step - target) <= gamma * np.linalg.norm(z - target) + 1e-10

    def test_inner_step_accounting(self, unit_ball):
        rng = np.random.default_rng(34)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((5, 9), (12, 21)))
        acfg = ActiveConfig(base=_cfg(), i1=(4, 6), i2=3)
        trace = run_active(stream, sched, SCDecreasing(mu=1.0), acfg, cls, unit_ball, seed=2)
        assert trace.i1_per_deletion == (4, 6)
        assert trace.inner_steps == (7, 9)
        assert not trace.certifiable  # counts below the certified minimum

    def test_schedule_shape_enforced(self, unit_ball):
        rng = np.random.default_rng(35)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        bad = DeletionSchedule(((2, 10), (3, 20)))  # u2 <= tau_1
        with pytest.raises(ScheduleShapeError):
            run_active(stream, bad, SCDecreasing(mu=1.0), ActiveConfig(base=_cfg()),
                       cls, unit_ball, seed=0)
        trace = run_active(stream, bad, SCDecreasing(mu=1.0), ActiveConfig(base=_cfg()),
                           cls, unit_ball, seed=0, strict_schedule=False)
        assert not trace.certifiable

    def test_requires_strong_convexity(self, unit_ball):
        rng = np.random.default_rng(36)
        stream, _ = _sc_stream(rng, 10, unit_ball)
        convex = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=0.0)
        with pytest.raises(NotStronglyConvexError):
            run_active(stream, DeletionSchedule(((2, 5),)), SCDecreasing(mu=1.0),
                       ActiveConfig(base=_cfg()), convex, unit_ball, seed=0)


class TestSecondOrder:
    def test_newton_lands_on_retained_optimum(self, unit_ball):
        rng = np.random.default_rng(37)
        stream, cls = _sc_stream(rng, 24, unit_ball)
        sched = DeletionSchedule(((8, 12),))
        acfg = ActiveConfig(base=_cfg(eps=1e6), i1=(80,))
        trace = run_active_second_order(stream, sched, SCDecreasing(mu=1.0), acfg,
                                        cls, unit_ball, seed=0)
        prenoise = trace.output_at(12) - trace.noise_events[0].xi
        target = _retained_erm(stream, sched, 1, 12, unit_ball)
        assert np.linalg.norm(prenoise - target) < 1e-8
        assert not trace.certifiable  # experimental, no certified budget

    def test_no_deletions_is_plain_ogd(self, unit_ball):
        rng = np.random.default_rng(38)
        stream, cls = _sc_stream(rng, 15, unit_ball)
        rates = SCDecreasing(mu=1.0)
        trace = run_active_second_order(stream, EMPTY_SCHEDULE, rates,
                                        ActiveConfig(base=_cfg()), cls, unit_ball, seed=0)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert np.array_equal(trace.outputs, plain.outputs)

    def test_isotropic_hessian_correction(self, unit_ball):
        """With an isotropic retained Hessian the correction is the scaled deleted gradient."""
        c_keep = np.array([0.2, 0.0])
        c_del = np.array([-0.3, 0.1])
        items = [iso_quad(2.0, c_keep) for _ in range(5)] + [iso_quad(2.0, c_del)]
        items += [iso_quad(2.0, c_keep) for _ in range(4)]
        stream = stream_of(items)
        cls = FnClass(lipschitz=stream_of(items[:1]).lipschitz_bound(unit_ball) + 1.0,
                      smoothness=2.0, strong_convexity=2.0)
        sched = DeletionSchedule(((6, 10),))
        acfg = ActiveConfig(base=_cfg(eps=1e6), i1=(0,))
        trace = run_active_second_order(stream, sched, SCDecreasing(mu=2.0), acfg,
                                        cls, unit_ball, seed=0)
        prenoise = trace.output_at(10) - trace.noise_events[0].xi
        # Reconstruct: correction = (sum retained A)^{-1} grad_deleted(z_hat), A = 2I.
        plain = run_ogd(stream, SCDecreasing(mu=2.0), unit_ball, cls)
        z_hat = plain.output_at(10)  # i1 = 0 inner steps
        grad_del = 2.0 * (z_hat - c_del)
        expected = z_hat + grad_del / (2.0 * 9)
        assert np.allclose(prenoise, expected, atol=1e-12)

    def test_singular_retained_hessian(self, unit_ball):
        items = [iso_quad(1.0, [0.1, 0.0])]
        stream = stream_of(items)
        cls = FnClass(lipschitz=2.0, smoothness=1.0, strong_convexity=1.0)
        sched = DeletionSchedule(((1, 1),))
        with pytest.raises(NumericError):
            run_active_second_order(stream, sched, SCDecreasing(mu=1.0),
                                    ActiveConfig(base=_cfg(), i1=(0,)), cls,
                                    unit_ball, seed=0)

    def test_sigma_formula_guard(self):
        with pytest.raises(NumericError):
            second_order_sigma(_cfg(), 1, 1, 1, 1.0, 1.0, 2.0)


class TestSlotTracking:
    """The inner phases track losses by slot, not by loss object, and read stacked rows."""

    C_A = np.array([0.4, 0.0])
    C_B = np.array([-0.2, 0.3])

    def test_reused_loss_object_deleted_at_one_slot(self, unit_ball):
        f_a, f_b = iso_quad(1.0, self.C_A), iso_quad(1.0, self.C_B)
        stream = stream_of([f_a, f_b] * 5)
        cls = FnClass(lipschitz=2.0, smoothness=1.0, strong_convexity=1.0)
        acfg = ActiveConfig(base=_cfg(eps=1e12), i1=(0,), i2=60)
        trace = run_active(stream, DeletionSchedule(((3, 8),)), SCDecreasing(mu=1.0), acfg,
                           cls, unit_ball, seed=0, z0=np.zeros(2))
        prenoise = trace.output_at(8) - trace.noise_events[0].xi
        # Slots 1, 5, 7 hold f_a and slots 2, 4, 6, 8 hold f_b once slot 3 is deleted.
        target = (3.0 * self.C_A + 4.0 * self.C_B) / 7.0
        assert np.allclose(prenoise, target, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_block_sums_match_the_slot_by_slot_loop(self, dim):
        # Up to 1e4 rows with deleted slots, seen in random ranges: every sum is bit for bit
        # the one of adding each live row in turn.
        rng = np.random.default_rng(dim)
        horizon = 10_000
        raw = rng.standard_normal((horizon, dim, dim))
        stream = CostStream(raw @ np.swapaxes(raw, 1, 2), rng.standard_normal((horizon, dim)))
        skipped = np.sort(rng.choice(np.arange(1, horizon + 1), size=700, replace=False))
        stream = retained(stream, DeletionSchedule(tuple((int(u), int(u)) for u in skipped)))
        mats, centers, _, live = stack_quadratics(stream)
        agg = _SeenLosses(stream, dim)
        sums = [np.zeros((dim, dim)), np.zeros(dim)]
        deleted = [np.zeros((dim, dim)), np.zeros(dim)]
        cuts = np.sort(rng.choice(np.arange(1, horizon), size=40, replace=False)).tolist()
        for tau in cuts + [horizon]:
            for t in range(agg.seen + 1, tau + 1):
                if live[t - 1]:
                    sums[0] += mats[t - 1]
                    sums[1] += mats[t - 1] @ centers[t - 1]
            agg.see(tau)
            u = int(rng.integers(1, tau + 1))
            if live[u - 1]:
                deleted[0] += mats[u - 1]
                deleted[1] += mats[u - 1] @ centers[u - 1]
            agg.delete(u)
            for got, want in zip(agg.sums + agg.deleted_sums, sums + deleted):
                assert got.tobytes() == want.tobytes()
        assert agg.slots == (np.flatnonzero(live) + 1).tolist()

    @pytest.mark.parametrize("i1", [(3,), (3, 3, 3, 3)])
    def test_i1_must_match_the_deletion_count(self, i1, unit_ball):
        stream, cls = _sc_stream(np.random.default_rng(39), 30, unit_ball)
        sched = DeletionSchedule(((2, 5), (6, 12), (13, 20)))
        with pytest.raises(InvalidConfigError, match="active.i1 has"):
            run_active(stream, sched, SCDecreasing(mu=1.0), ActiveConfig(base=_cfg(), i1=i1),
                       cls, unit_ball, seed=0)
