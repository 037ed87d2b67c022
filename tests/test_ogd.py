import math

import numpy as np
import pytest

from online_unlearning import (
    BallDomain,
    FnClass,
    InvalidConfigError,
    NonContractiveStepError,
    constant_rate_worst_case,
    contraction_coeff,
    rate,
    sensitivity,
)
from online_unlearning.core import project
from online_unlearning.ogd import (
    AdaptiveRate,
    AdaptiveState,
    ConstantRate,
    ConvexDecreasing,
    SCDecreasing,
    gamma_nominal,
    step_contraction,
)

from conftest import engine_step, iso_quad, random_spd_quad


class TestRates:
    def test_sc_decreasing(self):
        assert rate(SCDecreasing(mu=2.0), 5) == pytest.approx(0.1, rel=1e-12)

    def test_convex_decreasing(self):
        assert rate(ConvexDecreasing(diameter=2.0, lipschitz=1.0), 4) == pytest.approx(1.0, rel=1e-12)

    def test_adaptive(self):
        adapt = AdaptiveState(p=4.0)
        sched = AdaptiveRate(diameter=1.0, warm_floor=1.0)
        assert rate(sched, 3, adapt) == pytest.approx(0.5, rel=1e-12)

    def test_adaptive_warm_floor(self):
        sched = AdaptiveRate(diameter=1.0, warm_floor=1.5)
        assert rate(sched, 1, AdaptiveState(p=0.0)) == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_adaptive_nonincreasing(self):
        sched = AdaptiveRate(diameter=1.0, warm_floor=0.5)
        adapt = AdaptiveState()
        last = rate(sched, 1, adapt)
        rng = np.random.default_rng(3)
        for t in range(2, 50):
            adapt.add(float(rng.random()))
            now = rate(sched, t, adapt)
            assert now <= last + 1e-15
            last = now

    def test_mu_zero_rejected(self):
        with pytest.raises(InvalidConfigError):
            SCDecreasing(mu=0.0)

    def test_bad_time_rejected(self):
        with pytest.raises(Exception):
            rate(ConstantRate(eta=0.1), 0)


class TestConstantWorstCase:
    def test_table_value(self):
        eta = constant_rate_worst_case(1.0, 1.0, 100, 2, 2, 1.0)
        expected = math.sqrt(2.0 / (100.0 * (1.0 + 1.2 * 2**2.2 * 2 / 0.42)))
        assert eta == pytest.approx(expected, rel=1e-12)
        assert eta == pytest.approx(0.02709, rel=1e-3)

    def test_k_zero_reduces(self):
        eta = constant_rate_worst_case(1.0, 1.0, 2, 0, 2, 1.0)
        assert eta == pytest.approx(1.0, rel=1e-12)

    def test_hand_arithmetic(self):
        eta = constant_rate_worst_case(1.0, 1.0, 100, 1, 1, 1.0)
        expected = math.sqrt(2.0 / (100.0 * (1.0 + 1.2 / 0.42)))
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfigError):
            constant_rate_worst_case(1.0, 1.0, 0, 1, 1, 1.0)
        with pytest.raises(InvalidConfigError):
            constant_rate_worst_case(1.0, 1.0, 10, 1, 1, 0.0)


class TestOgdStep:
    def test_plain_step(self):
        f = iso_quad(1.0, [2.0, 0.0])
        out = engine_step(f, np.zeros(2), 0.5, BallDomain(2.0))
        assert np.allclose(out, [1.0, 0.0], rtol=1e-12)

    def test_skip_holds(self):
        out = engine_step(None, np.array([0.3, 0.3]), 0.7, BallDomain(1.0))
        assert np.array_equal(out, [0.3, 0.3])

    def test_projection_binds(self):
        f = iso_quad(1.0, [2.0, 0.0])
        out = engine_step(f, np.zeros(2), 2.0, BallDomain(1.0))
        assert np.allclose(out, [1.0, 0.0], rtol=1e-12)

    def test_output_always_inside(self):
        rng = np.random.default_rng(4)
        dom = BallDomain(0.8)
        for _ in range(300):
            f = random_spd_quad(rng, 3, 0.5, 3.0, 0.4)
            z = project(rng.standard_normal(3), dom)
            out = engine_step(f, z, float(rng.uniform(0.01, 0.6)), dom)
            assert float(np.linalg.norm(out)) <= dom.radius


class TestContraction:
    def test_midpoint_rate(self):
        # At eta = 2 / (beta + mu) the step factor is the nominal constant.
        cls = FnClass(1.0, 3.0, 1.0)
        assert contraction_coeff(cls, 0.5) == 0.5
        assert contraction_coeff(cls, 2.0 / (3.0 + 1.0)) == gamma_nominal(cls)

    def test_convex_case(self):
        assert contraction_coeff(FnClass(1.0, 3.0, 0.0), 0.5) == 1.0

    def test_small_rate(self):
        assert contraction_coeff(FnClass(1.0, 3.0, 1.0), 0.1) == pytest.approx(0.9, rel=1e-12)

    def test_rate_too_big(self):
        with pytest.raises(NonContractiveStepError):
            contraction_coeff(FnClass(1.0, 3.0, 1.0), 0.7)

    def test_sampled_pairs_respect_coefficient(self):
        rng = np.random.default_rng(5)
        dom = BallDomain(1.0)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        eta = 2.0 / (3.0 + 1.0)
        gamma = contraction_coeff(cls, eta)
        for _ in range(1000):
            f = random_spd_quad(rng, 2, 1.0, 3.0, 0.5)
            z1 = project(rng.standard_normal(2), dom)
            z2 = project(rng.standard_normal(2), dom)
            lhs = np.linalg.norm(engine_step(f, z1, eta, dom) - engine_step(f, z2, eta, dom))
            assert lhs <= gamma * np.linalg.norm(z1 - z2) + 1e-10


class TestSensitivity:
    def test_direct(self):
        assert sensitivity(FnClass(2.0, 2.0, 0.0), 0.1) == pytest.approx(0.2, rel=1e-12)

    def test_decreasing_rate(self):
        cls = FnClass(1.0, 1.0, 1.0)
        assert sensitivity(cls, rate(SCDecreasing(mu=1.0), 10)) == pytest.approx(0.1, rel=1e-12)

    def test_zero_gradient_class(self):
        assert sensitivity(FnClass(0.0, 1.0, 0.0), 0.3) == 0.0

    def test_step_displacement_bounded(self):
        rng = np.random.default_rng(6)
        dom = BallDomain(1.0)
        eta = 0.2
        for _ in range(1000):
            f = random_spd_quad(rng, 2, 1.0, 3.0, 0.5)
            cls_l = float(np.linalg.eigvalsh(f[0])[-1]) * (dom.radius + float(np.linalg.norm(f[1])))
            z = project(rng.standard_normal(2) * 1.5, dom)
            moved = np.linalg.norm(engine_step(f, z, eta, dom) - z)
            assert moved <= eta * cls_l + 1e-10


class TestArrayForms:
    @pytest.mark.parametrize(
        "sched", [SCDecreasing(mu=1.0), ConvexDecreasing(diameter=2.0, lipschitz=4.5)]
    )
    def test_arrays_equal_scalar_calls(self, sc_class, sched):
        rates = np.array([rate(sched, t) for t in range(1, 10_001)])
        gammas = step_contraction(sc_class, rates)
        deltas = sensitivity(sc_class, rates)
        assert gammas.shape == deltas.shape == rates.shape
        for eta, gamma, delta in zip(rates.tolist(), gammas.tolist(), deltas.tolist()):
            assert gamma == step_contraction(sc_class, eta)
            assert delta == sensitivity(sc_class, eta)

    @pytest.mark.parametrize("bad", [0.0, -0.1])
    def test_nonpositive_entry_rejected(self, sc_class, bad):
        rates = np.full(8, 0.1)
        rates[5] = bad
        with pytest.raises(InvalidConfigError):
            step_contraction(sc_class, rates)
        with pytest.raises(InvalidConfigError):
            sensitivity(sc_class, rates)


def test_gamma_nominal_values():
    assert gamma_nominal(FnClass(1.0, 3.0, 1.0)) == 0.5
    assert gamma_nominal(FnClass(1.0, 3.0, 0.0)) == 1.0
    assert gamma_nominal(FnClass(1.0, 2.0, 2.0)) == 0.0


def test_step_contraction_raw_can_exceed_one():
    assert step_contraction(FnClass(1.0, 3.0, 0.0), 1.0) == pytest.approx(2.0)
