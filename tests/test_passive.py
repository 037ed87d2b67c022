import csv
import io
import json
import math

import numpy as np
import pytest

from online_unlearning import (
    DeletionSchedule,
    FnClass,
    InvalidConfigError,
    UnlearnerConfig,
    run_ogd,
    run_passive,
)
from online_unlearning.core import EMPTY_SCHEDULE, encode_vector
from online_unlearning.errors import InvalidInputError
from online_unlearning.ogd import SCDecreasing
from online_unlearning.passive import calibrated_sigma, noise_multiplier
from online_unlearning.trace import load_trace_outputs, write_json

from conftest import random_spd_quad, stream_of


def _cfg(**kw):
    base = dict(alpha=2.0, eps=1.0, omega=1.2)
    base.update(kw)
    return UnlearnerConfig(**base)


def _sc_stream(rng, horizon, dom, mu=1.0, beta=3.0):
    stream = stream_of(random_spd_quad(rng, 2, mu, beta, dom.radius / 2) for _ in range(horizon))
    lipschitz = stream.lipschitz_bound(dom)
    return stream, FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


class TestPassiveSigma:
    """``calibrated_sigma`` for given decay factors and sensitivities."""

    def test_unit_case(self):
        sigma = calibrated_sigma(_cfg(eps=1.0), 1, 1.0**5, 1.0)
        assert sigma == pytest.approx(math.sqrt(3.0), rel=1e-12)

    def test_decorated_case(self):
        sigma = calibrated_sigma(_cfg(eps=0.5), 1, 0.5**2, 0.8)
        assert sigma == pytest.approx(math.sqrt(6.0) * 0.25 * 0.8, rel=1e-12)

    def test_zero_sensitivity(self):
        assert calibrated_sigma(_cfg(), 1, 0.9**3, 0.0) == 0.0

    def test_bad_omega_rejected(self):
        with pytest.raises(InvalidConfigError):
            UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.0)

    def test_bad_eps_rejected(self):
        with pytest.raises(InvalidConfigError):
            UnlearnerConfig(alpha=2.0, eps=0.0)

    @pytest.mark.parametrize("omega, eps, i", [(1e12, 0.5, 2), (2.0, 5e-324, 1)],
                             ids=["i-to-the-omega", "over-eps"])
    def test_multiplier_past_the_float_range_rejected(self, omega, eps, i):
        with pytest.raises(InvalidConfigError, match=f"noise multiplier of deletion {i} out of"):
            noise_multiplier(_cfg(eps=eps, omega=omega), i)

    def test_negative_decay_rejected(self):
        with pytest.raises(InvalidInputError):
            calibrated_sigma(_cfg(), 1, -0.5, 1.0)

    def test_monotone_in_ordinal(self):
        values = [calibrated_sigma(_cfg(), i, 0.5**2, 1.0) for i in range(1, 8)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_decay_law_exact(self):
        cfg = _cfg()
        sigmas = [calibrated_sigma(cfg, 1, 0.5**gap, 0.7) for gap in range(0, 22)]
        for gap in range(21):
            assert sigmas[gap + 1] / sigmas[gap] == 0.5


class TestRunPassive:
    def test_deterministic(self, unit_ball):
        rng = np.random.default_rng(10)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((4, 9), (11, 20)))
        a = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls, unit_ball, seed=5)
        b = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls, unit_ball, seed=5)
        assert np.array_equal(a.outputs, b.outputs)
        assert np.array_equal(a.losses, b.losses)
        assert all(np.array_equal(x.xi, y.xi) for x, y in zip(a.noise_events, b.noise_events))

    def test_empty_schedule_is_plain_ogd(self, unit_ball):
        rng = np.random.default_rng(11)
        stream, cls = _sc_stream(rng, 25, unit_ball)
        rates = SCDecreasing(mu=1.0)
        noisy = run_passive(stream, EMPTY_SCHEDULE, rates, _cfg(), cls, unit_ball, seed=1)
        plain = run_ogd(stream, rates, unit_ball, cls, seed=99)
        assert np.array_equal(noisy.outputs, plain.outputs)
        assert noisy.noise_events == ()

    def test_noise_event_bookkeeping(self, unit_ball):
        rng = np.random.default_rng(12)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((4, 9), (11, 20)))
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls, unit_ball, seed=2)
        assert [e.time for e in trace.noise_events] == [9, 20]
        assert [e.ordinal for e in trace.noise_events] == [1, 2]
        # sigma matches the hand formula: eta_t = 1/t, decay = product of the
        # step factors max(|1 - eta_t mu|, |1 - eta_t beta|) over (4, 9]
        e = trace.noise_events[0]
        decay = math.prod(max(abs(1.0 - 1.0 / t), abs(1.0 - 3.0 / t)) for t in range(5, 10))
        assert e.delta == pytest.approx(cls.lipschitz / 4, rel=1e-12)
        assert e.decay == pytest.approx(decay, rel=1e-12)
        assert e.sigma == pytest.approx(calibrated_sigma(_cfg(), 1, decay, e.delta), rel=1e-12)
        assert trace.events[8] == "unlearn"
        assert trace.events[0] == "learn"

    def test_deleting_skip_leaves_run_unchanged(self, unit_ball):
        rng = np.random.default_rng(13)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[4] = None
        stream = stream_of(items)
        lipschitz = stream.lipschitz_bound(unit_ball)
        cls = FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(((5, 8),))
        rates = SCDecreasing(mu=1.0)
        noisy = run_passive(stream, sched, rates, _cfg(), cls, unit_ball, seed=3)
        plain = run_ogd(stream, rates, unit_ball, cls)
        assert noisy.noise_events[0].sigma == 0.0
        assert np.array_equal(noisy.outputs, plain.outputs)

    def test_skip_advances_clock_but_not_p(self, unit_ball):
        from online_unlearning.ogd import AdaptiveRate

        rng = np.random.default_rng(14)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(6)]
        items[2] = None
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        rates = AdaptiveRate(diameter=2.0, warm_floor=1.5)
        trace = run_passive(stream, EMPTY_SCHEDULE, rates, _cfg(), cls, unit_ball, seed=0)
        p = trace.p_history
        assert p[2] == p[1]  # a deleted slot leaves p unchanged
        assert np.array_equal(trace.outputs[2], trace.outputs[1])
        assert trace.rates[2] > 0.0

    def test_product_decay_recorded(self, unit_ball):
        rng = np.random.default_rng(15)
        stream, cls = _sc_stream(rng, 20, unit_ball)
        sched = DeletionSchedule(((6, 12),))
        trace = run_passive(
            stream, sched, SCDecreasing(mu=1.0), _cfg(), cls, unit_ball, seed=4,
        )
        # product of |1 - eta_t mu| over (6, 12] for eta_t = 1/t is 6/12
        assert trace.noise_events[0].decay == pytest.approx(0.5, rel=1e-12)

    def test_mean_over_seeds_matches_prenoise_point(self, unit_ball):
        """Monte-Carlo vs deterministic replay: the mean of z_tau is the pre-noise point."""
        rng = np.random.default_rng(16)
        stream, cls = _sc_stream(rng, 15, unit_ball)
        sched = DeletionSchedule(((3, 10),))
        rates = SCDecreasing(mu=1.0)
        cfg = _cfg(eps=0.05)
        base = run_passive(stream, sched, rates, cfg, cls, unit_ball, seed=0)
        event = base.noise_events[0]
        prenoise = base.output_at(10) - event.xi
        sigma = event.sigma
        assert sigma > 0

        n = 400
        acc = np.zeros(2)
        for seed in range(n):
            tr = run_passive(stream, sched, rates, cfg, cls, unit_ball, seed=seed)
            acc += tr.output_at(10)
        mean = acc / n
        se = sigma / math.sqrt(n)
        assert np.all(np.abs(mean - prenoise) <= 4.0 * se + 1e-12)

    def test_schedule_past_horizon_rejected(self, unit_ball):
        rng = np.random.default_rng(17)
        stream, cls = _sc_stream(rng, 10, unit_ball)
        from online_unlearning import InvalidScheduleError

        with pytest.raises(InvalidScheduleError):
            run_passive(stream, DeletionSchedule(((2, 15),)), SCDecreasing(mu=1.0),
                        _cfg(), cls, unit_ball, seed=0)

    def test_deletions_need_a_config(self, unit_ball):
        rng = np.random.default_rng(17)
        stream, cls = _sc_stream(rng, 10, unit_ball)
        with pytest.raises(InvalidConfigError):
            run_passive(stream, DeletionSchedule(((2, 5),)), SCDecreasing(mu=1.0),
                        None, cls, unit_ball, seed=0)

    def test_noncontractive_gap_flagged(self, unit_ball):
        # eta constant and above 2/beta inside the gap: run continues, flagged.
        from online_unlearning.ogd import ConstantRate

        rng = np.random.default_rng(18)
        stream, cls = _sc_stream(rng, 10, unit_ball)
        sched = DeletionSchedule(((2, 6),))
        trace = run_passive(stream, sched, ConstantRate(eta=0.9), _cfg(), cls,
                            unit_ball, seed=0)
        assert not trace.certifiable
        assert trace.warnings


class TestTraceSerialization:
    def test_csv_roundtrip_exact(self, unit_ball, tmp_path):
        rng = np.random.default_rng(19)
        stream, cls = _sc_stream(rng, 18, unit_ball)
        sched = DeletionSchedule(((3, 7),))
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls,
                            unit_ball, seed=8)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        outputs, rates, losses = load_trace_outputs(path)
        assert np.array_equal(outputs, trace.outputs)
        assert np.array_equal(rates, trace.rates)
        assert np.array_equal(losses, trace.losses)

    def test_csv_bytes_match_csv_writer_across_chunks(self, unit_ball, tmp_path):
        # 2100 rows span three write chunks; the reference is the csv.writer loop.
        rng = np.random.default_rng(21)
        stream, cls = _sc_stream(rng, 2100, unit_ball)
        sched = DeletionSchedule(((500, 1024), (1000, 1025), (2000, 2100)))
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls,
                            unit_ball, seed=3)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        writer.writerow(("t", "z", "eta", "loss", "event", "sigma"))
        sigmas = {event.time: event.sigma for event in trace.noise_events}
        for t in range(1, trace.horizon + 1):
            writer.writerow([
                t,
                encode_vector(trace.outputs[t - 1]),
                "%.17g" % trace.rates[t - 1],
                "%.17g" % trace.losses[t - 1],
                trace.events[t - 1],
                "%.17g" % sigmas[t] if t in sigmas else "",
            ])
        assert path.read_bytes() == reference.getvalue().encode()

    def test_summary_fields(self, unit_ball, tmp_path):
        rng = np.random.default_rng(20)
        stream, cls = _sc_stream(rng, 12, unit_ball)
        sched = DeletionSchedule(((2, 5),))
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), _cfg(), cls,
                            unit_ball, seed=8)
        path = tmp_path / "run.json"
        trace.write_summary(path)
        with open(path) as handle:
            summary = json.load(handle)
        assert summary["seed"] == 8
        assert len(summary["noise_events"]) == 1
        event = summary["noise_events"][0]
        assert event["t"] == 5 and event["u"] == 2
        assert summary["config"]["gamma_mode"] == "per-step-product"

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_json_refuses_a_non_finite_number(self, tmp_path, value):
        # JSON has no token for it: the writer fails instead of writing ``Infinity``.
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(tmp_path / "out.json", {"x": value})
