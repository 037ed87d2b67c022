import gc
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from online_unlearning import (
    BallDomain,
    CertificationRefusedError,
    DeletionSchedule,
    FnClass,
    InvalidInputError,
    OracleUnavailableError,
    UnlearnerConfig,
    analytic_bound,
    certify_passive_run,
    exact_divergence_quadratic,
    gaussian_renyi,
    mc_divergence_check,
)
from online_unlearning import certifier
from online_unlearning.certifier import (
    GaussianSummary,
    LedgerRow,
    PropagationResult,
    _interval_bounds,
    _simulate_batch,
    propagate_gaussians,
)
from online_unlearning.core import retained, stack_quadratics
from online_unlearning.harness import build_schedule, gen_stream
from online_unlearning.ogd import (
    AdaptiveRate,
    ConstantRate,
    ConvexDecreasing,
    SCDecreasing,
    rate,
    rates_array,
)
from online_unlearning.passive import deletion_calibration, run_ogd, run_passive
from online_unlearning.rng import event_normals

from conftest import iso_quad, random_spd_quad, row_at, rows_of, stream_of

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _cfg(**kw):
    base = dict(alpha=2.0, eps=0.5, omega=1.2)
    base.update(kw)
    return UnlearnerConfig(**base)


def _sc_stream(rng, horizon, dom, mu=1.0, beta=3.0):
    stream = stream_of(random_spd_quad(rng, 2, mu, beta, dom.radius / 2) for _ in range(horizon))
    lipschitz = stream.lipschitz_bound(dom)
    return stream, FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


class TestGaussianRenyi:
    def test_unit_case(self):
        assert gaussian_renyi(2.0, np.array([0.0]), np.array([1.0]), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_identical_means(self):
        m = np.array([0.3, -0.7])
        assert gaussian_renyi(3.0, m, m, 0.25) == 0.0

    def test_scaled_case(self):
        assert gaussian_renyi(3.0, np.array([2.0, 0.0]), np.zeros(2), 4.0) == pytest.approx(1.5, rel=1e-12)

    def test_zero_variance_signals_infinity(self):
        assert gaussian_renyi(2.0, np.zeros(1), np.ones(1), 0.0) == math.inf

    def test_symmetric_and_scaling(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m0, m1 = rng.standard_normal(3), rng.standard_normal(3)
            s2 = float(rng.uniform(0.1, 2.0))
            a = float(rng.uniform(1.1, 6.0))
            d01 = gaussian_renyi(a, m0, m1, s2)
            assert d01 == gaussian_renyi(a, m1, m0, s2)
            assert gaussian_renyi(a, m0, 2.0 * m1 - m0, s2) == pytest.approx(4.0 * d01, rel=1e-9)
            assert gaussian_renyi(2.0 * a, m0, m1, s2) == pytest.approx(2.0 * d01, rel=1e-12)


class TestAnalyticBound:
    def _arrays(self, horizon, sched, gamma=0.5, delta=1.0):
        gammas = np.full(horizon, gamma)
        deltas = np.zeros(horizon)
        for u, _ in sched.entries:
            deltas[u - 1] = delta
        return gammas, deltas

    def test_single_deletion_value(self):
        sched = DeletionSchedule(((2, 5),))
        cfg = _cfg(alpha=2.0, eps=0.5, omega=1.2)
        gammas, deltas = self._arrays(6, sched)
        cert = analytic_bound(sched, cfg, gammas, deltas)
        assert cert.max_bound == pytest.approx(2.0 * 0.5 * 0.2 / 1.2, rel=1e-12)
        assert cert.max_bound == pytest.approx(1.0 / 6.0, rel=1e-9)
        assert cert.within_budget

    def test_two_deletion_series(self):
        sched = DeletionSchedule(((2, 5), (4, 9)))
        cfg = _cfg(alpha=2.0, eps=0.5, omega=1.2)
        gammas, deltas = self._arrays(10, sched)
        cert = analytic_bound(sched, cfg, gammas, deltas)
        expected = 1.0 * (1.0 / 6.0) * (1.0 + 2.0 ** -1.2)
        assert cert.per_interval[1] == pytest.approx(expected, rel=1e-12)

    def test_series_capped_by_budget(self):
        entries = tuple((2 * j - 1, 2 * j) for j in range(1, 301))
        sched = DeletionSchedule(entries)
        cfg = _cfg(alpha=3.0, eps=0.25, omega=1.1)
        gammas, deltas = self._arrays(700, sched)
        cert = analytic_bound(sched, cfg, gammas, deltas)
        assert cert.max_bound <= cfg.budget + 1e-12
        assert cert.within_budget

    def test_ledger_feasible_random_schedules(self):
        """e >= 0 throughout and e = 0 at each interval end, k <= 5, T <= 200."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            horizon = int(rng.integers(10, 201))
            k = int(rng.integers(1, 6))
            times = np.sort(rng.choice(np.arange(2, horizon + 1), size=k, replace=False))
            entries = []
            used = set()
            for tau in times:
                candidates = [u for u in range(1, int(tau) + 1) if u not in used]
                u = int(rng.choice(candidates))
                used.add(u)
                entries.append((u, int(tau)))
            sched = DeletionSchedule(tuple(entries))
            gammas = rng.uniform(0.2, 1.0, size=horizon)
            deltas = np.zeros(horizon)
            for u, _ in entries:
                deltas[u - 1] = float(rng.uniform(0.1, 2.0))
            cert = analytic_bound(sched, _cfg(), gammas, deltas)
            for ledger in cert.ledgers:
                assert all(row.e >= 0.0 for row in ledger.rows)
                assert ledger.final_residual <= 1e-9 * 2.0

    def test_refuses_undercalibrated_noise(self):
        # Calibrating with a much smaller decay than the honest product leaves
        # residual shift at the deletion time.
        sched = DeletionSchedule(((2, 6),))
        gammas = np.full(8, 0.9)
        deltas = np.zeros(8)
        deltas[1] = 1.0
        with pytest.raises(CertificationRefusedError):
            analytic_bound(sched, _cfg(), gammas, deltas, decays=[0.9**20])

    def test_refuses_infeasible_shift_plan(self):
        # Retiring more shift than ever accumulated drives e below zero.
        sched = DeletionSchedule(((2, 6),))
        gammas = np.full(8, 0.5)
        deltas = np.zeros(8)
        deltas[1] = 1.0
        with pytest.raises(CertificationRefusedError):
            analytic_bound(sched, _cfg(), gammas, deltas, decays=[0.9])

    def test_refuses_sigma_mismatch(self):
        sched = DeletionSchedule(((2, 6),))
        gammas = np.full(8, 0.5)
        deltas = np.zeros(8)
        deltas[1] = 1.0
        with pytest.raises(CertificationRefusedError):
            analytic_bound(sched, _cfg(), gammas, deltas, sigmas=[123.0])

    def test_zero_sensitivity_contributes_nothing(self):
        sched = DeletionSchedule(((2, 5), (4, 9)))
        gammas = np.full(10, 0.5)
        deltas = np.zeros(10)
        deltas[3] = 1.0  # first deletion hits a deleted slot: delta stays 0
        cert = analytic_bound(sched, _cfg(), gammas, deltas)
        assert cert.per_interval[0] == 0.0
        assert cert.per_interval[1] == pytest.approx(
            _cfg().alpha * _cfg().eps * 0.2 / (1.2 * 2**1.2), rel=1e-12
        )


class TestSharedCalibration:
    """The runner's noise events and the certifier's ledger inputs are one calibration."""

    def _stream(self, dom):
        rng = np.random.default_rng(40)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, dom.radius / 2) for _ in range(60)]
        items[9] = None
        stream = stream_of(items)
        lipschitz = stream.lipschitz_bound(dom)
        return stream, FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)

    def _ledger_inputs(self, monkeypatch, stream, sched, rates, cfg, cls, dom):
        """Certify and return what the certifier handed the ledger."""
        seen = {}
        original = certifier.analytic_bound

        def recording(sched, cfg, gammas, deltas, decays=None, sigmas=None):
            seen.update(deltas=deltas.copy(), decays=list(decays), sigmas=list(sigmas))
            return original(sched, cfg, gammas, deltas, decays=decays, sigmas=sigmas)

        monkeypatch.setattr(certifier, "analytic_bound", recording)
        certify_passive_run(stream, sched, rates, cfg, cls, dom)
        return seen

    @pytest.mark.parametrize("kind", ["sc-decreasing", "convex-decreasing", "constant"])
    def test_runner_and_certifier_agree_bitwise(self, monkeypatch, unit_ball, kind):
        stream, cls = self._stream(unit_ball)
        rates = {
            "sc-decreasing": SCDecreasing(mu=1.0),
            "convex-decreasing": ConvexDecreasing(diameter=2.0, lipschitz=cls.lipschitz),
            "constant": ConstantRate(eta=0.3),
        }[kind]
        # The first deletion removes the deleted slot at t = 10.
        sched = DeletionSchedule(((10, 15), (4, 30), (25, 48)))
        cfg = _cfg()
        trace = run_passive(stream, sched, rates, cfg, cls, unit_ball, seed=0)
        seen = self._ledger_inputs(monkeypatch, stream, sched, rates, cfg, cls, unit_ball)

        assert trace.certifiable
        assert trace.noise_events[0].delta == 0.0
        assert len(trace.noise_events) == len(seen["sigmas"]) == 3
        for j, event in enumerate(trace.noise_events):
            assert event.delta == seen["deltas"][event.index - 1]
            assert event.decay == seen["decays"][j]
            assert event.sigma == seen["sigmas"][j]

    def test_noncontractive_gap_flagged_and_refused(self, unit_ball):
        stream, cls = self._stream(unit_ball)
        rates = ConstantRate(eta=0.9)  # above 2/beta: the step factor is 1.7
        sched = DeletionSchedule(((2, 6),))
        cfg = _cfg()
        assert deletion_calibration(stream, rates_array(rates, 60), cls, cfg, 1, 2, 6)[3] is False

        trace = run_passive(stream, sched, rates, cfg, cls, unit_ball, seed=0)
        assert not trace.certifiable
        assert "not contractive" in trace.warnings[0]
        reports = certify_passive_run(stream, sched, rates, cfg, cls, unit_ball)
        assert [r.passes for r in reports] == [False]
        assert reports[0].analytic_bound is None
        assert "non-contractive" in reports[0].note


class TestExactOracle:
    def test_deleting_skip_gives_zero(self, unit_ball):
        rng = np.random.default_rng(2)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[4] = None
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(((5, 9),))
        value = exact_divergence_quadratic(stream, sched, SCDecreasing(mu=1.0),
                                           _cfg(), cls, unit_ball, 1)
        assert value == 0.0

    def test_three_step_hand_propagation(self, unit_ball):
        """Isotropic chain: gap = prod(1 - eta_t a) * eta_u ||grad f_u(z_{u-1})||."""
        a = 2.0
        centers = [np.array([0.3, 0.0]), np.array([-0.2, 0.1]), np.array([0.1, 0.2])]
        items = [iso_quad(a, c) for c in centers]
        stream = stream_of(items)
        cls = FnClass(lipschitz=stream_of(items[:1]).lipschitz_bound(unit_ball) + 2.0,
                      smoothness=a, strong_convexity=a)
        sched = DeletionSchedule(((1, 3),))
        eta = 0.2
        rates = ConstantRate(eta=eta)
        cfg = _cfg()

        # Hand propagation of the two deterministic trajectories.
        z = np.zeros(2)
        z_run1 = z - eta * a * (z - centers[0])
        z_run2 = z.copy()
        for t in (2, 3):
            z_run1 = z_run1 - eta * a * (z_run1 - centers[t - 1])
            z_run2 = z_run2 - eta * a * (z_run2 - centers[t - 1])
        gap = np.linalg.norm(z_run1 - z_run2)
        factor = (1.0 - eta * a) ** 2
        grad_u = a * np.linalg.norm(np.zeros(2) - centers[0])
        assert gap == pytest.approx(factor * eta * grad_u, rel=1e-12)

        delta = eta * cls.lipschitz
        decay = (1.0 - eta * a) ** 2  # per-step factors, both |1 - eta a|
        sigma = math.sqrt(cfg.omega / (2.0 * (cfg.omega - 1.0) * cfg.eps)) * decay * delta
        expected = cfg.alpha * gap**2 / (2.0 * sigma**2)
        value = exact_divergence_quadratic(stream, sched, rates, cfg, cls, unit_ball, 1)
        assert value == pytest.approx(expected, rel=1e-9)

    def test_exact_below_analytic(self, unit_ball):
        rng = np.random.default_rng(3)
        for trial in range(20):
            stream, cls = _sc_stream(rng, 40, unit_ball)
            u = int(rng.integers(3, 10))
            tau = int(rng.integers(12, 39))
            sched = DeletionSchedule(((u, tau),))
            rates = SCDecreasing(mu=1.0)
            cfg = _cfg()
            reports = certify_passive_run(stream, sched, rates, cfg, cls, unit_ball)
            assert reports[0].exact_divergence is not None
            assert reports[0].exact_divergence <= reports[0].analytic_bound + 1e-9
            assert reports[0].passes

    def test_covariance_mismatch_refused(self, unit_ball):
        # Second deleted index after the first noise time: the two processes
        # propagate the first noise through different linear maps.
        rng = np.random.default_rng(4)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((3, 8), (12, 20)))
        with pytest.raises(OracleUnavailableError):
            exact_divergence_quadratic(stream, sched, SCDecreasing(mu=1.0),
                                       _cfg(), cls, unit_ball, 2)

    @staticmethod
    def _golden_base(radius: float = 1.0):
        """The golden tests' base stream: d = 3, T = 300, pattern k = 3, gap 20, spacing 75."""
        gs = gen_stream("sc-quadratic",
                        dict(dimension=3, horizon=300, radius=radius, mu=1.0, beta=3.0), 0)
        sched = build_schedule(
            {"kind": "pattern", "k": 3, "gap": 20, "spacing": 75, "first_time": 75}, 300)
        return gs.stream, sched, gs.fn_class, BallDomain(radius)

    @pytest.mark.parametrize("eps", [0.5, 1e-100, 1e-250, 1e-300])
    def test_covariance_mismatch_refused_at_every_noise_scale(self, eps):
        # At eps 1e-250 the noise is near 1e125 and the covariances' Frobenius
        # norms used to overflow, so intervals 2-3 were answered (2.69e-253, 1.04e-253).
        stream, sched, cls, dom = self._golden_base()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = certify_passive_run(stream, sched, SCDecreasing(mu=1.0), _cfg(eps=eps),
                                          cls, dom)
        assert reports[0].exact_divergence is not None and reports[0].note == ""
        for report in reports[1:]:
            assert report.exact_divergence is None
            assert report.note.startswith(
                "oracle unavailable: the two processes have different output covariances")

    def test_covariance_past_the_float_range_refused(self):
        # At radius 1000 and eps 1e-305 the noise scale squares past the float range.
        stream, sched, cls, dom = self._golden_base(radius=1000.0)
        reports = certify_passive_run(stream, sched, SCDecreasing(mu=1.0), _cfg(eps=1e-305),
                                      cls, dom)
        for report in reports:
            assert report.exact_divergence is None
            assert report.note == ("oracle unavailable: an output covariance entry is past "
                                   "the float range; no Gaussian form can be computed")

    def test_first_interval_always_available(self, unit_ball):
        rng = np.random.default_rng(5)
        stream, cls = _sc_stream(rng, 30, unit_ball)
        sched = DeletionSchedule(((3, 8), (12, 20)))
        value = exact_divergence_quadratic(stream, sched, SCDecreasing(mu=1.0),
                                           _cfg(), cls, unit_ball, 1)
        assert math.isfinite(value)

    def test_projection_binding_refused(self):
        # Alternating far centers with a near-2/beta constant rate swing the
        # trajectory outside the ball inside the gap.
        dom = BallDomain(0.1)
        items = [iso_quad(1.0, [0.09 if t % 2 else -0.09, 0.0]) for t in range(10)]
        stream = stream_of(items)
        cls = FnClass(lipschitz=1.0, smoothness=1.0, strong_convexity=1.0)
        sched = DeletionSchedule(((2, 6),))
        with pytest.raises(OracleUnavailableError):
            exact_divergence_quadratic(stream, sched, ConstantRate(eta=1.9),
                                       _cfg(), cls, dom, 1)

    def test_bind_after_tau_answers_as_the_truncated_stream(self):
        # The projection binds only after tau = 40.  Every later step applies
        # the same map to both processes, so the interval is answered (it was
        # refused while the pass ran on to the interval's end), with the value
        # of the stream cut at tau.
        stream, cls, dom, _ = TestForwardPass._setup(0.1)
        sched = DeletionSchedule(((40, 40),))
        rates = SCDecreasing(mu=1.0)
        assert run_ogd(stream, rates, dom, cls).projection_bound_steps > 0
        value = exact_divergence_quadratic(stream, sched, rates, _cfg(), cls, dom, 1)
        truncated = stream_of(rows_of(stream)[:40])
        assert value == exact_divergence_quadratic(truncated, sched, rates, _cfg(), cls, dom, 1)
        assert value > 0.0
        assert certify_passive_run(stream, sched, rates, _cfg(), cls, dom)[0].note == ""


class TestMonteCarlo:
    def test_null_case_within_three_standard_errors(self, unit_ball):
        rng = np.random.default_rng(7)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[4] = None
        # A second live deletion provides the noise; the first (a deleted slot) is null.
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(((5, 9),))
        # The slot is deleted already: sigma = 0 and both processes coincide.
        report = mc_divergence_check(stream, sched, SCDecreasing(mu=1.0), _cfg(),
                                     cls, unit_ball, 1, n=2000, seed=0)
        assert report.estimate == 0.0
        assert np.array_equal(report.mean_with_deleted, report.mean_without_deleted)

    def test_small_sample_is_wide(self, unit_ball):
        rng = np.random.default_rng(8)
        stream, cls = _sc_stream(rng, 20, unit_ball)
        sched = DeletionSchedule(((4, 10),))
        report = mc_divergence_check(stream, sched, SCDecreasing(mu=1.0), _cfg(),
                                     cls, unit_ball, 1, n=10, seed=0)
        assert report.n == 10
        assert report.wide

    def test_estimate_tracks_exact(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        exact = exact_divergence_quadratic(stream, sched, rates, cfg, cls, unit_ball, 1)
        report = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                     n=100_000, seed=3)
        assert abs(report.estimate - exact) <= 0.1 * exact
        assert abs(report.estimate - exact) <= 4.0 * report.std_error

    def test_shard_count_invariance(self, unit_ball, monkeypatch):
        # How the rows are split into blocks does not change the estimate.
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        one = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                  n=5000, seed=4)
        monkeypatch.setattr(certifier, "_MC_BLOCK", 833)
        many = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                   n=5000, seed=4)
        assert one.estimate == many.estimate
        assert np.array_equal(one.mean_with_deleted, many.mean_with_deleted)
        assert np.array_equal(one.mean_without_deleted, many.mean_without_deleted)

    def test_refuses_no_samples(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        with pytest.raises(InvalidInputError):
            mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1, n=0, seed=0)

    def test_certification_propagates_each_interval_once(self, unit_ball, monkeypatch):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        calls = []
        finish = certifier._ForwardPass._finish

        def counting(self, i):
            calls.append(i)
            return finish(self, i)

        monkeypatch.setattr(certifier._ForwardPass, "_finish", counting)
        reports = certify_passive_run(stream, sched, rates, cfg, cls, unit_ball,
                                      mc_samples=1000, seed=2)
        assert reports[0].mc_estimate is not None
        assert calls == [1]
        # Outside a certification the Monte-Carlo check propagates for itself.
        mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1, n=1000, seed=2)
        assert calls == [1, 1]


def _full_batch_reference(stream, rates_arr, dom, sigmas, noise_times, tau_i, seed,
                          process_id, rows, row_offset, dim):
    """Reference sample paths: every row simulated from t = 1, no shared prefix."""
    z = np.zeros((rows, dim))
    binding = 0
    for t in range(1, tau_i + 1):
        row = row_at(stream, t)
        if row is not None:
            eta = float(rates_arr[t - 1])
            grad = (z - row[1]) @ row[0]
            z = z - eta * grad
            norms = np.linalg.norm(z, axis=1)
            over = norms > dom.radius
            if np.any(over):
                binding += int(np.sum(over))
                z[over] *= (dom.radius / norms[over])[:, None]
        if t in noise_times:
            j = noise_times[t]
            sigma = sigmas[j - 1]
            draws = event_normals(seed, (process_id, j), rows, dim, row_offset)
            if sigma > 0.0:
                z = z + sigma * draws
    return z.sum(axis=0), binding


class TestCollapsedPrefix:
    """The broadcast prefix reproduces the full-batch simulation bit for bit."""

    @staticmethod
    def _setup(dim, horizon, entries, radius=1.0, center_radius=0.5, seed=0):
        rng = np.random.default_rng(seed)
        items = [random_spd_quad(rng, dim, 1.0, 3.0, center_radius) for _ in range(horizon)]
        sched = DeletionSchedule(entries)
        rates_arr = rates_array(SCDecreasing(mu=1.0), horizon)
        return stream_of(items), sched, rates_arr, BallDomain(radius)

    @staticmethod
    def _both(stream, sched, rates_arr, dom, sigmas, ordinal, rows, seed=9):
        noise_times = {tau: j for j, (_, tau) in enumerate(sched.entries[:ordinal], start=1)}
        tau_i = sched.times[ordinal - 1]
        dim = stack_quadratics(stream)[1].shape[1]
        for process_id, proc in enumerate((stream, retained(stream, sched, upto=ordinal))):
            args = (proc, rates_arr, dom, sigmas, noise_times, tau_i, seed, process_id, rows)
            yield _simulate_batch(*args, dim), _full_batch_reference(*args, 0, dim)

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 257])
    def test_matches_full_batch(self, dim, rows):
        stream, sched, rates_arr, dom = self._setup(dim, 30, ((6, 12),))
        for (got, got_bind), (ref, ref_bind) in self._both(
                stream, sched, rates_arr, dom, (0.3,), 1, rows):
            assert np.array_equal(got, ref)
            assert got_bind == ref_bind

    def test_binding_prefix_counts_every_row(self):
        stream, sched, rates_arr, dom = self._setup(5, 30, ((6, 12),), radius=0.05,
                                                    center_radius=0.9, seed=1)
        rows = 257
        for (got, got_bind), (ref, ref_bind) in self._both(
                stream, sched, rates_arr, dom, (0.3,), 1, rows):
            assert np.array_equal(got, ref)
            assert got_bind == ref_bind
        # A single-deletion interval ends at tau_1: every bound step is in the prefix.
        noise_times = {12: 1}
        _, bound_steps = _full_batch_reference(stream, rates_arr, dom, (0.3,), noise_times,
                                               12, 9, 0, 1, 0, 5)
        _, binding = _simulate_batch(stream, rates_arr, dom, (0.3,), noise_times,
                                     12, 9, 0, rows, 5)
        assert bound_steps > 0
        assert binding == rows * bound_steps

    @pytest.mark.parametrize("sigmas", [(0.3, 0.2), (0.0, 0.2), (0.0, 0.0)])
    def test_second_deletion_before_first_noise(self, sigmas):
        # u_2 < tau_1: rows fan out at the first noisy event and run to tau_2.
        stream, sched, rates_arr, dom = self._setup(5, 40, ((4, 15), (9, 25)))
        for (got, got_bind), (ref, ref_bind) in self._both(
                stream, sched, rates_arr, dom, sigmas, 2, 257):
            assert np.array_equal(got, ref)
            assert got_bind == ref_bind

    def test_zero_sigma_event_draws_nothing(self, monkeypatch):
        stream, sched, rates_arr, dom = self._setup(5, 40, ((4, 15), (9, 25)))
        calls = []

        def counting(seed, stream_key, *args):
            calls.append(stream_key)
            return event_normals(seed, stream_key, *args)

        monkeypatch.setattr(certifier, "event_normals", counting)
        _simulate_batch(stream, rates_arr, dom, (0.0, 0.2), {15: 1, 25: 2}, 25, 9, 0, 257, 5)
        assert calls == [(0, 2)]

    # Each case: setup arguments, sigmas and the interval simulated.
    _BLOCK_CASES = {
        "prefix-binds": ((5, 30, ((6, 12),), 0.05, 0.9, 1), (0.3,), 1),
        "both-noisy": ((5, 40, ((4, 15), (9, 25))), (0.3, 0.2), 2),
        "first-silent": ((5, 40, ((4, 15), (9, 25))), (0.0, 0.2), 2),
        "all-silent": ((5, 40, ((4, 15), (9, 25))), (0.0, 0.0), 2),
        "binds-after-noise": ((5, 40, ((4, 15), (9, 25)), 0.05, 0.9, 1), (0.3, 0.2), 2),
        "one-dim": ((1, 40, ((4, 15), (9, 25))), (0.3, 0.2), 2),
    }

    @pytest.mark.parametrize("block", [2, 3, 4])
    @pytest.mark.parametrize("case", sorted(_BLOCK_CASES))
    def test_blocks_match_full_batch(self, monkeypatch, block, case):
        monkeypatch.setattr(certifier, "_MC_BLOCK", block)
        setup, sigmas, ordinal = self._BLOCK_CASES[case]
        stream, sched, rates_arr, dom = self._setup(*setup)
        for rows in sorted({1, 2, 3, block + 1, 2 * block, 2 * block + 1, 257}):
            for (got, got_bind), (ref, ref_bind) in self._both(
                    stream, sched, rates_arr, dom, sigmas, ordinal, rows):
                assert np.array_equal(got, ref)
                assert got_bind == ref_bind

    def test_binds_after_noise_case_binds_after_fan_out(self):
        # The case above is only a test of the blocked step's bind count if
        # rows bind after the first noise event, not just in the prefix.
        setup, sigmas, _ = self._BLOCK_CASES["binds-after-noise"]
        stream, sched, rates_arr, dom = self._setup(*setup)
        rows = 257
        _, prefix_steps = _full_batch_reference(stream, rates_arr, dom, sigmas, {}, 15, 9, 0,
                                                1, 0, 5)
        _, bound = _full_batch_reference(stream, rates_arr, dom, sigmas, {15: 1, 25: 2}, 25, 9,
                                         0, rows, 0, 5)
        assert bound > rows * prefix_steps

    @pytest.mark.parametrize("dim", [2, 5, 9])
    def test_buffered_row_norm_is_linalg_norm(self, dim):
        rng = np.random.default_rng(dim)
        rows = 1000
        z = rng.standard_normal((rows, dim)) * np.exp(rng.uniform(-20.0, 20.0, (rows, 1)))
        mat, center = rng.standard_normal((dim, dim)), rng.standard_normal(dim)
        eta, radius = 0.37, 1.0
        moved = z - eta * ((z - center) @ mat)
        expected = np.linalg.norm(moved, axis=1)
        norms = np.empty(rows)
        scratch = (np.empty_like(z), np.empty_like(z), norms, np.empty(rows, dtype=bool))
        bound = certifier._projected_step(z, scratch, mat, center, eta, radius)
        assert np.array_equal(norms, expected)
        assert bound == int(np.sum(expected > radius))
        inside = expected <= radius
        assert np.array_equal(z[inside], moved[inside])
        projected = moved[~inside] * (radius / expected[~inside])[:, None]
        assert np.array_equal(z[~inside], projected)

    def test_shards_match_full_batch(self, unit_ball, monkeypatch):
        # Blocks of 1000 rows plus a one-row tail give the means of one full batch.
        monkeypatch.setattr(certifier, "_MC_BLOCK", 1000)
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        n = 3001
        report = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1, n=n, seed=6)
        rates_arr = rates_array(rates, len(stream))
        prop = propagate_gaussians(stream, sched, rates_arr, cfg, cls, unit_ball, 1)
        binding = 0
        for process_id, proc in enumerate((stream, retained(stream, sched, upto=1))):
            total, bound = _full_batch_reference(proc, rates_arr, unit_ball, prop.sigmas,
                                                 {20: 1}, 20, 6, process_id, n, 0, 2)
            mean = report.mean_with_deleted if process_id == 0 else report.mean_without_deleted
            assert np.array_equal(mean, total / n)
            binding += bound
        assert report.binding_events == binding

    def test_traced_peak_is_flat_in_n(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1, n=n, seed=6)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # About 0.48 MiB with 4096-row blocks drawing into reused buffers
        # (1.08 MiB when each block allocated its own draws).
        assert peaks[1] < 0.6 * 2**20
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]

    def test_traced_peak_on_shipped_config(self):
        # configs/passive_sc.json (d = 5), seed 0, interval 1: about 1.00 MiB
        # (2.47 MiB when each block allocated its own draws).
        raw = json.loads((CONFIGS / "passive_sc.json").read_text())
        dom = BallDomain(raw["radius"])
        params = dict(raw["stream"], dimension=raw["dimension"], horizon=raw["horizon"],
                      radius=raw["radius"])
        generated = gen_stream(params.pop("kind"), params, 0)
        stream, cls = generated.stream, generated.fn_class
        sched = build_schedule(raw["schedule"], len(stream))
        spec = raw["unlearner"]
        cfg = UnlearnerConfig(alpha=spec["alpha"], eps=spec["eps"], omega=spec["omega"])
        tracemalloc.start()
        try:
            mc_divergence_check(stream, sched, SCDecreasing(mu=cls.strong_convexity), cfg, cls,
                                dom, 1, n=100_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20


def _well_conditioned_setup(dom):
    items = [iso_quad(2.0, [0.4, 0.0]) for _ in range(9)]
    items.append(iso_quad(3.0, [-0.5, 0.0]))
    items.extend(iso_quad(1.0, [0.1, 0.05]) for _ in range(40))
    stream = stream_of(items)
    lipschitz = stream.lipschitz_bound(dom)
    cls = FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)
    sched = DeletionSchedule(((10, 20),))
    return stream, cls, sched, SCDecreasing(mu=1.0), _cfg()


# ---------------------------------------------------------------------------
# The per-interval propagation and the row-by-row ledger, kept as references
# ---------------------------------------------------------------------------

def _reference_propagate_gaussians(stream, sched, rates, cfg, cls, dom, ordinal):
    """Both processes simulated from t = 1 to ``tau_i`` for this interval alone."""
    horizon = len(stream)
    start, end = _interval_bounds(sched, ordinal, horizon)
    rates_arr = rates if isinstance(rates, np.ndarray) else rates_array(rates, horizon)

    sigmas = [
        deletion_calibration(stream, rates_arr, cls, cfg, j, u, tau)[2]
        for j, (u, tau) in enumerate(sched.entries[:ordinal], start=1)
    ]
    tau_i = sched.times[ordinal - 1]
    u_min = min(sched.indices[:ordinal])
    mats, centers, _, _ = stack_quadratics(stream)
    dim = centers.shape[1]
    mats, centers = list(mats), list(centers)
    eye = np.eye(dim)
    eye.flags.writeable = False

    lives = (stream.live.tolist(), retained(stream, sched, upto=ordinal).live.tolist())
    means = [np.zeros(dim), np.zeros(dim)]
    # One linear-part product per (process, noise event), started at injection.
    prods = ({}, {})
    noise_by_time = {tau: j for j, (_, tau) in enumerate(sched.entries[:ordinal], start=1)}

    for t in range(1, tau_i + 1):
        eta = float(rates_arr[t - 1])
        mat, center = mats[t - 1], centers[t - 1]
        for run in (0, 1):
            if lives[run][t - 1]:
                grad = mat @ (means[run] - center)
                moved = means[run] - eta * grad
                norm = float(np.linalg.norm(moved))
                if norm > dom.radius * (1.0 + 1e-12):
                    if t >= u_min:
                        raise OracleUnavailableError(
                            f"projection binds at t={t} (>= first deleted index {u_min}); "
                            "the output law is not Gaussian"
                        )
                    moved = moved * (dom.radius / norm)
                means[run] = moved
                if prods[run]:
                    linear = eye - eta * mat
                    for j in prods[run]:
                        prods[run][j] = linear @ prods[run][j]
        if t in noise_by_time:
            j = noise_by_time[t]
            prods[0][j] = eye
            prods[1][j] = eye

    covs = []
    for run in (0, 1):
        cov = np.zeros((dim, dim))
        for j, sigma in enumerate(sigmas, start=1):
            if sigma > 0.0:
                pj = prods[run][j]
                cov += sigma**2 * (pj @ pj.T)
        covs.append(cov)
    cov_scale = max((s**2 for s in sigmas), default=0.0)
    gap = float(np.linalg.norm(covs[0] - covs[1], ord="fro"))
    ref = max(float(np.linalg.norm(covs[0], ord="fro")), float(np.linalg.norm(covs[1], ord="fro")))
    if gap > 1e-9 * max(ref, 1e-300):
        raise OracleUnavailableError(
            "the two processes have different output covariances over this interval "
            "(a deleted index falls after an earlier noise time); no shared-covariance form exists"
        )

    if cov_scale > 0.0:
        matrix = covs[0] / cov_scale
    else:
        matrix = np.zeros((dim, dim))
    return PropagationResult(
        ordinal=ordinal,
        interval=(start, end),
        with_deleted=GaussianSummary(mean=means[0], cov_scale=cov_scale, matrix=matrix),
        without_deleted=GaussianSummary(mean=means[1], cov_scale=cov_scale, matrix=matrix),
        sigmas=tuple(sigmas),
    )


def _reference_ledger_rows(entries, gammas, deltas_at, decays, ordinal, tol):
    """The ledger built one ``LedgerRow`` per step (verbatim but for the return)."""
    tau_end = entries[ordinal - 1][1]
    s_at = {u: deltas_at[u] for u, _ in entries[:ordinal]}
    a_at = {tau: decays[j] * deltas_at[u] for j, (u, tau) in enumerate(entries[:ordinal])}
    rows = []
    e = 0.0
    for t in range(1, tau_end + 1):
        gamma_t = float(gammas[t - 1])
        s_t = s_at.get(t, 0.0)
        a_t = a_at.get(t, 0.0)
        e = gamma_t * e + (s_t - a_t)
        if e < -tol:
            raise CertificationRefusedError(
                f"interval {ordinal}: residual shift {e} < 0 at t={t}; infeasible shift plan"
            )
        e = max(e, 0.0)
        rows.append(LedgerRow(t=t, s=s_t, a=a_t, gamma=gamma_t, e=e))
    if rows and rows[-1].e > tol:
        raise CertificationRefusedError(
            f"interval {ordinal}: residual shift {rows[-1].e} at tau_{ordinal}={tau_end}; "
            "noise is under-calibrated for the actual contraction"
        )
    return tuple(rows)


def _outcome(fn, *args):
    """The call's result, or the type and text of the refusal it raised."""
    try:
        return fn(*args), None
    except (OracleUnavailableError, CertificationRefusedError) as err:
        return None, (type(err), str(err))


def _assert_same_propagation(got, ref):
    assert (got.ordinal, got.interval, got.sigmas) == (ref.ordinal, ref.interval, ref.sigmas)
    for a, b in ((got.with_deleted, ref.with_deleted), (got.without_deleted, ref.without_deleted)):
        assert np.array_equal(a.mean, b.mean)
        assert a.cov_scale == b.cov_scale
        assert np.array_equal(a.matrix, b.matrix)


# u_i > tau_{i-1} (each retained process continues the previous one);
# u_2 <= tau_1, u_3 < u_1 and u_4 = tau_3 (retained processes branch from
# the full path); u_i = tau_i; and a slot deleted already (t = 25, so sigma_1 = 0).
_PASS_SCHEDULES = {
    "chained": ((30, 40), (55, 70), (80, 95), (100, 110)),
    "branching": ((30, 40), (35, 70), (10, 95), (95, 110)),
    "u-equals-tau": ((40, 40), (70, 70), (95, 95), (20, 110)),
    "deleted-skip": ((25, 40), (45, 70), (12, 95), (105, 110)),
}


class TestForwardPass:
    """One forward pass gives every interval what a propagation from t = 1 gave, bit for bit."""

    @staticmethod
    def _setup(radius):
        rng = np.random.default_rng(70)
        items = [random_spd_quad(rng, 3, 1.0, 3.0, 0.9) for _ in range(120)]
        items[24] = None
        dom = BallDomain(radius)
        stream = stream_of(items)
        cls = FnClass(lipschitz=stream.lipschitz_bound(dom), smoothness=3.0, strong_convexity=1.0)
        return stream, cls, dom, rates_array(SCDecreasing(mu=1.0), 120)

    @pytest.mark.parametrize("radius", [1.0, 0.2, 0.1])
    @pytest.mark.parametrize("name", sorted(_PASS_SCHEDULES))
    def test_matches_reference(self, monkeypatch, name, radius):
        stream, cls, dom, rates_arr = self._setup(radius)
        cfg = _cfg()
        original = certifier.propagate_gaussians
        certified = {}

        def recording(*args):
            try:
                result = original(*args)
            except OracleUnavailableError as err:
                certified[args[-1]] = (None, (type(err), str(err)))
                raise
            certified[args[-1]] = (result, None)
            return result

        monkeypatch.setattr(certifier, "propagate_gaussians", recording)
        for k in range(1, 5):
            sched = DeletionSchedule(_PASS_SCHEDULES[name][:k])
            refs = [_outcome(_reference_propagate_gaussians, stream, sched, rates_arr,
                             cfg, cls, dom, i) for i in range(1, k + 1)]
            alone = [_outcome(original, stream, sched, rates_arr, cfg, cls, dom, i)
                     for i in range(1, k + 1)]
            # One pass asked for its intervals in reverse order.
            token = certifier._CERTIFICATION.set(
                certifier._ForwardPass((stream, sched, rates_arr, cfg, cls, dom), k))
            try:
                backwards = {i: _outcome(original, stream, sched, rates_arr, cfg, cls, dom, i)
                             for i in range(k, 0, -1)}
            finally:
                certifier._CERTIFICATION.reset(token)
            # Inside a certification one pass serves all k intervals.
            certified.clear()
            certify_passive_run(stream, sched, rates_arr, cfg, cls, dom)
            assert sorted(certified) == list(range(1, k + 1))
            for i, (ref, ref_err) in enumerate(refs, start=1):
                for got, got_err in (alone[i - 1], backwards[i], certified[i]):
                    assert got_err == ref_err
                    if ref_err is None:
                        _assert_same_propagation(got, ref)

    def test_reference_cases_cover_every_outcome(self):
        seen = set()
        for radius in (1.0, 0.2, 0.1):
            stream, cls, dom, rates_arr = self._setup(radius)
            for entries in _PASS_SCHEDULES.values():
                sched = DeletionSchedule(entries)
                for i in range(1, 5):
                    _, err = _outcome(_reference_propagate_gaussians, stream, sched, rates_arr,
                                      _cfg(), cls, dom, i)
                    seen.add("answered" if err is None else err[1][:40])
        assert "answered" in seen
        assert any(text.startswith("projection binds") for text in seen)
        assert any(text.startswith("the two processes") for text in seen)

    # The process-steps one certification takes, pinned so that a change to
    # the pass can neither add nor drop one.  The pattern has u_i > tau_{i-1},
    # so each retained process continues the previous one; adversarial-early
    # (u_i = i) branches every one from the full process.
    @pytest.mark.parametrize("spec, steps", [
        ({"kind": "pattern", "k": 4, "gap": 10, "spacing": 25, "first_time": 30}, 191),
        ({"kind": "adversarial-early", "k": 4, "spacing": 25, "first_time": 30}, 375),
    ])
    def test_certification_takes_the_same_steps(self, monkeypatch, spec, steps):
        stream, cls, dom, rates_arr = self._setup(1.0)
        sched = build_schedule(spec, 120)
        taken = []
        original = certifier._ForwardPass._steps

        def counting(pass_, mean, prods, first, last, deleted):
            taken.append(last - first + 1)
            return original(pass_, mean, prods, first, last, deleted)

        monkeypatch.setattr(certifier._ForwardPass, "_steps", counting)
        certify_passive_run(stream, sched, rates_arr, _cfg(), cls, dom)
        assert sum(taken) == steps

    @pytest.mark.parametrize("name", ["chained", "branching"])
    def test_never_steps_past_the_last_noise_time(self, monkeypatch, name):
        stream, cls, dom, rates_arr = self._setup(1.0)
        sched = DeletionSchedule(_PASS_SCHEDULES[name])
        ranges = []
        original = certifier._ForwardPass._steps

        def recording(pass_, mean, stack, first, last, deleted):
            ranges.append((first, last))
            return original(pass_, mean, stack, first, last, deleted)

        monkeypatch.setattr(certifier._ForwardPass, "_steps", recording)
        certify_passive_run(stream, sched, rates_arr, _cfg(), cls, dom)
        assert ranges and all(1 <= first <= last for first, last in ranges)
        assert max(last for _, last in ranges) == sched.times[-1]

    @pytest.mark.parametrize("radius, name", [(0.1, "branching"), (1.0, "chained")])
    def test_refused_intervals_leave_no_cyclic_garbage(self, radius, name):
        # Refused for a binding projection, then for unequal covariances.
        stream, cls, dom, rates_arr = self._setup(radius)
        sched = DeletionSchedule(_PASS_SCHEDULES[name])
        gc.collect()
        gc.disable()
        try:
            reports = certify_passive_run(stream, sched, rates_arr, _cfg(), cls, dom)
            assert sum(r.note.startswith("oracle unavailable") for r in reports) >= 3
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRatesArray:
    @pytest.mark.parametrize("schedule", [
        SCDecreasing(mu=0.7),
        ConvexDecreasing(diameter=2.0, lipschitz=3.3),
        ConstantRate(eta=0.37),
    ])
    def test_matches_the_scalar_rate(self, schedule):
        horizon = 10_000
        got = rates_array(schedule, horizon)
        assert got.dtype == np.float64
        assert got.tolist() == [rate(schedule, t) for t in range(1, horizon + 1)]

    def test_adaptive_refused(self):
        with pytest.raises(OracleUnavailableError, match="realized gradients"):
            rates_array(AdaptiveRate(diameter=2.0, warm_floor=1.5), 10)


class TestColumnLedger:
    def test_matches_row_by_row_reference(self):
        rng = np.random.default_rng(71)
        refused = answered = 0
        for trial in range(400):
            horizon = int(rng.integers(2, 150))
            k = int(rng.integers(1, min(5, horizon) + 1))
            times = np.sort(rng.choice(np.arange(1, horizon + 1), size=k, replace=False))
            used, entries = set(), []
            for tau in times:
                u = int(rng.choice([u for u in range(1, int(tau) + 1) if u not in used]))
                used.add(u)
                entries.append((u, int(tau)))
            # Negative factors and mis-scaled decays exercise both refusals;
            # small factors drive the residual to within tol of 0 before a
            # negative one, which clamps it to 0 instead.
            low, high = {0: (-0.3, 1.0), 4: (-0.05, 0.1)}.get(trial % 8, (0.0, 1.0))
            gammas = rng.uniform(low, high, size=horizon)
            deltas_at = {u: float(rng.uniform(0.0, 2.0)) for u, _ in entries}
            decays = [float(np.prod(gammas[u:tau])) * float(rng.choice([1.0, 1.0, 0.9, 1.1]))
                      for u, tau in entries]
            tol = 1e-9 * max([1.0] + list(deltas_at.values()))
            for i in range(1, k + 1):
                ref, ref_err = _outcome(_reference_ledger_rows, entries, gammas, deltas_at,
                                        decays, i, tol)
                got, got_err = _outcome(certifier._build_ledger, entries, gammas, deltas_at,
                                        decays, i, tol)
                assert got_err == ref_err
                if ref_err is not None:
                    refused += 1
                    continue
                answered += 1
                assert len(got.rows) == len(ref)
                assert tuple(got.rows) == ref
                assert got.rows[-1] == ref[-1]
                assert got.final_residual == ref[-1].e
        assert refused > 20 and answered > 200
