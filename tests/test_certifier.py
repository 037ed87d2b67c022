import math

import numpy as np
import pytest

from online_unlearning import (
    SKIP,
    BallDomain,
    CertificationRefusedError,
    DeletionSchedule,
    FnClass,
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
    _simulate_batch,
    interval_sequence_divergence,
    propagate_gaussians,
    rates_array,
)
from online_unlearning.core import class_bound_lipschitz, is_skip, retained
from online_unlearning.ogd import ConstantRate, SCDecreasing
from online_unlearning.rng import event_normals

from conftest import iso_quad, random_spd_quad, stream_of


def _cfg(**kw):
    base = dict(alpha=2.0, eps=0.5, omega=1.2, gamma_mode="per-step-product")
    base.update(kw)
    return UnlearnerConfig(**base)


def _sc_stream(rng, horizon, dom, mu=1.0, beta=3.0):
    items = [random_spd_quad(rng, 2, mu, beta, dom.radius / 2) for _ in range(horizon)]
    lipschitz = max(class_bound_lipschitz(f, dom) for f in items)
    return stream_of(items), FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


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
        deltas[3] = 1.0  # first deletion hits a SKIP slot: delta stays 0
        cert = analytic_bound(sched, _cfg(), gammas, deltas)
        assert cert.per_interval[0] == 0.0
        assert cert.per_interval[1] == pytest.approx(
            _cfg().alpha * _cfg().eps * 0.2 / (1.2 * 2**1.2), rel=1e-12
        )


class TestExactOracle:
    def test_deleting_skip_gives_zero(self, unit_ball):
        rng = np.random.default_rng(2)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[4] = SKIP
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
        cls = FnClass(lipschitz=class_bound_lipschitz(items[0], unit_ball) + 2.0,
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

    def test_sequence_collapse_witness(self, unit_ball):
        """Divergence of the whole interval sequence equals the value at tau_i."""
        rng = np.random.default_rng(6)
        stream, cls = _sc_stream(rng, 14, unit_ball)
        sched = DeletionSchedule(((3, 6),))
        rates = SCDecreasing(mu=1.0)
        cfg = _cfg()
        prop = propagate_gaussians(stream, sched, rates, cfg, cls, unit_ball, 1)
        collapsed = exact_divergence_quadratic(stream, sched, rates, cfg, cls, unit_ball, 1)
        stacked = interval_sequence_divergence(prop, cfg.alpha)
        assert stacked == pytest.approx(collapsed, rel=1e-9)


class TestMonteCarlo:
    def test_null_case_within_three_standard_errors(self, unit_ball):
        rng = np.random.default_rng(7)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        items[4] = SKIP
        # A second live deletion provides the noise; the first (skip) is null.
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(((5, 9),))
        # Deleted slot is already SKIP: sigma = 0 and both processes coincide.
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

    def test_shard_count_invariance(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        one = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                  n=5000, seed=4, shards=1)
        many = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                   n=5000, seed=4, shards=6)
        assert one.estimate == pytest.approx(many.estimate, rel=1e-12)

    def test_certification_propagates_each_interval_once(self, unit_ball, monkeypatch):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        calls = []

        def counting(*args):
            calls.append(args[-1])
            return propagate_gaussians(*args)

        monkeypatch.setattr(certifier, "propagate_gaussians", counting)
        reports = certify_passive_run(stream, sched, rates, cfg, cls, unit_ball,
                                      mc_samples=1000, seed=2)
        assert reports[0].mc_estimate is not None
        assert calls == [1]
        # Outside a certification the Monte-Carlo check propagates for itself.
        mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1, n=1000, seed=2)
        assert calls == [1, 1]

    def test_concurrent_shards_match_sequential(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        seq = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                  n=4000, seed=5, shards=4, jobs=1)
        par = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                  n=4000, seed=5, shards=4, jobs=4)
        assert seq.estimate == par.estimate
        assert np.array_equal(seq.mean_with_deleted, par.mean_with_deleted)


def _full_batch_reference(stream, rates_arr, dom, sigmas, noise_times, tau_i, seed,
                          process_id, rows, row_offset, dim):
    """Reference sample paths: every row simulated from t = 1, no shared prefix."""
    z = np.zeros((rows, dim))
    binding = 0
    for t in range(1, tau_i + 1):
        item = stream.item_at(t)
        if not is_skip(item):
            eta = float(rates_arr[t - 1])
            grad = (z - item.center) @ item.matrix
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
    def _both(stream, sched, rates_arr, dom, sigmas, ordinal, rows, row_offset=0, seed=9):
        noise_times = {tau: j for j, (_, tau) in enumerate(sched.entries[:ordinal], start=1)}
        tau_i = sched.times[ordinal - 1]
        dim = stream.items[0].dim
        for process_id, proc in enumerate((stream, retained(stream, sched, upto=ordinal))):
            args = (proc, rates_arr, dom, sigmas, noise_times, tau_i, seed,
                    process_id, rows, row_offset, dim)
            yield _simulate_batch(*args), _full_batch_reference(*args)

    @pytest.mark.parametrize("dim", [2, 5])
    @pytest.mark.parametrize("rows", [1, 2, 3, 257])
    def test_matches_full_batch(self, dim, rows):
        stream, sched, rates_arr, dom = self._setup(dim, 30, ((6, 12),))
        for (got, got_bind), (ref, ref_bind) in self._both(
                stream, sched, rates_arr, dom, (0.3,), 1, rows, row_offset=5):
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
                                     12, 9, 0, rows, 0, 5)
        assert bound_steps > 0
        assert binding == rows * bound_steps

    @pytest.mark.parametrize("sigmas", [(0.3, 0.2), (0.0, 0.2), (0.0, 0.0)])
    def test_second_deletion_before_first_noise(self, sigmas):
        # u_2 < tau_1: rows fan out at the first noisy event and run to tau_2.
        stream, sched, rates_arr, dom = self._setup(5, 40, ((4, 15), (9, 25)))
        for (got, got_bind), (ref, ref_bind) in self._both(
                stream, sched, rates_arr, dom, sigmas, 2, 257, row_offset=3):
            assert np.array_equal(got, ref)
            assert got_bind == ref_bind

    def test_zero_sigma_event_draws_nothing(self, monkeypatch):
        stream, sched, rates_arr, dom = self._setup(5, 40, ((4, 15), (9, 25)))
        calls = []

        def counting(seed, stream_key, *args):
            calls.append(stream_key)
            return event_normals(seed, stream_key, *args)

        monkeypatch.setattr(certifier, "event_normals", counting)
        _simulate_batch(stream, rates_arr, dom, (0.0, 0.2), {15: 1, 25: 2}, 25, 9, 0, 257, 0, 5)
        assert calls == [(0, 2)]

    def test_threaded_shards_match_full_batch(self, unit_ball):
        stream, cls, sched, rates, cfg = _well_conditioned_setup(unit_ball)
        n, shards = 3001, 3
        report = mc_divergence_check(stream, sched, rates, cfg, cls, unit_ball, 1,
                                     n=n, seed=6, shards=shards, jobs=2)
        rates_arr = rates_array(rates, len(stream))
        prop = propagate_gaussians(stream, sched, rates_arr, cfg, cls, unit_ball, 1)
        bounds = [round(s * n / shards) for s in range(shards + 1)]
        binding = 0
        for process_id, proc in enumerate((stream, retained(stream, sched, upto=1))):
            total = np.zeros(2)
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                part, bound = _full_batch_reference(proc, rates_arr, unit_ball, prop.sigmas,
                                                    {20: 1}, 20, 6, process_id, hi - lo, lo, 2)
                total = total + part
                binding += bound
            mean = report.mean_with_deleted if process_id == 0 else report.mean_without_deleted
            assert np.array_equal(mean, total / n)
        assert report.binding_events == binding


def _well_conditioned_setup(dom):
    items = [iso_quad(2.0, [0.4, 0.0]) for _ in range(9)]
    items.append(iso_quad(3.0, [-0.5, 0.0]))
    items.extend(iso_quad(1.0, [0.1, 0.05]) for _ in range(40))
    stream = stream_of(items)
    lipschitz = max(class_bound_lipschitz(f, dom) for f in items)
    cls = FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)
    sched = DeletionSchedule(((10, 20),))
    return stream, cls, sched, SCDecreasing(mu=1.0), _cfg()
