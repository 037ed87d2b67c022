import math
import warnings

import numpy as np
import pytest

from online_unlearning import (
    BallDomain,
    DeletionSchedule,
    FnClass,
    InvalidConfigError,
    UnlearnerConfig,
    bound_rhs,
    comparators,
    g_functions,
    regret_dynamic,
    run_ogd,
    run_passive,
)
from online_unlearning import core
from online_unlearning.core import (
    EMPTY_SCHEDULE,
    _row_sum,
    retained,
    stack_quadratics,
)
from online_unlearning.errors import NumericError
from online_unlearning.ogd import SCDecreasing
from online_unlearning.harness import build_schedule, gen_stream
from online_unlearning.regret import _per_step_regret, active_gap_sum

from conftest import erm_pair, iso_quad, loss_and_grad, quad, random_spd_quad, row_at, stream_of


def _value(row, z) -> float:
    return loss_and_grad(row, z)[0]


def _erm(rows, dom) -> np.ndarray:
    """The minimizer of the summed losses over the ball: a run's comparator with no deletion."""
    return comparators(stream_of(rows), EMPTY_SCHEDULE, dom)[0]


class TestSolveErm:
    def test_mean_of_two_centers(self, unit_ball):
        dom = BallDomain(2.0)
        losses = [iso_quad(1.0, [0.0, 0.0]), iso_quad(1.0, [2.0, 0.0])]
        assert np.allclose(_erm(losses, dom), [1.0, 0.0], atol=1e-12)

    def test_single_quadratic(self, unit_ball):
        f = iso_quad(2.0, [0.3, -0.4])
        assert np.allclose(_erm([f], unit_ball), [0.3, -0.4], atol=1e-12)

    def test_projected_mean_vs_grid_oracle(self):
        dom = BallDomain(1.0)
        losses = [iso_quad(1.0, [0.0, 0.0]), iso_quad(1.0, [4.0, 0.0])]
        solved = _erm(losses, dom)
        assert np.allclose(solved, [1.0, 0.0], atol=1e-8)
        # Brute-force the constrained optimum on a dense grid of the disk.
        best, best_val = None, math.inf
        for r in np.linspace(0.0, 1.0, 401):
            for ang in np.linspace(0.0, 2.0 * math.pi, 721):
                z = np.array([r * math.cos(ang), r * math.sin(ang)])
                val = sum(_value(f, z) for f in losses)
                if val < best_val:
                    best, best_val = z, val
        assert np.linalg.norm(solved - best) < 5e-3
        assert sum(_value(f, solved) for f in losses) <= best_val + 1e-9

    def test_singular_sum_ridge_flagged(self, unit_ball):
        losses = [quad(np.diag([1.0, 0.0]), [0.5, 0.0])]
        with pytest.warns(RuntimeWarning):
            z = _erm(losses, unit_ball)
        assert abs(z[0] - 0.5) < 1e-6
        assert abs(z[1]) < 1e-6  # minimum-norm tie break on the flat direction

    @pytest.mark.parametrize("scale", [1e-16, 1e-200])
    def test_a_scaled_sum_has_the_same_minimizer(self, unit_ball, scale):
        # The singularity test and the ridge are relative to the sum's largest eigenvalue.
        rng = np.random.default_rng(53)
        rows = [random_spd_quad(rng, 3, 1.0, 3.0, 0.5) for _ in range(4)]
        scaled = [(scale * mat, center, offset) for mat, center, offset in rows]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.allclose(_erm(scaled, unit_ball), _erm(rows, unit_ball), rtol=1e-12, atol=0)
        with pytest.warns(RuntimeWarning, match="singular curvature sum"):
            z = _erm([quad(np.diag([scale, 0.0]), [0.5, 0.0])], unit_ball)
        assert abs(z[0] - 0.5) < 1e-6 and abs(z[1]) < 1e-6


class TestRegretDynamic:
    def test_optimal_from_start_is_zero(self, unit_ball):
        # Every run starts at the origin, so the losses are centered there.
        stream = stream_of([iso_quad(1.0, np.zeros(2)) for _ in range(10)])
        cls = FnClass(lipschitz=2.0, smoothness=1.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls)
        regret = regret_dynamic(trace.outputs, stream, EMPTY_SCHEDULE, unit_ball)
        assert regret == pytest.approx(0.0, abs=1e-12)

    def test_two_step_brute_force(self, unit_ball):
        stream = stream_of([iso_quad(1.0, [0.4, 0.0]), iso_quad(2.0, [-0.2, 0.3])])
        cls = FnClass(lipschitz=3.0, smoothness=2.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls)
        fast = regret_dynamic(trace.outputs, stream, EMPTY_SCHEDULE, unit_ball)
        z_star = comparators(stream, EMPTY_SCHEDULE, unit_ball)[0]
        slow = sum(
            _value(row_at(stream, t), trace.output_at(t))
            - _value(row_at(stream, t), z_star)
            for t in (1, 2)
        )
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)

    def test_small_instance_with_deletions_brute_force(self, unit_ball):
        rng = np.random.default_rng(50)
        items = [random_spd_quad(rng, 2, 1.0, 2.0, 0.4) for _ in range(5)]
        stream = stream_of(items)
        sched = DeletionSchedule(((2, 3), (4, 5)))
        cls = FnClass(lipschitz=4.0, smoothness=2.0, strong_convexity=1.0)
        cfg = UnlearnerConfig(alpha=2.0, eps=1.0)
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), cfg, cls, unit_ball, seed=1)
        fast = regret_dynamic(trace.outputs, stream, sched, unit_ball)
        comps = comparators(stream, sched, unit_ball)
        edges = (0, 3, 5, 5)
        slow = 0.0
        for i in range(3):
            for t in range(edges[i] + 1, edges[i + 1] + 1):
                f = row_at(stream, t)
                slow += _value(f, trace.output_at(t)) - _value(f, comps[i])
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)

    def test_k_zero_equals_static_regret(self, unit_ball):
        rng = np.random.default_rng(51)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(20)]
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls)
        dynamic = regret_dynamic(trace.outputs, stream, EMPTY_SCHEDULE, unit_ball)
        z_star = comparators(stream, EMPTY_SCHEDULE, unit_ball)[0]
        static = sum(
            _value(items[t - 1], trace.output_at(t)) - _value(items[t - 1], z_star)
            for t in range(1, 21)
        )
        assert dynamic == pytest.approx(static, rel=1e-12, abs=1e-12)

    def test_cumulative_curve_consistent(self, unit_ball):
        from online_unlearning.regret import cumulative_regret_curve

        rng = np.random.default_rng(58)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(15)]
        stream = stream_of(items)
        sched = DeletionSchedule(((3, 6), (9, 12)))
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        cfg = UnlearnerConfig(alpha=2.0, eps=1.0)
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), cfg, cls, unit_ball, seed=0)
        curve = cumulative_regret_curve(trace.outputs, stream, sched, unit_ball)
        assert curve.shape == (15,)
        assert curve[-1] == pytest.approx(
            regret_dynamic(trace.outputs, stream, sched, unit_ball), rel=1e-12, abs=1e-12
        )
        assert np.all(np.isfinite(curve))

    def test_comparator_kkt(self, unit_ball):
        rng = np.random.default_rng(52)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        stream = stream_of(items)
        sched = DeletionSchedule(((2, 5), (7, 9)))
        for i, comp in enumerate(comparators(stream, sched, unit_ball)):
            live = [f for t, f in enumerate(items, start=1) if t not in sched.indices[:i]]
            grad = sum(loss_and_grad(f, comp)[1] for f in live)
            if np.linalg.norm(comp) < unit_ball.radius - 1e-9:
                assert np.linalg.norm(grad) < 1e-7
            else:
                from online_unlearning.core import project
                moved = project(comp - grad / len(live), unit_ball)
                assert np.linalg.norm(moved - comp) * len(live) < 1e-6


class TestRowBlocks:
    """Regret and comparator sums taken ``_ROW_BLOCK`` rows at a time are the one-batch ones."""

    @staticmethod
    def _setup(dim, horizon, skips):
        gs = gen_stream("sc-quadratic",
                        dict(dimension=dim, horizon=horizon, radius=1.0, mu=1.0, beta=3.0), dim)
        sched = build_schedule({"kind": "pattern", "k": 3, "gap": 40, "spacing": 300}, horizon)
        stream = retained(gs.stream, sched, upto=1) if skips else gs.stream
        return stream, sched, gs.fn_class

    @pytest.mark.parametrize("block", [7, 1024])
    @pytest.mark.parametrize("skips", [False, True], ids=["live", "skips"])
    @pytest.mark.parametrize("horizon", [1023, 1024, 2500])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_per_step_regret_and_comparators(self, monkeypatch, dim, horizon, skips, block):
        stream, sched, cls = self._setup(dim, horizon, skips)
        dom = BallDomain(1.0)
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0),
                            UnlearnerConfig(alpha=2.0, eps=0.5), cls, dom, 0)

        def computed(rows: int) -> tuple:
            monkeypatch.setattr(core, "_ROW_BLOCK", rows)
            per_step = _per_step_regret(trace.outputs, stream, sched, dom)[0]
            comps = comparators(stream, sched, dom)
            return per_step.tobytes(), [comp.tobytes() for comp in comps]

        assert computed(block) == computed(horizon)

    @pytest.mark.parametrize("block", [7, 1024])
    @pytest.mark.parametrize("skips", [False, True], ids=["live", "skips"])
    @pytest.mark.parametrize("horizon", [1023, 1024, 2500])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8])
    def test_comparator_sums_are_the_one_batch_sums(self, monkeypatch, dim, horizon, skips,
                                                    block):
        stream, _, _ = self._setup(dim, horizon, skips)
        mats, centers, _, live = stack_quadratics(stream)
        monkeypatch.setattr(core, "_ROW_BLOCK", block)
        total = _row_sum(horizon, dim, lambda rows: mats[rows][live[rows]])
        rhs = _row_sum(horizon, dim, lambda rows: (
            mats[rows][live[rows]] @ centers[rows][live[rows]][..., None])[..., 0])
        assert total.tobytes() == mats[live].sum(axis=0, initial=0.0).tobytes()
        want = (mats[live] @ centers[live][..., None])[..., 0].sum(axis=0, initial=0.0)
        assert rhs.tobytes() == want.tobytes()


class TestGFunctions:
    def test_g1_example(self):
        sched = DeletionSchedule(((8, 10),))
        g = g_functions(sched, 0.5)
        assert g.g1 == pytest.approx(10.0 * 0.5**4 / 64.0, rel=1e-12)
        assert g.g1 == pytest.approx(0.009765625, rel=1e-12)

    def test_g2_example(self):
        sched = DeletionSchedule(((3, 9),))
        assert g_functions(sched, 0.5).g2 == pytest.approx(1.0, rel=1e-12)

    def test_g3_from_replayed_history(self, unit_ball):
        from online_unlearning.ogd import AdaptiveRate

        rng = np.random.default_rng(53)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(25)]
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        sched = DeletionSchedule(((4, 9), (12, 20)))
        cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.5)
        rates = AdaptiveRate(diameter=unit_ball.diameter, warm_floor=1.5)
        trace = run_passive(stream, sched, rates, cfg, cls, unit_ball, seed=0)
        live = g_functions(sched, 0.5, p_history=trace.p_history, beta=3.0).g3
        # Independent second pass over the recorded history.
        p = trace.p_history
        expected = math.sqrt(3.0 * sum(p[tau - 1] / p[u - 1] ** 2 for u, tau in sched.entries))
        assert live == pytest.approx(expected, rel=1e-12)

    def test_g3_needs_beta(self):
        sched = DeletionSchedule(((1, 2),))
        with pytest.raises(InvalidConfigError):
            g_functions(sched, 0.5, p_history=np.array([1.0, 2.0]))

    def test_active_gap_sum(self):
        sched = DeletionSchedule(((1, 3), (4, 7)))
        expected = 0.5**3 * 3 + 0.5**4 * 4
        assert active_gap_sum(sched, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_full_contraction_keeps_only_undelayed_deletions(self):
        # gamma = 0 is mu == beta: a deletion decays away at once unless tau == u.
        sched = DeletionSchedule(((3, 3), (5, 9)))
        assert g_functions(sched, 0.0).g1 == math.sqrt(3**2 / 3**4)
        assert active_gap_sum(sched, 0.0) == 0.0

    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_gamma_outside_the_unit_interval_is_refused(self, gamma):
        sched = DeletionSchedule(((3, 9),))
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
            g_functions(sched, gamma)
        with pytest.raises(ValueError, match=r"gamma must lie in \[0, 1\]"):
            active_gap_sum(sched, gamma)

    def test_g3_past_the_float_range_refused(self):
        sched = DeletionSchedule(((2, 3),))
        with pytest.raises(NumericError, match="G3 out of range at p_2 = 1e[+]200"):
            g_functions(sched, 0.5, p_history=[1.0, 1e200, 1e200], beta=1.0)


class TestBoundRhs:
    def test_t2_example(self):
        res = bound_rhs("T2", dict(L=1.0, mu=1.0, T=100, k=1, d=2, eps=1.0, G1=0.009765625))
        expected = math.log(100.0) + 2.0 + math.sqrt(3.0) * 2.0 * 0.009765625
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.value == pytest.approx(6.639, rel=1e-3)

    def test_t5_k_zero(self):
        res = bound_rhs("T5", dict(L=1.0, D=1.0, k=0, T=100, d=2, eps=1.0))
        assert res.value == pytest.approx(math.sqrt(200.0), rel=1e-12)

    def test_t3_hand_sum(self):
        res = bound_rhs("T3", dict(D=1.0, L=1.0, T=100, k=1, kappa=1.0, d=2, eps=1.0, G2=1.0))
        assert res.value == pytest.approx(35.0, rel=1e-12)
        assert res.components["sqrt_term"] == pytest.approx(30.0, rel=1e-12)
        assert res.components["comparator_shift"] == pytest.approx(2.0, rel=1e-12)
        assert res.components["noise"] == pytest.approx(3.0, rel=1e-12)

    def test_t3_missing_kappa(self):
        with pytest.raises(InvalidConfigError):
            bound_rhs("T3", dict(D=1.0, L=1.0, T=100, k=1, d=2, eps=1.0, G2=1.0))

    def test_order_form_flags(self):
        t4 = bound_rhs("T4", dict(D=1.0, beta=2.0, d=3, k=2, L=1.0, eps=1.0,
                                  comparator_loss_sum=9.0, G3=0.5))
        assert t4.order_form
        assert t4.components["curvature"] == pytest.approx(2.0, rel=1e-12)
        assert t4.components["comparator"] == pytest.approx(3.0, rel=1e-12)
        t6 = bound_rhs("T6", dict(T=100, k=2, L=1.0, D=1.0, mu=1.0, eps=1.0, d=3,
                                  active_gap_sum=0.25))
        assert t6.order_form
        assert t6.components["schedule"] == 0.25

    @pytest.mark.parametrize("theorem, params", [
        ("T2", dict(L=1e300, mu=1.0, T=100, k=1, d=2, eps=1.0, G1=0.1)),
        ("T3", dict(D=1.0, L=1e300, T=100, k=1, kappa=1.0, d=2, eps=1.0, G2=1.0)),
        ("T4", dict(D=1.0, beta=2.0, d=3, k=2, L=1e300, eps=1.0, G3=0.5)),
        ("T5", dict(L=1e300, D=1.0, k=15, T=200, d=5, eps=0.5, kappa=0.1)),
        ("T6", dict(T=100, k=2, L=1e300, D=1.0, mu=1.0, eps=1.0, d=3, active_gap_sum=0.25)),
        # No exception here: the noise term over a tiny eps is inf.
        ("T3", dict(D=1.0, L=1.0, T=100, k=1, kappa=1.0, d=2, eps=1e-310, G2=1.0)),
    ], ids=["T2-square", "T3-square", "T4-square", "T5-square", "T6-square", "T3-tiny-eps"])
    def test_bound_past_the_float_range_refused(self, theorem, params):
        with pytest.raises(NumericError, match=f"{theorem} bound out of range at L = "):
            bound_rhs(theorem, params)

    @pytest.mark.parametrize("theorem", ["T7", "table2-retrain-sc"])
    def test_unknown_bound_refused(self, theorem):
        with pytest.raises(InvalidConfigError, match="unknown bound"):
            bound_rhs(theorem, dict(T=100, k=2, tau=50))


class TestStabilityLemmas:
    def test_strongly_convex_erm_stability(self, unit_ball):
        """Removing i of T mu-strongly-convex losses moves the optimum <= 2iL/(mu T)."""
        rng = np.random.default_rng(55)
        for _ in range(50):
            horizon = int(rng.integers(6, 16))
            mu, beta = 1.0, 3.0
            items = [random_spd_quad(rng, 2, mu, beta, 0.4) for _ in range(horizon)]
            lipschitz = stream_of(items).lipschitz_bound(unit_ball)
            i = int(rng.integers(1, min(4, horizon)))
            removed = rng.choice(horizon, size=i, replace=False)
            full, sub = erm_pair(items, removed, unit_ball)
            bound = 2.0 * i * lipschitz / (mu * horizon)
            assert np.linalg.norm(full - sub) <= bound + 1e-6

    def test_qg_erm_stability(self, unit_ball):
        """Removing k L-Lipschitz losses from a kappa-QG aggregate moves it <= 2kL/kappa."""
        rng = np.random.default_rng(56)
        for _ in range(50):
            horizon = int(rng.integers(8, 20))
            items = []
            for t in range(horizon):
                v = np.zeros(2)
                v[t % 2] = 1.0
                items.append(quad(np.outer(v, v), rng.uniform(-0.4, 0.4, 2)))
            lipschitz = stream_of(items).lipschitz_bound(unit_ball)
            k = int(rng.integers(1, 3))
            removed = set(rng.choice(horizon, size=k, replace=False).tolist())
            total = sum(f[0] for f in items)
            kappa = float(np.linalg.eigvalsh(total)[0])
            if kappa <= 0.5:
                continue
            full, sub = erm_pair(items, removed, unit_ball)
            assert np.linalg.norm(full - sub) <= 2.0 * k * lipschitz / kappa + 1e-6

    def test_implicit_bound_lemma(self):
        """x - sqrt(ax + b) <= c implies x <= a + c + 2 sqrt(b + ac)."""
        rng = np.random.default_rng(57)
        checked = 0
        while checked < 10_000:
            a = float(rng.uniform(1e-3, 10.0))
            b = float(rng.uniform(0.0, 10.0))
            c = float(rng.uniform(1e-3, 10.0))
            x = float(rng.uniform(0.0, 50.0))
            if x - math.sqrt(a * x + b) <= c:
                assert x <= a + c + 2.0 * math.sqrt(b + a * c) + 1e-12
                checked += 1
