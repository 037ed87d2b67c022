import math
import warnings

import numpy as np
import pytest

from online_unlearning import (
    BallDomain,
    CustomCost,
    DeletionSchedule,
    FnClass,
    InvalidConfigError,
    UnlearnerConfig,
    bound_rhs,
    comparators,
    g_functions,
    measure_qg,
    regret_dynamic,
    run_ogd,
    run_passive,
    solve_erm,
)
from online_unlearning.core import EMPTY_SCHEDULE, class_bound_lipschitz, cost_value, eval_grad
from online_unlearning.ogd import SCDecreasing
from online_unlearning.regret import _ERM_TOL, active_gap_sum

from conftest import iso_quad, quad, random_spd_quad, stream_of


class TestSolveErm:
    def test_mean_of_two_centers(self, unit_ball):
        dom = BallDomain(2.0)
        losses = [iso_quad(1.0, [0.0, 0.0]), iso_quad(1.0, [2.0, 0.0])]
        assert np.allclose(solve_erm(losses, dom), [1.0, 0.0], atol=1e-12)

    def test_single_quadratic(self, unit_ball):
        f = iso_quad(2.0, [0.3, -0.4])
        assert np.allclose(solve_erm([f], unit_ball), [0.3, -0.4], atol=1e-12)

    def test_projected_mean_vs_grid_oracle(self):
        dom = BallDomain(1.0)
        losses = [iso_quad(1.0, [0.0, 0.0]), iso_quad(1.0, [4.0, 0.0])]
        solved = solve_erm(losses, dom)
        assert np.allclose(solved, [1.0, 0.0], atol=1e-8)
        # Brute-force the constrained optimum on a dense grid of the disk.
        best, best_val = None, math.inf
        for r in np.linspace(0.0, 1.0, 401):
            for ang in np.linspace(0.0, 2.0 * math.pi, 721):
                z = np.array([r * math.cos(ang), r * math.sin(ang)])
                val = sum(cost_value(f, z) for f in losses)
                if val < best_val:
                    best, best_val = z, val
        assert np.linalg.norm(solved - best) < 5e-3
        assert sum(cost_value(f, solved) for f in losses) <= best_val + 1e-9

    def test_singular_sum_ridge_flagged(self, unit_ball):
        losses = [quad(np.diag([1.0, 0.0]), [0.5, 0.0])]
        with pytest.warns(RuntimeWarning):
            z = solve_erm(losses, unit_ball)
        assert abs(z[0] - 0.5) < 1e-6
        assert abs(z[1]) < 1e-6  # minimum-norm tie break on the flat direction


class TestRegretDynamic:
    def test_optimal_from_start_is_zero(self, unit_ball):
        center = np.array([0.2, -0.1])
        stream = stream_of([iso_quad(1.0, center) for _ in range(10)])
        cls = FnClass(lipschitz=2.0, smoothness=1.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls, z0=center)
        assert regret_dynamic(trace, stream, EMPTY_SCHEDULE, unit_ball) == pytest.approx(0.0, abs=1e-12)

    def test_two_step_brute_force(self, unit_ball):
        stream = stream_of([iso_quad(1.0, [0.4, 0.0]), iso_quad(2.0, [-0.2, 0.3])])
        cls = FnClass(lipschitz=3.0, smoothness=2.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls)
        fast = regret_dynamic(trace, stream, EMPTY_SCHEDULE, unit_ball)
        z_star = solve_erm(list(stream.items), unit_ball)
        slow = sum(
            cost_value(stream.item_at(t), trace.output_at(t))
            - cost_value(stream.item_at(t), z_star)
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
        fast = regret_dynamic(trace, stream, sched, unit_ball)
        comps = comparators(stream, sched, unit_ball)
        edges = (0, 3, 5, 5)
        slow = 0.0
        for i in range(3):
            for t in range(edges[i] + 1, edges[i + 1] + 1):
                f = stream.item_at(t)
                slow += cost_value(f, trace.output_at(t)) - cost_value(f, comps[i])
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-15)

    def test_k_zero_equals_static_regret(self, unit_ball):
        rng = np.random.default_rng(51)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(20)]
        stream = stream_of(items)
        cls = FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
        trace = run_ogd(stream, SCDecreasing(mu=1.0), unit_ball, cls)
        dynamic = regret_dynamic(trace, stream, EMPTY_SCHEDULE, unit_ball)
        z_star = solve_erm(list(stream.items), unit_ball)
        static = sum(
            cost_value(stream.item_at(t), trace.output_at(t))
            - cost_value(stream.item_at(t), z_star)
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
        curve = cumulative_regret_curve(trace, stream, sched, unit_ball)
        assert curve.shape == (15,)
        assert curve[-1] == pytest.approx(
            regret_dynamic(trace, stream, sched, unit_ball), rel=1e-12, abs=1e-12
        )
        assert np.all(np.isfinite(curve))

    def test_all_custom_stream_scored_with_the_trace_dimension(self, unit_ball):
        # No quadratic reveals the dimension; the trace's z0-seeded outputs do.
        rng = np.random.default_rng(59)
        quads = [random_spd_quad(rng, 2, 0.5, 1.0, 0.5) for _ in range(40)]
        stream = stream_of(CustomCost(evaluator=lambda z, f=f: eval_grad(f, z)) for f in quads)
        sched = DeletionSchedule(((5, 12), (20, 30)))
        cls = FnClass(lipschitz=2.0, smoothness=1.0, strong_convexity=0.5)
        cfg = UnlearnerConfig(alpha=2.0, eps=1.0)
        trace = run_passive(stream, sched, SCDecreasing(mu=0.5), cfg, cls, unit_ball,
                            seed=0, z0=np.zeros(2))
        value = regret_dynamic(trace, stream, sched, unit_ball)
        assert math.isfinite(value)
        assert value == pytest.approx(
            regret_dynamic(trace, stream_of(quads), sched, unit_ball), rel=1e-6, abs=1e-9
        )

    def test_custom_stream_steps_by_its_smoothness(self, unit_ball):
        # Curvatures up to 3: steps of 1 / n overshoot and projected GD runs to
        # max_iter (past 100 s on 40 steps); 1 / (n * beta) converges at once.
        rng = np.random.default_rng(60)
        quads = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(40)]
        stream = stream_of(CustomCost(evaluator=lambda z, f=f: eval_grad(f, z)) for f in quads)
        sched = DeletionSchedule(((5, 12), (20, 30)))
        cls = FnClass(lipschitz=4.0, smoothness=3.0, strong_convexity=1.0)
        trace = run_passive(stream, sched, SCDecreasing(mu=1.0), UnlearnerConfig(alpha=2.0, eps=1.0),
                            cls, unit_ball, seed=0, z0=np.zeros(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = comparators(stream, sched, unit_ball, dim=2, smoothness=cls.smoothness)
            value = regret_dynamic(trace, stream, sched, unit_ball, cls.smoothness)
        for a, b in zip(got, comparators(stream_of(quads), sched, unit_ball)):
            assert np.allclose(a, b, rtol=0.0, atol=1e-6)
        assert value == pytest.approx(
            regret_dynamic(trace, stream_of(quads), sched, unit_ball), rel=1e-6, abs=1e-9
        )

    def test_custom_comparators_start_from_the_last_epoch(self, unit_ball):
        # An epoch drops one loss from the last, so z_i* starts beside z_{i-1}*:
        # the same points as starting from the origin, in fewer iterations.
        rng = np.random.default_rng(61)
        quads = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(300)]
        evaluations = [0]

        def counted(f):
            def evaluator(z):
                evaluations[0] += 1
                return eval_grad(f, z)
            return CustomCost(evaluator=evaluator)

        stream = stream_of(counted(f) for f in quads)
        sched = DeletionSchedule(((5, 60), (70, 150), (100, 200)))
        warm = comparators(stream, sched, unit_ball, dim=2, smoothness=3.0)
        warm_evaluations, evaluations[0] = evaluations[0], 0
        for i, comp in enumerate(warm):
            losses = [f for t, f in enumerate(stream.items, start=1)
                      if t not in sched.indices[:i]]
            cold = solve_erm(losses, unit_ball, dim=2, curvature=len(losses) * 3.0)
            assert np.linalg.norm(comp - cold) <= _ERM_TOL
        assert warm_evaluations < evaluations[0]

    def test_comparator_kkt(self, unit_ball):
        rng = np.random.default_rng(52)
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(12)]
        stream = stream_of(items)
        sched = DeletionSchedule(((2, 5), (7, 9)))
        for i, comp in enumerate(comparators(stream, sched, unit_ball)):
            live = [
                f for t, f in enumerate(stream.items, start=1)
                if t not in sched.indices[:i]
            ]
            grad = sum(f.gradient(comp) for f in live)
            if np.linalg.norm(comp) < unit_ball.radius - 1e-9:
                assert np.linalg.norm(grad) < 1e-7
            else:
                from online_unlearning.core import project
                moved = project(comp - grad / len(live), unit_ball)
                assert np.linalg.norm(moved - comp) * len(live) < 1e-6


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

    def test_table2_rows(self):
        row = bound_rhs("table2-retrain-sc", dict(T=100, k=2, tau=50))
        assert row.order_form
        assert row.components["computation_per_deletion"] == 50.0
        row = bound_rhs("table2-passive-sc", dict(T=100, k=2, d=3, G1=0.1))
        assert row.components["computation_per_deletion"] == 1.0
        with pytest.raises(InvalidConfigError):
            bound_rhs("table2-nope", dict(T=100))


class TestMeasureQg:
    def test_unit_quadratics(self, unit_ball):
        losses = [iso_quad(1.0, [0.0, 0.0]) for _ in range(4)]
        est = measure_qg(losses, unit_ball, samples=300, seed=0)
        assert est.kappa_exact == pytest.approx(4.0, rel=1e-12)
        assert est.kappa_hat == pytest.approx(4.0, rel=1e-9)

    def test_flat_direction(self, unit_ball):
        losses = [quad(np.diag([1.0, 0.0]), [0.1, 0.0])]
        with pytest.warns(RuntimeWarning):
            est = measure_qg(losses, unit_ball, samples=300, seed=1)
        assert est.kappa_exact == pytest.approx(0.0, abs=1e-12)
        assert est.kappa_hat < 1e-4

    def test_mixed_curvature_close_to_lambda_min(self, unit_ball):
        rng = np.random.default_rng(54)
        losses = [random_spd_quad(rng, 2, 0.5, 3.0, 0.2) for _ in range(6)]
        est = measure_qg(losses, unit_ball, samples=1000, seed=2)
        assert est.kappa_exact is not None
        # Sampling can only overshoot the eigenvalue answer, and by < 5%.
        assert est.kappa_hat >= est.kappa_exact - 1e-9
        assert abs(est.kappa_hat - est.kappa_exact) <= 0.05 * est.kappa_exact


class TestStabilityLemmas:
    def test_strongly_convex_erm_stability(self, unit_ball):
        """Removing i of T mu-strongly-convex losses moves the optimum <= 2iL/(mu T)."""
        rng = np.random.default_rng(55)
        for _ in range(50):
            horizon = int(rng.integers(6, 16))
            mu, beta = 1.0, 3.0
            items = [random_spd_quad(rng, 2, mu, beta, 0.4) for _ in range(horizon)]
            lipschitz = max(class_bound_lipschitz(f, unit_ball) for f in items)
            i = int(rng.integers(1, min(4, horizon)))
            removed = rng.choice(horizon, size=i, replace=False)
            full = solve_erm(items, unit_ball, tol=1e-10)
            sub = solve_erm([f for t, f in enumerate(items) if t not in removed],
                            unit_ball, tol=1e-10)
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
            lipschitz = max(class_bound_lipschitz(f, unit_ball) for f in items)
            k = int(rng.integers(1, 3))
            removed = set(rng.choice(horizon, size=k, replace=False).tolist())
            total = sum(f.matrix for f in items)
            kappa = float(np.linalg.eigvalsh(total)[0])
            if kappa <= 0.5:
                continue
            full = solve_erm(items, unit_ball, tol=1e-10)
            sub = solve_erm([f for t, f in enumerate(items) if t not in removed],
                            unit_ball, tol=1e-10)
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
