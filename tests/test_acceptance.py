"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import json
import math
import time

import numpy as np

from online_unlearning import (
    ActiveConfig,
    BallDomain,
    DeletionSchedule,
    FnClass,
    UnlearnerConfig,
    active_sigma,
    bound_rhs,
    comparators,
    g_functions,
    gaussian_renyi,
    gen_stream,
    required_iters,
    retained,
    run_active,
    run_discard_restart,
    run_ogd,
    run_passive,
    run_retraining,
)
from online_unlearning.certifier import (
    certify_passive_run,
    exact_divergence_quadratic,
    mc_divergence_check,
)
from online_unlearning.core import EMPTY_SCHEDULE, CostStream, project
from online_unlearning.ogd import (
    ConstantRate,
    ConvexDecreasing,
    SCDecreasing,
    constant_rate_worst_case,
    gamma_nominal,
    step_contraction,
)
from online_unlearning.passive import calibrated_sigma
from online_unlearning.regret import regret_dynamic

from conftest import engine_step, erm_pair, iso_quad, quad, random_spd_quad, rows_of, stream_of


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _criterion1_setup():
    """d=2, T=50, mu=1, beta=3, eta_t = 1/t, one deletion (u=10, tau=20).

    The deleted step's gradient is made large relative to the class bound so
    the Monte-Carlo cross-check (criterion 3) has signal; nothing else about
    the sandwich depends on the stream instance.
    """
    dom = BallDomain(1.0)
    items = [iso_quad(2.0, [0.4, 0.0]) for _ in range(9)]
    items.append(iso_quad(3.0, [-0.5, 0.0]))
    items.extend(iso_quad(1.0, [0.1, 0.05]) for _ in range(40))
    stream = stream_of(items)
    lipschitz = stream.lipschitz_bound(dom)
    cls = FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)
    sched = DeletionSchedule(((10, 20),))
    cfg = UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2)
    return stream, cls, sched, SCDecreasing(mu=1.0), cfg, dom


def test_criterion_1_certification_sandwich_single_deletion():
    start = time.monotonic()
    stream, cls, sched, rates, cfg, dom = _criterion1_setup()
    reports = certify_passive_run(stream, sched, rates, cfg, cls, dom)
    report = reports[0]
    budget = cfg.alpha * cfg.eps
    series = cfg.alpha * cfg.eps / 6.0
    ok = (
        report.exact_divergence is not None
        and report.exact_divergence <= report.analytic_bound + 1e-9
        and report.analytic_bound <= budget + 1e-12
        and math.isclose(report.analytic_bound, series, rel_tol=1e-12)
    )
    elapsed = time.monotonic() - start
    _report(
        "1 (single-deletion sandwich)",
        ok and elapsed < 1.0,
        f"exact={report.exact_divergence:.3e} <= analytic={report.analytic_bound:.6f}"
        f" <= {budget}; {elapsed:.2f}s",
    )


def test_criterion_2_certification_sandwich_multi_deletion():
    start = time.monotonic()
    dom = BallDomain(1.0)
    cfg = UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2)
    rates = SCDecreasing(mu=1.0)
    rng = np.random.default_rng(0)
    checked = 0
    for trial in range(10):
        gs = gen_stream(
            "sc-quadratic",
            dict(dimension=2, horizon=60, radius=1.0, mu=1.0, beta=3.0),
            seed=100 + trial,
        )
        us = sorted(int(u) for u in rng.choice(np.arange(3, 10), size=3, replace=False))
        taus = sorted(int(t) for t in rng.choice(np.arange(12, 55), size=3, replace=False))
        sched = DeletionSchedule(tuple(zip(us, taus)))
        reports = certify_passive_run(gs.stream, sched, rates, cfg, gs.fn_class, dom)
        for i, report in enumerate(reports, start=1):
            series = cfg.alpha * cfg.eps * (1.0 / 6.0) * sum(j ** -1.2 for j in range(1, i + 1))
            assert math.isclose(report.analytic_bound, series, rel_tol=1e-12)
            assert report.exact_divergence is not None
            assert report.exact_divergence <= report.analytic_bound + 1e-9
            checked += 1
    elapsed = time.monotonic() - start
    _report("2 (multi-deletion sandwich)", checked == 30 and elapsed < 5.0,
            f"30 intervals over 10 schedules; {elapsed:.2f}s")


def test_criterion_3_monte_carlo_cross_check():
    start = time.monotonic()
    stream, cls, sched, rates, cfg, dom = _criterion1_setup()
    exact = exact_divergence_quadratic(stream, sched, rates, cfg, cls, dom, 1)
    mc = mc_divergence_check(stream, sched, rates, cfg, cls, dom, 1, n=100_000, seed=11)
    rel = abs(mc.estimate - exact) / exact
    elapsed = time.monotonic() - start
    _report("3 (Monte-Carlo cross-check)", rel <= 0.10 and elapsed < 10.0,
            f"exact={exact:.5f} mc={mc.estimate:.5f} rel={rel:.3%}; {elapsed:.2f}s")


def _batched_step(mats, centers, zs, eta, radius):
    """Projected gradient steps for stacked (f, z) draws; the step loop's arithmetic."""
    moved = zs - eta * np.einsum("tij,tj->ti", mats, zs - centers)
    norms = np.linalg.norm(moved, axis=1)
    over = norms > radius
    while np.any(over):
        moved[over] *= (radius / norms[over])[:, None]
        norms = np.linalg.norm(moved, axis=1)
        over = norms > radius
    return moved


def test_criterion_4_condition_suite():
    start = time.monotonic()
    dom = BallDomain(1.0)
    rng = np.random.default_rng(1)
    etas_grid = [1.0 / t for t in (1, 2, 3, 5, 10, 20, 50)]
    for mu, beta in ((1.0, 1.0), (1.0, 3.0), (0.0, 3.0)):
        count = 1000
        raw = rng.standard_normal((count, 2, 2))
        q, r = np.linalg.qr(raw)
        signs = np.sign(np.einsum("tii->ti", r))
        signs[signs == 0.0] = 1.0
        q = q * signs[:, None, :]
        eigs = rng.uniform(mu, beta, size=(count, 2)) if mu < beta else np.full((count, 2), mu)
        mats = np.einsum("tij,tj,tkj->tik", q, eigs, q)
        mats = 0.5 * (mats + np.transpose(mats, (0, 2, 1)))
        centers = rng.uniform(-0.35, 0.35, (count, 2))
        za = np.stack([project(v, dom) for v in rng.standard_normal((count, 2))])
        zb = np.stack([project(v, dom) for v in rng.standard_normal((count, 2))])
        lipschitz = CostStream(mats, centers).lipschitz_bound(dom)
        cls = FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)
        for eta in [2.0 / (beta + mu)] + etas_grid:
            gamma = step_contraction(cls, eta)
            out_a = _batched_step(mats, centers, za, eta, dom.radius)
            out_b = _batched_step(mats, centers, zb, eta, dom.radius)
            lhs = np.linalg.norm(out_a - out_b, axis=1)
            rhs = gamma * np.linalg.norm(za - zb, axis=1)
            assert np.all(lhs <= rhs + 1e-10)
            disp = np.linalg.norm(out_a - za, axis=1)
            assert np.all(disp <= eta * lipschitz + 1e-10)
            # Tie the batch oracle to the shipped step on a spot-check sample
            # (einsum and matvec agree to the last few ulps, not bitwise).
            for idx in range(0, count, 211):
                np.testing.assert_allclose(
                    engine_step(quad(mats[idx], centers[idx]), za[idx], eta, dom), out_a[idx],
                    rtol=1e-12, atol=1e-15,
                )
    elapsed = time.monotonic() - start
    _report("4 (condition suite)", elapsed < 1.0,
            f"3 classes x 8 rates x 1000 draws; {elapsed:.2f}s")


def test_criterion_5_t2_bound_compliance():
    start = time.monotonic()
    dom = BallDomain(1.0)
    horizon, k, dim = 10_000, 3, 5
    sched = DeletionSchedule(((5, 200), (7, 900), (11, 4000)))
    cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    rates = SCDecreasing(mu=1.0)
    regrets = []
    for seed in range(20):
        gs = gen_stream(
            "sc-quadratic",
            dict(dimension=dim, horizon=horizon, radius=1.0, mu=1.0, beta=3.0),
            seed=seed,
        )
        assert all(u >= 0.5 + 3.0 for u in sched.indices)
        trace = run_passive(gs.stream, sched, rates, cfg, gs.fn_class, dom, seed=seed)
        assert all(e.sigma > 0.0 for e in trace.noise_events), (seed, trace.noise_events)
        regret = regret_dynamic(trace, gs.stream, sched, dom)
        gvals = g_functions(sched, gamma_nominal(gs.fn_class))
        bound = bound_rhs("T2", dict(
            L=gs.fn_class.lipschitz, mu=1.0, T=horizon, k=k, d=dim, eps=1.0, G1=gvals.g1,
        ))
        assert regret <= bound.value, (seed, regret, bound.value)
        regrets.append(regret)
    assert float(np.mean(regrets)) <= bound.value

    # Noise-free control at T and 2T: growth consistent with a log curve.
    control = []
    for horizon_c in (horizon, 2 * horizon):
        gs = gen_stream(
            "sc-quadratic",
            dict(dimension=dim, horizon=horizon_c, radius=1.0, mu=1.0, beta=3.0),
            seed=0,
        )
        trace = run_ogd(gs.stream, rates, dom, gs.fn_class)
        control.append(regret_dynamic(trace, gs.stream, EMPTY_SCHEDULE, dom))
    ratio = control[1] / control[0]
    elapsed = time.monotonic() - start
    _report("5 (T2 bound compliance)", ratio <= 1.35 and elapsed < 30.0,
            f"max regret={max(regrets):.2f} <= bound={bound.value:.1f}; "
            f"control ratio={ratio:.3f}; {elapsed:.1f}s")


def test_criterion_6_t3_bound_compliance():
    start = time.monotonic()
    dom = BallDomain(1.0)
    horizon, k, dim = 10_000, 2, 5
    cfg = UnlearnerConfig(alpha=2.0, eps=0.1, omega=1.2)
    for seed in range(20):
        gs = gen_stream(
            "convex-qg", dict(dimension=dim, horizon=horizon, radius=1.0, beta=1.0),
            seed=seed,
        )
        cls = gs.fn_class
        u_floor = cls.smoothness**2 * dom.diameter**2 / (4.0 * cls.lipschitz**2)
        sched = DeletionSchedule(((max(10, math.ceil(u_floor)), 1000), (40, 5000)))
        rates = ConvexDecreasing(diameter=dom.diameter, lipschitz=cls.lipschitz)
        trace = run_passive(gs.stream, sched, rates, cfg, cls, dom, seed=seed)
        regret = regret_dynamic(trace, gs.stream, sched, dom)
        gvals = g_functions(sched, 1.0)
        bound = bound_rhs("T3", dict(
            D=dom.diameter, L=cls.lipschitz, T=horizon, k=k, d=dim,
            eps=cfg.eps, kappa=gs.kappa_aggregate, G2=gvals.g2,
        ))
        assert regret <= bound.value, (seed, regret, bound.value)

    gs = gen_stream("convex-qg", dict(dimension=dim, horizon=horizon, radius=1.0, beta=1.0), seed=0)
    rates = ConvexDecreasing(diameter=dom.diameter, lipschitz=gs.fn_class.lipschitz)
    control = regret_dynamic(
        run_ogd(gs.stream, rates, dom, gs.fn_class), gs.stream, EMPTY_SCHEDULE, dom
    )
    limit = 3.0 * dom.diameter * gs.fn_class.lipschitz * 1.1
    ok_control = control / math.sqrt(horizon) <= limit
    elapsed = time.monotonic() - start
    _report("6 (T3 bound compliance)", ok_control and elapsed < 30.0,
            f"control regret/sqrt(T)={control / math.sqrt(horizon):.3f} <= {limit:.2f}; "
            f"{elapsed:.1f}s")


def test_criterion_7_t5_worst_case():
    start = time.monotonic()
    dom = BallDomain(1.0)
    horizon, k, dim = 10_000, 3, 5
    cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    sched = DeletionSchedule(((1, 1000), (2, 4000), (3, 7000)))
    for seed in range(20):
        gs = gen_stream(
            "convex-qg", dict(dimension=dim, horizon=horizon, radius=1.0, beta=1.0),
            seed=seed,
        )
        cls = gs.fn_class
        eta = constant_rate_worst_case(dom.diameter, cls.lipschitz, horizon, k, dim, cfg.eps)
        trace = run_passive(gs.stream, sched, ConstantRate(eta=eta), cfg, cls, dom, seed=seed)
        regret = regret_dynamic(trace, gs.stream, sched, dom)
        bound = bound_rhs("T5", dict(
            L=cls.lipschitz, D=dom.diameter, k=k, T=horizon, d=dim,
            eps=cfg.eps, kappa=gs.kappa_aggregate,
        ))
        assert regret <= bound.value, (seed, regret, bound.value)
    elapsed = time.monotonic() - start
    _report("7 (T5 worst-case rate)", elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_8_active_contraction():
    start = time.monotonic()
    dom = BallDomain(1.0)
    cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    rates = SCDecreasing(mu=1.0)
    sched = DeletionSchedule(((12, 16), (25, 34)))
    for seed in range(5):
        gs = gen_stream(
            "assumption2-segments",
            dict(dimension=2, horizon=40, radius=1.0, mu=1.0, beta=3.0),
            seed=seed,
        )
        cls = gs.fn_class
        inner_eta = 1.0 / (cls.smoothness + cls.strong_convexity)
        gamma = step_contraction(cls, inner_eta)
        acfg = ActiveConfig(base=cfg)
        trace = run_active(gs.stream, sched, rates, acfg, cls, dom, seed=seed)
        for j, event in enumerate(trace.noise_events, start=1):
            tau = event.time
            prenoise = trace.output_at(tau) - event.xi
            # The minimizer over steps 1..tau less the first j deleted losses.
            prefix = stream_of(rows_of(gs.stream)[:tau])
            target = comparators(prefix, DeletionSchedule(sched.entries[:j]), dom)[j]
            i1 = trace.i1_per_deletion[j - 1]
            i2 = trace.i2
            bound = gamma**i2 * (
                gamma**i1 * dom.diameter
                + 2.0 * j * cls.lipschitz / (tau * cls.strong_convexity)
            )
            assert np.linalg.norm(prenoise - target) <= bound + 1e-8, (seed, j)

        plain = run_ogd(gs.stream, rates, dom, cls)
        empty = run_active(gs.stream, EMPTY_SCHEDULE, rates,
                           ActiveConfig(base=cfg), cls, dom, seed=seed)
        assert np.array_equal(plain.outputs, empty.outputs)
    elapsed = time.monotonic() - start
    _report("8 (active contraction)", elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_9_exact_unlearning_baselines():
    start = time.monotonic()
    dom = BallDomain(1.0)
    rng = np.random.default_rng(9)
    rates = SCDecreasing(mu=1.0)
    items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.5) for _ in range(30)]
    stream = stream_of(items)
    lipschitz = stream.lipschitz_bound(dom)
    cls = FnClass(lipschitz=lipschitz, smoothness=3.0, strong_convexity=1.0)
    sched = DeletionSchedule(((3, 9), (12, 17)))

    tr = run_retraining(stream, sched, rates, dom, cls)
    oracle = run_ogd(retained(stream, sched), rates, dom, cls)
    assert np.array_equal(tr.outputs[16:], oracle.outputs[16:])
    oracle1 = run_ogd(retained(stream, sched, upto=1), rates, dom, cls)
    assert np.array_equal(tr.outputs[8:16], oracle1.outputs[8:16])

    sched_d = DeletionSchedule(((4, 8),))
    base = run_discard_restart(stream, sched_d, rates, dom, cls)
    for _ in range(10):
        mutated_items = list(items)
        mutated_items[int(rng.integers(0, 8))] = random_spd_quad(rng, 2, 1.0, 3.0, 0.5)
        mutated = run_discard_restart(stream_of(mutated_items), sched_d, rates, dom, cls)
        assert np.array_equal(mutated.outputs[8:], base.outputs[8:])
    elapsed = time.monotonic() - start
    _report("9 (exact-unlearning baselines)", elapsed < 5.0, f"{elapsed:.1f}s")


def test_criterion_10_formula_unit_tests():
    cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    checks = []

    def close(got, want):
        checks.append(
            got == want or (want != 0 and abs(got - want) <= 1e-12 * abs(want))
        )

    # calibrated_sigma with the nominal decay gamma ** gap
    close(calibrated_sigma(cfg, 1, 1.0**7, 1.0), math.sqrt(1.2 / 0.4))
    cfg_half = UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2)
    close(calibrated_sigma(cfg_half, 1, 0.5**2, 0.8), math.sqrt(1.2 / 0.2) * 0.25 * 0.8)
    close(calibrated_sigma(cfg, 1, 0.9**3, 0.0), 0.0)
    # active_sigma
    cfg_a = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    close(
        active_sigma(cfg_a, 1, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=4),
        0.5**4 * math.sqrt(1.2 / 0.4) * (6.0 + 0.25 * 0.125) / 10.0,
    )
    close(
        active_sigma(cfg_a, 2, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=4),
        0.5**4 * math.sqrt(2**1.2 * 1.2 / 0.4) * (12.0 + 0.25 * 0.125) / 10.0,
    )
    # limit case: noise vanishes as the retained phase deepens
    checks.append(active_sigma(cfg_a, 1, 10, 8, 0.125, 1.0, 1.0, 0.5, i2=200) < 1e-18)
    # required_iters
    checks.append(required_iters(0.5, 1.0, 2.0, 1.0, 10, 1) == (5, 0))
    checks.append(required_iters(0.5, 1.0, 2.0, 1.0, 10, 4)[1] == 5)
    checks.append(required_iters(0.5, 1.0, 2.0, 1.0, 10, 1)[1] == 0)
    # g_functions
    close(g_functions(DeletionSchedule(((8, 10),)), 0.5).g1, 10.0 * 0.5**4 / 64.0)
    close(g_functions(DeletionSchedule(((3, 9),)), 0.5).g2, 1.0)
    # bound_rhs
    close(
        bound_rhs("T2", dict(L=1.0, mu=1.0, T=100, k=1, d=2, eps=1.0, G1=0.009765625)).value,
        math.log(100.0) + 2.0 + math.sqrt(3.0) * 2.0 * 0.009765625,
    )
    close(bound_rhs("T5", dict(L=1.0, D=1.0, k=0, T=100, d=2, eps=1.0)).value, math.sqrt(200.0))
    close(
        bound_rhs("T3", dict(D=1.0, L=1.0, T=100, k=1, kappa=1.0, d=2, eps=1.0, G2=1.0)).value,
        35.0,
    )
    # gaussian_renyi
    close(gaussian_renyi(2.0, np.zeros(1), np.ones(1), 1.0), 1.0)
    close(gaussian_renyi(3.0, np.array([0.1, 0.2]), np.array([0.1, 0.2]), 0.5), 0.0)
    close(gaussian_renyi(3.0, np.array([2.0, 0.0]), np.zeros(2), 4.0), 1.5)
    # constant-rate worst case (Table 1 row)
    close(
        constant_rate_worst_case(1.0, 1.0, 100, 2, 2, 1.0),
        math.sqrt(2.0 / (100.0 * (1.0 + 1.2 * 2**2.2 * 2 / 0.42))),
    )
    close(constant_rate_worst_case(1.0, 1.0, 2, 0, 2, 1.0), 1.0)
    close(
        constant_rate_worst_case(1.0, 1.0, 100, 1, 1, 1.0),
        math.sqrt(2.0 / (100.0 * (1.0 + 1.2 / 0.42))),
    )
    _report("10 (formula unit tests)", all(checks), f"{len(checks)} formulas at 1e-12")


def test_criterion_11_erm_stability_lemmas():
    start = time.monotonic()
    dom = BallDomain(1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        horizon = int(rng.integers(6, 16))
        items = [random_spd_quad(rng, 2, 1.0, 3.0, 0.4) for _ in range(horizon)]
        lipschitz = stream_of(items).lipschitz_bound(dom)
        i = int(rng.integers(1, min(4, horizon)))
        removed = rng.choice(horizon, size=i, replace=False)
        full, sub = erm_pair(items, removed, dom)
        assert np.linalg.norm(full - sub) <= 2.0 * i * lipschitz / (1.0 * horizon) + 1e-6

    for _ in range(50):
        horizon = int(rng.integers(8, 20))
        items = []
        for t in range(horizon):
            v = np.zeros(2)
            v[t % 2] = 1.0
            items.append(quad(np.outer(v, v), rng.uniform(-0.4, 0.4, 2)))
        lipschitz = stream_of(items).lipschitz_bound(dom)
        k = int(rng.integers(1, 3))
        removed = rng.choice(horizon, size=k, replace=False)
        kappa = float(np.linalg.eigvalsh(sum(f[0] for f in items))[0])
        full, sub = erm_pair(items, removed, dom)
        assert np.linalg.norm(full - sub) <= 2.0 * k * lipschitz / kappa + 1e-6
    elapsed = time.monotonic() - start
    _report("11 (ERM stability lemmas)", elapsed < 5.0, f"100 instances; {elapsed:.1f}s")


def test_criterion_12_noise_decay_and_g3_replay(tmp_path):
    cfg = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.2)
    sigmas = [calibrated_sigma(cfg, 1, 0.5**gap, 0.7) for gap in range(1, 22)]
    decay_exact = all(
        sigmas[idx + 1] / sigmas[idx] == 0.5 for idx in range(20)
    )

    # Reload a stored adaptive trace and recompute G3 from its p history.
    from online_unlearning.ogd import AdaptiveRate

    dom = BallDomain(1.0)
    gs = gen_stream(
        "sc-quadratic", dict(dimension=3, horizon=200, radius=1.0, mu=1.0, beta=3.0),
        seed=12,
    )
    sched = DeletionSchedule(((20, 60), (90, 150)))
    rates = AdaptiveRate(diameter=dom.diameter, warm_floor=gs.fn_class.smoothness / 2.0)
    cfg15 = UnlearnerConfig(alpha=2.0, eps=1.0, omega=1.5)
    trace = run_passive(gs.stream, sched, rates, cfg15, gs.fn_class, dom, seed=3)
    live = g_functions(sched, 0.5, p_history=trace.p_history, beta=3.0).g3

    trace.write_summary(tmp_path / "run.json")
    stored = json.loads((tmp_path / "run.json").read_text())
    p_stored = np.array(stored["p_history"])
    replayed = g_functions(sched, 0.5, p_history=p_stored, beta=3.0).g3
    g3_exact = abs(replayed - live) <= 1e-12 * live

    _report("12 (noise decay and G3 replay)", decay_exact and g3_exact,
            f"sigma ratio exact over gaps 1..21; G3 live={live:.6g} replay={replayed:.6g}")
