import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from online_unlearning import (
    BallDomain,
    GeneratorError,
    InvalidConfigError,
)
from online_unlearning.certifier import certify_passive_run
from online_unlearning.cli import main as cli_main
from online_unlearning.core import decode_vector, project, stack_quadratics
from online_unlearning.harness import (
    ExperimentConfig,
    _centers_in_half_ball,
    _seed_inputs,
    build_schedule,
    config_hash,
    gen_stream,
    run_experiment,
    sweep_points,
)
from online_unlearning.ogd import SCDecreasing, rates_array
from online_unlearning.passive import UnlearnerConfig, noise_multiplier, run_passive
from online_unlearning.regret import cumulative_regret_curve, regret_dynamic
from online_unlearning.rng import noise_generator

from conftest import strict_json


def _base_config(**overrides):
    raw = {
        "dimension": 2,
        "horizon": 40,
        "radius": 1.0,
        "stream": {"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
        "schedule": {"kind": "explicit", "entries": [[5, 12], [7, 25]]},
        "algorithm": "passive",
        "rate": {"kind": "sc-decreasing"},
        "unlearner": {"alpha": 2.0, "eps": 0.5, "omega": 1.2,
                      "gamma_mode": "per-step-product"},
        "seeds": [0, 1],
    }
    raw.update(overrides)
    return raw


class TestGenerators:
    def test_sc_quadratic_class_honesty(self):
        dom = BallDomain(1.0)
        gs = gen_stream("sc-quadratic",
                        dict(dimension=3, horizon=50, radius=1.0, mu=1.0, beta=3.0), seed=0)
        mats, centers, _, _ = stack_quadratics(gs.stream)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            t = int(rng.integers(1, 51))
            z = project(rng.standard_normal(3), dom)
            grad = mats[t - 1] @ (z - centers[t - 1])
            assert float(np.linalg.norm(grad)) <= gs.fn_class.lipschitz
        for mat, center in zip(mats, centers):
            eigs = np.linalg.eigvalsh(mat)
            assert eigs[0] >= 1.0 - 1e-9 and eigs[-1] <= 3.0 + 1e-9
            assert np.linalg.norm(center) <= 0.5 + 1e-12

    @pytest.mark.parametrize("params", [dict(mu=1.0), dict(beta=3.0), dict(mu=0.0, beta=3.0)])
    def test_sc_streams_need_mu_and_beta(self, params):
        with pytest.raises(GeneratorError, match="sc"):
            gen_stream("sc-quadratic", dict(dimension=2, horizon=5, radius=1.0, **params), seed=0)

    def test_isotropic_degenerate_class(self):
        gs = gen_stream("sc-quadratic",
                        dict(dimension=2, horizon=5, radius=1.0, mu=1.0, beta=1.0), seed=0)
        for mat in stack_quadratics(gs.stream)[0]:
            assert np.array_equal(mat, np.eye(2))
        assert gs.kappa_aggregate == pytest.approx(1.0, rel=1e-12)

    def test_convex_qg_window_growth(self):
        dom = BallDomain(1.0)
        gs = gen_stream("convex-qg",
                        dict(dimension=2, horizon=40, radius=1.0, beta=1.0), seed=3)
        # Alternating rank-one directions: any even window has lambda_min = window/2.
        mats = stack_quadratics(gs.stream)[0]
        for mat in mats:
            assert np.linalg.eigvalsh(mat)[0] == pytest.approx(0.0, abs=1e-12)
        for start in (0, 4, 10):
            for window in (4, 10, 20):
                total = sum(mats[t] for t in range(start, start + window))
                assert np.linalg.eigvalsh(total)[0] == pytest.approx(window / 2.0, rel=1e-9)

    def test_convex_qg_prefix_qg_measured(self):
        gs = gen_stream("convex-qg",
                        dict(dimension=2, horizon=30, radius=1.0, beta=1.0), seed=4)
        mats = stack_quadratics(gs.stream)[0]
        for prefix in (10, 20, 30):
            # A prefix's quadratic-growth modulus is its curvature sum's lambda_min.
            kappa = float(np.linalg.eigvalsh(mats[:prefix].sum(axis=0))[0])
            assert kappa >= gs.kappa_aggregate * prefix * 0.99

    def test_convex_qg_target_enforced(self):
        with pytest.raises(GeneratorError):
            gen_stream("convex-qg",
                       dict(dimension=2, horizon=40, radius=1.0, beta=1.0,
                            kappa_rate=0.9), seed=0)

    def test_assumption2_shared_stationary_point(self):
        gs = gen_stream("assumption2-segments",
                        dict(dimension=2, horizon=20, radius=1.0, mu=1.0, beta=3.0), seed=5)
        mats, centers, _, _ = stack_quadratics(gs.stream)
        for mat, center in zip(mats, centers):
            assert np.array_equal(center, centers[0])
            assert np.allclose(mat @ (centers[0] - center), 0.0, atol=1e-15)

    def test_unknown_kind(self):
        with pytest.raises(GeneratorError):
            gen_stream("mystery", dict(dimension=2, horizon=5, radius=1.0), seed=0)


class TestSchedules:
    def test_explicit(self):
        sched = build_schedule({"kind": "explicit", "entries": [[2, 5], [3, 9]]}, 20)
        assert sched.entries == ((2, 5), (3, 9))

    def test_pattern(self):
        sched = build_schedule({"kind": "pattern", "k": 3, "gap": 4,
                                "spacing": 10, "first_time": 10}, 40)
        assert sched.times == (10, 20, 30)
        assert sched.indices == (6, 16, 26)

    def test_adversarial_early(self):
        sched = build_schedule({"kind": "adversarial-early", "k": 3,
                                "spacing": 8, "first_time": 8}, 40)
        assert sched.indices == (1, 2, 3)
        assert sched.times == (8, 16, 24)


class TestConfigValidation:
    def test_accepts_valid(self):
        ExperimentConfig.from_dict(_base_config())

    def test_rejects_unknown_field_with_path(self):
        raw = _base_config()
        raw["stream"]["typo_field"] = 1
        with pytest.raises(InvalidConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert "stream" in str(err.value)

    def test_rejects_missing_required(self):
        raw = _base_config()
        del raw["seeds"]
        with pytest.raises(InvalidConfigError):
            ExperimentConfig.from_dict(raw)

    def test_rejects_bad_enum(self):
        raw = _base_config(algorithm="magic")
        with pytest.raises(InvalidConfigError) as err:
            ExperimentConfig.from_dict(raw)
        assert "algorithm" in str(err.value)


class TestRunExperiment:
    def test_outputs_and_reproducibility(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_base_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        s1 = run_experiment(cfg, out1)
        s2 = run_experiment(cfg, out2)
        assert s1["config_hash"] == s2["config_hash"]
        digest = s1["config_hash"]
        files = sorted((out1 / digest).rglob("*"))
        assert files
        for f1 in files:
            f2 = out2 / digest / f1.relative_to(out1 / digest)
            if f1.is_file():
                assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_expected_artifacts(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_base_config())
        summary = run_experiment(cfg, tmp_path)
        base = tmp_path / summary["config_hash"]
        for seed in (0, 1):
            assert (base / str(seed) / "trace.csv").exists()
            assert (base / str(seed) / "regret.json").exists()
            assert (base / str(seed) / "cert.json").exists()
        assert (base / "summary.json").exists()
        assert summary["cert_pass_rate"] == 1.0

    @pytest.mark.parametrize("algorithm", ["passive", "active"])
    def test_noise_replays_from_the_seed(self, tmp_path, algorithm):
        # Each event's xi is sigma times the next d normals of the run's (seed,) generator.
        raw = _base_config(algorithm=algorithm,
                           schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]})
        summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        for seed in (0, 1):
            run = json.loads((tmp_path / summary["config_hash"] / str(seed) / "run.json")
                             .read_text())
            gen = noise_generator(seed, ())
            assert len(run["noise_events"]) == 2
            for event in run["noise_events"]:
                expected = event["sigma"] * gen.standard_normal(raw["dimension"])
                assert decode_vector(event["xi"]).tobytes() == expected.tobytes()

    def test_no_cert_for_k_zero(self, tmp_path):
        raw = _base_config(schedule={"kind": "explicit", "entries": []})
        cfg = ExperimentConfig.from_dict(raw)
        summary = run_experiment(cfg, tmp_path)
        base = tmp_path / summary["config_hash"]
        assert not (base / "0" / "cert.json").exists()

    def test_sigma_decays_with_gap_sweep(self, tmp_path):
        """sigma_1 / delta_1 across a gap sweep is the product of the step factors over the gap."""
        # eta_t = 1/t on mu = 1, beta = 3: the factor at t is max(|1 - 1/t|, |1 - 3/t|).
        multiplier = noise_multiplier(UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2), 1)
        for gap in range(1, 8):
            raw = _base_config(schedule={"kind": "explicit", "entries": [[12 - gap, 12]]},
                               seeds=[0])
            summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
            run_json = tmp_path / summary["config_hash"] / "0" / "run.json"
            with open(run_json) as handle:
                event = json.load(handle)["noise_events"][0]
            decay = math.prod(max(abs(1.0 - 1.0 / t), abs(1.0 - 3.0 / t))
                              for t in range(13 - gap, 13))
            assert event["sigma"] / event["delta"] == pytest.approx(multiplier * decay, rel=1e-12)

    def test_monte_carlo_draws_are_keyed_by_the_run_seed(self, tmp_path):
        # Each seed's cert.json holds the estimates drawn under its own keys (seed, process,
        # event): seed 1's are not the ones seed 0's keys give on seed 1's inputs.
        cfg = ExperimentConfig.from_dict(_base_config(mc_samples=200))
        summary = run_experiment(cfg, tmp_path)
        ucfg = UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2)
        for seed in (0, 1):
            with open(tmp_path / summary["config_hash"] / str(seed) / "cert.json") as handle:
                written = [row["mc_estimate"] for row in json.load(handle)]
            dom, gs, sched = _seed_inputs(cfg, seed)
            rates = rates_array(SCDecreasing(mu=gs.fn_class.strong_convexity), len(gs.stream))
            keyed = {
                key: [r.mc_estimate for r in certify_passive_run(
                    gs.stream, sched, rates, ucfg, gs.fn_class, dom, mc_samples=200, seed=key)]
                for key in (0, 1)
            }
            assert written[0] is not None
            assert written == keyed[seed]
            assert written != keyed[1 - seed]

    def test_retrain_and_discard_paths(self, tmp_path):
        for algo in ("retrain", "discard"):
            raw = _base_config(algorithm=algo)
            summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
            assert summary["cert_pass_rate"] is None

    def test_active_path(self, tmp_path):
        raw = _base_config(
            algorithm="active",
            schedule={"kind": "explicit", "entries": [[10, 12], [20, 25]]},
        )
        summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        base = tmp_path / summary["config_hash"]
        with open(base / "0" / "cert.json") as handle:
            cert = json.load(handle)
        assert cert[0]["exact_divergence"] is None
        assert summary["cert_pass_rate"] == 1.0


_GRID = ("passive", "active", "retrain", "discard")

def _unlearner_eps(text: str) -> str:
    """The base config's file text with ``unlearner.eps`` written as ``text``."""
    raw = _base_config(unlearner={"alpha": 2.0, "eps": "EPS", "omega": 1.2})
    return json.dumps(raw).replace('"EPS"', text)


# Configs the CLI must refuse with exit 2; a string is the file's literal text.
_REFUSED = {
    "active-shape": _base_config(algorithm="active"),
    "explicit-tau-past-horizon": _base_config(
        schedule={"kind": "explicit", "entries": [[5, 12], [14, 45]]}),
    "explicit-u-after-tau": _base_config(schedule={"kind": "explicit", "entries": [[13, 12]]}),
    "pattern-past-horizon": _base_config(
        schedule={"kind": "pattern", "k": 3, "gap": 2, "spacing": 20}),
    "active-on-convex-qg": _base_config(
        algorithm="active", stream={"kind": "convex-qg", "beta": 1.0},
        rate={"kind": "convex-decreasing"},
        schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]}),
    "mu-above-beta": _base_config(stream={"kind": "sc-quadratic", "mu": 3.0, "beta": 1.0}),
    "active2-noise-undefined": _base_config(
        algorithm="active2", schedule={"kind": "explicit", "entries": [[1, 2], [2, 3], [3, 4]]}),
    "gamma-mode-nominal": _base_config(
        unlearner={"alpha": 2.0, "eps": 0.5, "omega": 1.2, "gamma_mode": "nominal"}),
    "not-json": "{not json",
    "eps-infinity": _unlearner_eps("Infinity"),
    "eps-1e400": _unlearner_eps("1e400"),
    "radius-nan": _base_config(radius=math.nan),
    # A ball whose points' squares underflow: a norm would read 0 and never bind.
    "radius-tiny": _base_config(radius=1e-300),
    "beta-infinity": _base_config(stream={"kind": "sc-quadratic", "mu": 1.0,
                                          "beta": math.inf}),
    "pattern-without-k": _base_config(schedule={"kind": "pattern", "gap": 2}),
    "pattern-without-gap": _base_config(schedule={"kind": "pattern", "k": 2}),
    "adversarial-early-without-k": _base_config(schedule={"kind": "adversarial-early"}),
    "explicit-without-entries": _base_config(schedule={"kind": "explicit"}),
    # L^2 underflows to 0 (beta 1e-300) or overflows (beta 1e300) in the worst-case eta.
    "worst-case-rate-underflow": _base_config(stream={"kind": "convex-qg", "beta": 1e-300},
                                              rate={"kind": "constant-worst-case"}),
    "worst-case-rate-overflow": _base_config(stream={"kind": "sc-quadratic", "mu": 1e300,
                                                     "beta": 1e300},
                                             rate={"kind": "constant-worst-case"}),
}
# The start of the error line, where a refusal names the field at fault.
_REFUSED_AT = {
    "gamma-mode-nominal": "error: config invalid at $.unlearner.gamma_mode: ",
    "eps-infinity": "error: config invalid at $.unlearner.eps: inf is not a finite number",
    "eps-1e400": "error: config invalid at $.unlearner.eps: inf is not a finite number",
    "radius-nan": "error: config invalid at $.radius: nan is not a finite number",
    "radius-tiny": "error: config invalid at $.radius: 1e-300 is less than the minimum of 1e-150",
    "beta-infinity": "error: config invalid at $.stream.beta: inf is not a finite number",
    "pattern-without-k": "error: config invalid at $.schedule.k: ",
    "pattern-without-gap": "error: config invalid at $.schedule.gap: ",
    "adversarial-early-without-k": "error: config invalid at $.schedule.k: ",
    "explicit-without-entries": "error: config invalid at $.schedule.entries: ",
    "worst-case-rate-underflow": "error: worst-case rate out of range at L = ",
    "worst-case-rate-overflow": "error: worst-case rate out of range at L = ",
}

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(__file__).resolve().parents[1] / "src"

# Overrides of the shipped config whose run overflows in the step loop or
# its losses, with the refusal each must end in.
_OVERFLOWS = {
    # Gradients near 1e300 square past the float range in the adaptive rate's sum.
    "adaptive-gradient-sum": (
        dict(stream={"kind": "sc-quadratic", "mu": 1.0, "beta": 1e300},
             rate={"kind": "adaptive"}),
        "adaptive rate's gradient sum out of range at step 1"),
    # eps 1e-306 gives noise near 1e153, whose losses sum past the float range.
    "losses": (
        dict(dimension=1, radius=1000.0, stream={"kind": "convex-qg", "beta": 1.0},
             rate={"kind": "convex-decreasing"},
             schedule={"kind": "pattern", "k": 11, "gap": 0, "first_time": 3, "spacing": 1},
             unlearner={"alpha": 10.0, "eps": 1e-306, "omega": 2.0}),
        "the run's losses sum past the float range"),
    # eta * beta overflows in the step factor of the rate the config is refused for.
    "step-contraction": (
        dict(algorithm="active2", stream={"kind": "convex-qg", "beta": 1e300},
             rate={"kind": "constant", "eta": 1e12}),
        "eta=1000000000000.0 exceeds 2/beta=2e-300; step factor inf > 1"),
}


def _grid_config() -> dict:
    return _base_config(schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]},
                        sweep={"algorithm": list(_GRID)})


def _write_config(tmp_path, raw) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _count_gen_stream(monkeypatch) -> list:
    """Record ``(seed, mu)`` of every ``gen_stream`` call the harness makes."""
    import online_unlearning.harness as harness

    calls, original = [], harness.gen_stream

    def counted(kind, params, seed):
        calls.append((seed, params["mu"]))
        return original(kind, params, seed)

    monkeypatch.setattr(harness, "gen_stream", counted)
    return calls


@pytest.fixture
def in_process_pools(monkeypatch) -> list:
    """Stand in for ``ProcessPoolExecutor`` with pools that run each submission at once, here.

    Returns the pools built, each recording ``max_workers`` and its submissions;
    no worker process is ever started.
    """
    import concurrent.futures

    built = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.max_workers, self.submissions = max_workers, 0
            built.append(self)

        def submit(self, fn, *args, **kwargs):
            self.submissions += 1
            future = concurrent.futures.Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as err:
                future.set_exception(err)
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.shutdown()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return built


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestSweepAndCli:
    def test_sweep_expansion(self):
        raw = _base_config()
        raw["sweep"] = {"unlearner.eps": [0.5, 1.0], "dimension": [2, 3]}
        points = sweep_points(ExperimentConfig.from_dict(raw))
        assert len(points) == 4
        dims = sorted(p.raw["dimension"] for p in points)
        assert dims == [2, 2, 3, 3]
        assert all("sweep" not in p.raw for p in points)

    def test_cli_run_and_report(self, tmp_path):
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as handle:
            json.dump(_base_config(), handle)
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        code = cli_main(["regret-report", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        code = cli_main(["certify", "--config", str(config_path), "--out", str(out)])
        assert code == 0

    def test_cli_rejects_bad_config(self, tmp_path):
        config_path = tmp_path / "bad.json"
        with open(config_path, "w") as handle:
            json.dump({"nope": 1}, handle)
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 2

    def test_cli_rejects_i1_of_the_wrong_length(self, tmp_path, capsys):
        config_path = tmp_path / "active.json"
        with open(config_path, "w") as handle:
            json.dump(_base_config(
                algorithm="active", seeds=[0],
                schedule={"kind": "explicit", "entries": [[5, 12], [14, 25], [26, 30]]},
                active={"i1": [3]},
            ), handle)
        assert cli_main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 2
        assert "error: active.i1 has 1 entries for 3 deletions" in capsys.readouterr().err

    def test_cli_certify_skips_regret(self, tmp_path):
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as handle:
            json.dump(_base_config(seeds=[0]), handle)
        out = tmp_path / "out"
        assert cli_main(["certify", "--config", str(config_path), "--out", str(out)]) == 0
        digest = next(p for p in out.iterdir() if p.is_dir())
        assert (digest / "0" / "cert.json").exists()
        assert not (digest / "0" / "regret.json").exists()

    def test_regret_report_after_certify_checks_nothing(self, tmp_path, capsys):
        # certify writes a trace but no regret.json: there is nothing to match.
        config, out = _write_config(tmp_path, _base_config(seeds=[0])), str(tmp_path / "out")
        assert cli_main(["certify", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["regret-report", "--config", config, "--out", out]) == 1
        captured = capsys.readouterr()
        line = json.loads(captured.out)
        assert line["stored"] is None and line["matches"] is None
        assert "no stored regret report under" in captured.err

    def test_regret_report_recomputes_from_store(self, tmp_path):
        from online_unlearning.harness import recompute_regret

        cfg = ExperimentConfig.from_dict(_base_config(seeds=[0]))
        summary = run_experiment(cfg, tmp_path)
        result = recompute_regret(cfg, tmp_path, 0)
        assert result["matches"]
        assert result["stored"] == pytest.approx(result["recomputed"], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("algorithm", ["passive", "retrain"])
    def test_regret_report_matches_exactly(self, tmp_path, algorithm):
        from online_unlearning.harness import recompute_regret

        cfg = ExperimentConfig.from_dict(_base_config(seeds=[0], algorithm=algorithm))
        run_experiment(cfg, tmp_path)
        result = recompute_regret(cfg, tmp_path, 0)
        assert result["recomputed"] == result["stored"]
        assert result["matches"]

        # One ulp off is a mismatch: the report must reproduce the stored bits.
        report_path = tmp_path / config_hash(cfg) / "0" / "regret.json"
        report = json.loads(report_path.read_text())
        report["regret"] = float(np.nextafter(report["regret"], np.inf))
        report_path.write_text(json.dumps(report))
        assert not recompute_regret(cfg, tmp_path, 0)["matches"]

    def test_parallel_seeds_identical_output(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_base_config(seeds=[0, 1, 2]))
        s1 = run_experiment(cfg, tmp_path / "seq", jobs=1)
        s2 = run_experiment(cfg, tmp_path / "par", jobs=3)
        digest = s1["config_hash"]
        for f1 in sorted((tmp_path / "seq" / digest).rglob("*")):
            if f1.is_file():
                f2 = tmp_path / "par" / digest / f1.relative_to(tmp_path / "seq" / digest)
                assert f1.read_bytes() == f2.read_bytes()

    def test_regret_curve_csv(self, tmp_path):
        cfg = ExperimentConfig.from_dict(_base_config(seeds=[0]))
        summary = run_experiment(cfg, tmp_path)
        path = tmp_path / summary["config_hash"] / "0" / "regret_curve.csv"
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "t,cumulative_regret,bound_rhs"
        assert len(rows) == 41
        final = float(rows[-1].split(",")[1])
        with open(tmp_path / summary["config_hash"] / "0" / "regret.json") as handle:
            assert final == pytest.approx(json.load(handle)["regret"], rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("overrides, bounded", [
        # T2 at T = 1, where log(t) / log(T) is 0 / 0.
        (dict(horizon=1, schedule={"kind": "explicit", "entries": [[1, 1]]}), True),
        # kappa is 0 here, so T3 refuses and the run has no bound.
        (dict(dimension=4, horizon=3, stream={"kind": "convex-qg", "beta": 1.0},
              rate={"kind": "convex-decreasing"},
              schedule={"kind": "explicit", "entries": [[1, 2]]}), False),
    ], ids=["t2-horizon-1", "no-bound"])
    @pytest.mark.filterwarnings("ignore:singular curvature sum:RuntimeWarning")
    def test_regret_curve_csv_holds_no_nan(self, tmp_path, overrides, bounded):
        raw = _base_config(seeds=[0], **overrides)
        summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        seed_dir = tmp_path / summary["config_hash"] / "0"
        rows = [row.split(",") for row in
                (seed_dir / "regret_curve.csv").read_text().splitlines()[1:]]
        bound = json.loads((seed_dir / "regret.json").read_text()).get("bound")
        assert (bound is not None) == bounded
        assert len(rows) == raw["horizon"]
        if bounded:
            assert float(rows[-1][2]) == pytest.approx(bound["value"], rel=1e-12)
        else:
            assert [row[2] for row in rows] == [""] * raw["horizon"]

    def test_precondition_warning_blocks_claim(self, tmp_path):
        raw = _base_config(schedule={"kind": "explicit", "entries": [[1, 12]]}, seeds=[0])
        summary = run_experiment(ExperimentConfig.from_dict(raw), tmp_path)
        assert summary["per_seed"][0]["regret_pass"] is None
        report = json.loads((tmp_path / summary["config_hash"] / "0" / "regret.json").read_text())
        assert report["bound_preconditions_ok"] is False

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_cli_refusals_exit_2(self, tmp_path, capsys, name):
        path = tmp_path / "config.json"
        raw = _REFUSED[name]
        path.write_text(raw if isinstance(raw, str) else json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(_REFUSED_AT.get(name, "error: "))
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["directory", "not-utf8"])
    def test_cli_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "config.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{}")
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config {str(path)!r}: ")
        assert "Traceback" not in err

    def test_cli_seeds_that_are_not_integers_exit_2(self, tmp_path, capsys):
        config = _write_config(tmp_path, _base_config())
        assert cli_main(["run", "--config", config, "--out", str(tmp_path / "out"),
                         "--seeds", "0,x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seeds '0,x': ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    @pytest.mark.parametrize("keep_gamma_mode", [True, False])
    def test_shipped_configs_certify(self, tmp_path, capsys, name, keep_gamma_mode):
        raw = json.loads((CONFIGS / name).read_text())
        if not keep_gamma_mode:
            raw["unlearner"].pop("gamma_mode", None)
        out = tmp_path / "out"
        assert cli_main(["certify", "--config", _write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        for seed in raw["seeds"]:
            cert = json.loads((out / config_hash(ExperimentConfig.from_dict(raw)) / str(seed)
                               / "cert.json").read_text())
            assert cert[0]["exact_divergence"] is not None

    def test_refused_rows_write_strict_json(self, tmp_path, capsys):
        # eta_1 = 1 > 2/beta: the first gap does not contract, so every row is refused.
        raw = json.loads((CONFIGS / "passive_sc.json").read_text())
        raw.update(stream={"kind": "sc-quadratic", "mu": 1.0, "beta": 10.0},
                   schedule={"kind": "adversarial-early", "k": 3}, seeds=[0])
        out = tmp_path / "out"
        assert cli_main(["certify", "--config", _write_config(tmp_path, raw),
                         "--out", str(out)]) == 1
        cert = strict_json((out / config_hash(ExperimentConfig.from_dict(raw)) / "0"
                             / "cert.json").read_text())
        assert len(cert) == 3
        for row in cert:
            assert row["analytic_bound"] is None and not row["pass"]
            assert row["note"].startswith("refused: deletion 1: non-contractive step")

    def test_cli_run_on_a_grid_equals_sweep(self, tmp_path, capsys):
        config = _write_config(tmp_path, _grid_config())
        codes = [cli_main([command, "--config", config, "--out", str(tmp_path / command)])
                 for command in ("run", "sweep")]
        assert codes[0] == codes[1]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 * len(_GRID)
        assert lines[:len(_GRID)] == lines[len(_GRID):]
        assert _tree(tmp_path / "run") == _tree(tmp_path / "sweep")

    def test_cli_certify_on_a_grid(self, tmp_path, capsys):
        raw = _grid_config()
        out = tmp_path / "out"
        assert cli_main(["certify", "--config", _write_config(tmp_path, raw),
                         "--out", str(out)]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        points = sweep_points(ExperimentConfig.from_dict(raw))
        assert [line["config_hash"] for line in lines] == [config_hash(p) for p in points]
        for point in points:
            seed_dir = out / config_hash(point) / "0"
            certified = point.raw["algorithm"] in ("passive", "active")
            assert (seed_dir / "cert.json").exists() == certified
        assert not list(out.rglob("regret.json"))

    def test_cli_sweep_point_pool_matches_serial(self, tmp_path):
        config = _write_config(tmp_path, _grid_config())
        for jobs in ("1", "2"):
            cli_main(["sweep", "--config", config, "--out", str(tmp_path / jobs), "--jobs", jobs])
        assert _tree(tmp_path / "1") == _tree(tmp_path / "2")

    def test_cli_sweep_matches_library_path(self, tmp_path):
        raw = _grid_config()
        cli_main(["sweep", "--config", _write_config(tmp_path, raw),
                  "--out", str(tmp_path / "cli")])
        for point in sweep_points(ExperimentConfig.from_dict(raw)):
            run_experiment(point, tmp_path / "lib")
        assert _tree(tmp_path / "cli") == _tree(tmp_path / "lib")

    def test_cli_refuses_a_non_contractive_constant_rate(self, tmp_path, capsys):
        # eta = 10 against beta = 3 (2/beta = 0.67): refused before anything runs.
        config = _write_config(tmp_path, _base_config(rate={"kind": "constant", "eta": 10.0}))
        assert cli_main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eta=10.0 exceeds 2/beta")
        assert "Traceback" not in err

    def test_refused_point_leaves_nothing_under_out(self, tmp_path):
        config = _write_config(tmp_path, _base_config(rate={"kind": "constant", "eta": 10.0}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", config, "--out", str(out)]) == 2
        assert not out.exists() or not list(out.rglob("*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_refused_grid_runs_no_point(self, tmp_path, capsys, jobs):
        # The second point's eta = 10 breaks 2/beta: its config alone refuses the grid.
        raw = _base_config(rate={"kind": "constant", "eta": 0.1},
                           sweep={"rate.eta": [0.1, 10.0]})
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out),
                         "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: eta=10.0 exceeds 2/beta")
        assert not out.exists() or not list(out.rglob("*"))

    @pytest.mark.parametrize("overrides, error", [
        (dict(sweep={"schedule.entries": [[[5, 12], [7, 25]], [[5, 12], [7, 50]]]}),
         "error: deletion time 50"),
        (dict(sweep={"rate": [{"kind": "sc-decreasing"}, {"kind": "constant"}]}),
         "error: constant rate needs eta"),
        (dict(sweep={"stream": [{"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
                                {"kind": "convex-qg"}]}),
         "error: sc-decreasing rate needs a strongly convex class"),
        (dict(algorithm="active", rate={"kind": "convex-decreasing"},
              schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]},
              sweep={"stream": [{"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
                                {"kind": "convex-qg"}]}),
         "error: the active unlearner requires mu > 0"),
        (dict(algorithm="active",
              sweep={"schedule.entries": [[[5, 12], [14, 25]], [[5, 12], [7, 25]]]}),
         "error: deletion 2: index 7 outside [12, 25]"),
        (dict(algorithm="active", schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]},
              sweep={"active.i1": [[3, 3], [3]]}),
         "error: active.i1 has 1 entries for 2 deletions"),
    ])
    def test_each_config_refusal_refuses_the_grid(self, tmp_path, capsys, overrides, error):
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, _base_config(**overrides)),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(error)
        assert not out.exists() or not list(out.rglob("*"))

    @pytest.mark.parametrize("key, part", [("dimension.x", "dimension"), ("seeds.x", "seeds")])
    def test_sweep_key_through_a_non_object_is_refused(self, tmp_path, capsys, key, part):
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, _base_config(sweep={key: [1]})),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep key {key!r}: {part!r} is not an object\n"
        assert not out.exists() or not list(out.rglob("*"))

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_refused_grid_prints_the_points_that_finished(self, tmp_path, capsys, jobs):
        # The second point misses its kappa_rate target, which only its generated stream shows.
        raw = _base_config(stream={"kind": "convex-qg", "beta": 1.0, "kappa_rate": 0.1},
                           rate={"kind": "convex-decreasing"},
                           sweep={"stream.kappa_rate": [0.1, 10.0]})
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out),
                         "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "misses the target 10.0" in captured.err
        lines = [json.loads(line) for line in captured.out.splitlines()]
        finished, refused = sweep_points(ExperimentConfig.from_dict(raw))
        assert [line["config_hash"] for line in lines] == [config_hash(finished)]
        assert (out / config_hash(finished) / "summary.json").exists()
        assert not (out / config_hash(refused)).exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_refusal_ends_the_grid_at_any_jobs(self, tmp_path, capsys, jobs):
        # The middle point misses its kappa_rate target; the third point is never reported.
        raw = _base_config(stream={"kind": "convex-qg", "beta": 1.0, "kappa_rate": 0.1},
                           rate={"kind": "convex-decreasing"},
                           sweep={"stream.kappa_rate": [0.1, 10.0, 0.2]})
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out),
                         "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert "misses the target 10.0" in captured.err and "Traceback" not in captured.err
        first, refused, later = sweep_points(ExperimentConfig.from_dict(raw))
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert [line["config_hash"] for line in lines] == [config_hash(first)]
        assert (out / config_hash(first) / "summary.json").exists()
        for point in (refused, later):
            assert not (out / config_hash(point) / "summary.json").exists()
            assert not (out / config_hash(point) / "config.json").exists()

    def test_pool_workers_never_outnumber_the_runs(self, tmp_path, capsys, in_process_pools):
        config = _write_config(tmp_path, _base_config(seeds=[0, 1]))
        assert cli_main(["run", "--config", config, "--out", str(tmp_path / "out"),
                         "--jobs", "8"]) == 0
        assert [pool.max_workers for pool in in_process_pools] == [2]

    def test_a_grid_runs_through_one_pool(self, tmp_path, capsys, in_process_pools):
        config = _write_config(tmp_path, _base_config(sweep={"algorithm": ["passive", "retrain"]}))
        for jobs in ("1", "4"):
            assert cli_main(["run", "--config", config, "--out", str(tmp_path / jobs),
                             "--jobs", jobs]) == 0
        assert [(pool.max_workers, pool.submissions) for pool in in_process_pools] == [(4, 4)]
        assert _tree(tmp_path / "1") == _tree(tmp_path / "4")

    @pytest.mark.parametrize("algorithm", ["passive", "active"])
    def test_equal_curvatures_run(self, tmp_path, capsys, algorithm):
        # mu == beta makes the nominal contraction 0: G1 keeps only deletions with tau == u.
        raw = _base_config(stream={"kind": "sc-quadratic", "mu": 2.0, "beta": 2.0},
                           schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]},
                           algorithm=algorithm)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out)]) == 0
        for seed in raw["seeds"]:
            report = json.loads((out / config_hash(ExperimentConfig.from_dict(raw)) / str(seed)
                                 / "regret.json").read_text())
            assert report["G1"] == 0.0
            assert report["pass"] is (True if algorithm == "passive" else None)  # T6 is order form

    @pytest.mark.parametrize("overrides", [
        # beta 1e-300 makes L ~ 1e-300, so the T3 index floor would divide by L^2 = 0.
        dict(stream={"kind": "convex-qg", "beta": 1e-300}),
        # beta 1e300 makes L ~ 1e300, so L^2 and beta^2 overflow.
        dict(stream={"kind": "sc-quadratic", "mu": 3.0, "beta": 1e300}, algorithm="retrain"),
    ])
    def test_a_t3_floor_out_of_range_is_refused(self, tmp_path, capsys, overrides):
        raw = _base_config(rate={"kind": "convex-decreasing"}, **overrides)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: T3 floor out of range at L = ") and "Traceback" not in err
        assert not list(out.rglob("summary.json"))

    @pytest.mark.parametrize("overrides, error", [
        # convex-qg at beta 1e300 makes L ~ 1e300, so the T5 shift's L**2 overflows.
        (dict(stream={"kind": "convex-qg", "beta": 1e300}, radius=0.5, horizon=200,
              rate={"kind": "constant", "eta": 1e-300},
              schedule={"kind": "adversarial-early", "k": 15}),
         "T5 bound out of range at L = "),
        # Centers near 1e200 square past the float range in the Lipschitz bound
        # (at radius 1e10 the bound is 4.5e10 and the run goes through).
        (dict(radius=1e200, schedule={"kind": "pattern", "k": 1, "gap": 5}),
         "the Lipschitz bound overflows at radius 1e+200 and beta 3.0"),
        # 3 ** 1e12 in the noise multiplier of the last of the three deletions.
        (dict(unlearner={"alpha": 2.0, "eps": 0.5, "omega": 1e12}),
         "noise multiplier of deletion 3 out of range at omega = 1000000000000.0"),
        # The Newton variant's noise and every series bound take 3 ** omega too.
        (dict(algorithm="active2", unlearner={"alpha": 2.0, "eps": 0.5, "omega": 1e12}),
         "noise multiplier of deletion 3 out of range at omega = 1000000000000.0"),
        _OVERFLOWS["adaptive-gradient-sum"],
        _OVERFLOWS["losses"],
        # Monte-Carlo's standard error squares alpha.
        (dict(mc_samples=50, unlearner={"alpha": 1e300, "eps": 0.5, "omega": 1.2}),
         "Monte-Carlo estimate out of range at alpha = 1e+300"),
        # The budget alpha * eps itself; a certificate against it would pass anything.
        (dict(dimension=1, horizon=1,
              schedule={"kind": "pattern", "k": 1, "gap": 0, "spacing": 1, "first_time": 1},
              unlearner={"alpha": 1e12, "eps": 1e300, "omega": 2.0}),
         "config invalid at $.unlearner: budget alpha * eps or its series terms out of range at "
         "alpha = 1000000000000.0, eps = 1e+300, omega = 2.0"),
        # A finite budget whose series term alpha * eps * (omega - 1) / omega overflows.
        (dict(schedule={"kind": "pattern", "k": 1, "gap": 5},
              unlearner={"alpha": 1e12, "eps": 1e-3, "omega": 1e300}),
         "config invalid at $.unlearner: budget alpha * eps or its series terms out of range at "
         "alpha = 1000000000000.0, eps = 0.001, omega = 1e+300"),
    ], ids=["t5-shift", "lipschitz-bound", "noise-multiplier", "active2-noise-multiplier",
            "adaptive-gradient-sum", "losses", "monte-carlo-estimate", "budget", "series-term"])
    def test_a_number_past_the_float_range_is_refused(self, tmp_path, capsys, overrides,
                                                       error):
        raw = {**json.loads((CONFIGS / "passive_sc.json").read_text()), "seeds": [0],
               **overrides}
        out = tmp_path / "out"
        assert cli_main(["run", "--config", _write_config(tmp_path, raw), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + error) and "Traceback" not in err
        assert not list(out.rglob("summary.json"))

    @pytest.mark.parametrize("name", sorted(_OVERFLOWS))
    def test_an_overflow_refusal_prints_its_error_line_alone(self, tmp_path, name):
        # A separate process, as the command runs: numpy's warnings would reach its stderr.
        overrides, error = _OVERFLOWS[name]
        raw = {**json.loads((CONFIGS / "passive_sc.json").read_text()), "seeds": [0],
               **overrides}
        code = "import sys\nfrom online_unlearning.cli import main\nsys.exit(main())\n"
        out = subprocess.run(
            [sys.executable, "-c", code, "run", "--config", _write_config(tmp_path, raw),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
        lines = out.stderr.splitlines()
        assert out.returncode == 2
        assert len(lines) == 1 and lines[0].startswith("error: " + error), lines

    def test_regret_report_follows_run_onto_a_grid(self, tmp_path, capsys):
        raw = _base_config(sweep={"algorithm": ["passive", "retrain"]})
        config, out = _write_config(tmp_path, raw), str(tmp_path / "out")
        assert cli_main(["run", "--config", config, "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["regret-report", "--config", config, "--out", out]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        expected = [(config_hash(p), seed)
                    for p in sweep_points(ExperimentConfig.from_dict(raw)) for seed in (0, 1)]
        assert [(line["config_hash"], line["seed"]) for line in lines] == expected
        assert all(line["matches"] and line["recomputed"] == line["stored"] for line in lines)

    def test_algorithm_sweep_generates_each_seed_once(self, tmp_path, monkeypatch):
        raw = _base_config(schedule={"kind": "explicit", "entries": [[5, 12], [14, 25]]},
                           sweep={"algorithm": ["active", "retrain", "discard"]})
        calls = _count_gen_stream(monkeypatch)
        assert cli_main(["sweep", "--config", _write_config(tmp_path, raw),
                         "--out", str(tmp_path / "grid")]) == 0
        assert calls == [(0, 1.0), (1, 1.0)]
        # Each point run on its own writes the same bytes.
        for point in sweep_points(ExperimentConfig.from_dict(raw)):
            single = tmp_path / point.raw["algorithm"]
            single.mkdir()
            assert cli_main(["run", "--config", _write_config(single, point.raw),
                             "--out", str(tmp_path / "single")]) == 0
        assert len(calls) == 2 + 3 * 2
        assert _tree(tmp_path / "grid") == _tree(tmp_path / "single")

    def test_stream_sweep_generates_per_point(self, tmp_path, monkeypatch):
        raw = _base_config(seeds=[0], sweep={"stream.mu": [1.0, 2.0]})
        calls = _count_gen_stream(monkeypatch)
        assert cli_main(["run", "--config", _write_config(tmp_path, raw),
                         "--out", str(tmp_path / "out")]) == 0
        assert calls == [(0, 1.0), (0, 2.0)]

    def test_cli_seed_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        with open(config_path, "w") as handle:
            json.dump(_base_config(), handle)
        out = tmp_path / "out"
        code = cli_main(["run", "--config", str(config_path), "--out", str(out),
                         "--seeds", "7"])
        assert code == 0
        dirs = [p.name for p in out.iterdir() if p.is_dir()]
        seed_dirs = list((out / dirs[0]).glob("7"))
        assert seed_dirs


class TestBatchedGeneration:
    """Stacked generation reproduces the per-matrix class constants bit for bit."""

    @pytest.mark.parametrize("kind", ["sc-quadratic", "convex-qg", "assumption2-segments"])
    @pytest.mark.parametrize("dim", [2, 5, 8])
    def test_lipschitz_and_kappa_match_per_item(self, kind, dim):
        dom = BallDomain(1.0)
        params = dict(dimension=dim, horizon=60, radius=1.0, mu=1.0, beta=3.0)
        for seed in range(6):
            gs = gen_stream(kind, params, seed)
            mats, centers, _, _ = stack_quadratics(gs.stream)
            # Each matrix's bound lambda_max(A) * (R + ||c||) on its own.
            assert gs.fn_class.lipschitz == max(
                float(np.linalg.eigvalsh(mat)[-1]) * (dom.radius + float(np.linalg.norm(center)))
                for mat, center in zip(mats, centers))
            total = np.zeros((dim, dim))
            for mat in mats:
                total += mat
            assert gs.kappa_aggregate == float(np.linalg.eigvalsh(total)[0]) / len(mats)


def _whole_batch_arrays(kind, params, seed):
    """``gen_stream``'s curvatures and centers drawn and built in one batch, without row blocks."""
    rng = np.random.default_rng(seed)
    dim, horizon = params["dimension"], params["horizon"]

    def orthogonal(count):
        q, r = np.linalg.qr(rng.standard_normal((count, dim, dim)))
        signs = np.sign(np.einsum("tii->ti", r))
        signs[signs == 0.0] = 1.0
        return q * signs[:, None, :]

    if kind == "convex-qg":
        columns = orthogonal(1)[0].T
        centers = _centers_in_half_ball(rng, dim, horizon, params["radius"])
        per_column = params["beta"] * (columns[:, :, None] * columns[:, None, :])
        per_column = 0.5 * (per_column + np.transpose(per_column, (0, 2, 1)))
        return per_column[np.arange(horizon) % dim], centers
    basis = orthogonal(horizon)
    eigs = rng.uniform(params["mu"], params["beta"], size=(horizon, dim))
    raw = np.einsum("tij,tj,tkj->tik", basis, eigs, basis)
    mats = (raw + np.transpose(raw, (0, 2, 1))) * 0.5
    if kind == "assumption2-segments":
        common = _centers_in_half_ball(rng, dim, 1, params["radius"])[0]
        return mats, np.broadcast_to(common, (horizon, dim))
    return mats, _centers_in_half_ball(rng, dim, horizon, params["radius"])


@pytest.mark.parametrize("count", [1, 1023, 1025, 2500])
@pytest.mark.parametrize("dim", [1, 2, 5, 8, 20])
def test_centers_in_half_ball_are_the_one_batch_formula(dim, count):
    got = _centers_in_half_ball(np.random.default_rng(count + dim), dim, count, 2.0)
    rng = np.random.default_rng(count + dim)
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = 0.5 * 2.0 * rng.random((count, 1)) ** (1.0 / dim)
    assert got.tobytes() == (directions / norms * radii).tobytes()


class TestRowBlockGeneration:
    """Streams built in row blocks are the one-batch streams bit for bit."""

    @pytest.mark.parametrize("kind", ["sc-quadratic", "convex-qg", "assumption2-segments"])
    @pytest.mark.parametrize("horizon", [1, 1023, 1024, 1025, 2500])
    @pytest.mark.parametrize("dim", [1, 2, 5, 8, 20])
    def test_matches_the_whole_batch(self, kind, horizon, dim):
        params = dict(dimension=dim, horizon=horizon, radius=1.0, mu=0.5, beta=3.0)
        seed = 7 * horizon + dim
        gs = gen_stream(kind, params, seed)
        mats, centers, offsets, live = stack_quadratics(gs.stream)
        want_mats, want_centers = _whole_batch_arrays(kind, params, seed)
        assert mats.tobytes() == want_mats.tobytes()
        assert centers.tobytes() == want_centers.tobytes()
        assert not offsets.any() and live.all()


class TestSeedMemory:
    """One T = 1e4 seed works in memory close to the size of its stream's arrays."""

    def test_generation_run_and_certification_stay_flat(self, tmp_path):
        """Each phase's peak above what it starts with, in MiB at T = 1e4, d = 5.

        The run holds one ``(T + 1, d)`` trajectory (0.38 MiB) and its
        per-step columns; every other temporary is block-sized.
        """
        horizon = 10_000
        params = dict(dimension=5, horizon=horizon, radius=1.0, mu=1.0, beta=3.0)
        dom = BallDomain(1.0)
        sched = build_schedule({"kind": "pattern", "k": 3, "gap": 40, "spacing": 1000}, horizon)
        rates = SCDecreasing(mu=1.0)
        cfg = UnlearnerConfig(alpha=2.0, eps=0.5, omega=1.2)
        tracemalloc.start()
        try:
            gs = gen_stream("sc-quadratic", params, 3)
            held, gen_peak = tracemalloc.get_traced_memory()
            own = sum(rows.nbytes for rows in stack_quadratics(gs.stream))
            tracemalloc.reset_peak()
            trace = run_passive(gs.stream, sched, rates, cfg, gs.fn_class, dom, 3)
            traced, run_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            trace.write_csv(tmp_path / "trace.csv")
            csv_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            regret_dynamic(trace.outputs, gs.stream, sched, dom)
            curve = cumulative_regret_curve(trace.outputs, gs.stream, sched, dom)
            regret_peak = tracemalloc.get_traced_memory()[1]
            del trace, curve
            tracemalloc.reset_peak()
            certify_passive_run(gs.stream, sched, rates_array(rates, horizon), cfg, gs.fn_class,
                                dom)
            cert_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen_peak <= 2 * own
        assert run_peak - held <= 1.3 * 2**20
        assert csv_peak - traced <= 0.25 * 2**20
        assert regret_peak - traced <= 0.5 * 2**20
        assert cert_peak - held <= 0.6 * 2**20
