"""Experiment orchestration: synthetic streams, schedules, runs, and reports.

Configs are strict JSON (unknown fields rejected with a field path).  Outputs
land under ``out/<config-hash>/<seed>/`` as ``trace.csv``, ``regret.json``,
and ``cert.json``, plus one ``summary.json`` per config.  Everything is a pure
function of the config and seeds: rerunning reproduces every byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import jsonschema
import numpy as np

from .active import ActiveConfig, run_active, run_active_second_order
from .baselines import run_discard_restart, run_retraining
from .certifier import certify_passive_run
from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
)
from .errors import GeneratorError, InvalidConfigError
from .ogd import (
    AdaptiveRate,
    ConstantRate,
    ConvexDecreasing,
    RateSchedule,
    SCDecreasing,
    constant_rate_worst_case,
    gamma_nominal,
)
from .passive import UnlearnerConfig, run_passive, series_term
from .regret import (
    active_gap_sum,
    bound_rhs,
    cumulative_regret_curve,
    g_functions,
    regret_dynamic,
)
from .trace import RunTrace, load_trace_outputs

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "GeneratedStream",
    "build_schedule",
    "config_hash",
    "gen_stream",
    "run_experiment",
]


# ---------------------------------------------------------------------------
# Stream generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratedStream:
    stream: CostStream
    fn_class: FnClass
    kappa_aggregate: float


def _random_orthogonal(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    raw = rng.standard_normal((count, dim, dim))
    q, r = np.linalg.qr(raw)
    signs = np.sign(np.einsum("tii->ti", r))
    signs[signs == 0.0] = 1.0
    return q * signs[:, None, :]


def _centers_in_half_ball(rng: np.random.Generator, dim: int, count: int, radius: float) -> np.ndarray:
    directions = rng.standard_normal((count, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    radii = 0.5 * radius * rng.random((count, 1)) ** (1.0 / dim)
    return directions / norms * radii


def gen_stream(kind: str, params: dict, seed: int) -> GeneratedStream:
    """Synthesize a loss stream of the requested kind.

    ``sc-quadratic``: spectra inside [mu, beta], random centers in the half
    ball.  ``convex-qg``: rank-one quadratics cycling a rotated basis, so
    per-function mu is 0 while any long window's aggregate grows
    quadratically.  ``assumption2-segments``: every loss shares one
    stationary point, so inner descent phases all agree on the target.
    """
    rng = np.random.default_rng(seed)
    dim = int(params["dimension"])
    horizon = int(params["horizon"])
    radius = float(params["radius"])
    if dim < 1 or horizon < 1 or radius <= 0.0:
        raise GeneratorError("need dimension >= 1, horizon >= 1, radius > 0")
    dom = BallDomain(radius)

    if kind in ("sc-quadratic", "assumption2-segments"):
        mu = float(params["mu"])
        beta = float(params["beta"])
        if not 0.0 < mu <= beta:
            raise GeneratorError("sc streams need 0 < mu <= beta")
        if mu == beta:
            mats = np.broadcast_to(mu * np.eye(dim), (horizon, dim, dim)).copy()
        else:
            basis = _random_orthogonal(rng, dim, horizon)
            eigs = rng.uniform(mu, beta, size=(horizon, dim))
            raw = np.einsum("tij,tj,tkj->tik", basis, eigs, basis)
            del basis
            # Symmetrise in place (same bits as 0.5 * (raw + raw^T)): each
            # (T, d, d) temporary freed here lowers the run's peak memory.
            mats = raw + np.transpose(raw, (0, 2, 1))
            del raw
            mats *= 0.5
        if kind == "assumption2-segments":
            common = _centers_in_half_ball(rng, dim, 1, radius)[0]
            centers = np.broadcast_to(common, (horizon, dim)).copy()
        else:
            centers = _centers_in_half_ball(rng, dim, horizon, radius)
        stream = CostStream.from_arrays(mats, centers)
        cls = FnClass(lipschitz=stream.lipschitz_bound(dom), smoothness=beta, strong_convexity=mu)
        kappa = float(np.linalg.eigvalsh(mats.sum(axis=0))[0]) / horizon
        return GeneratedStream(stream=stream, fn_class=cls, kappa_aggregate=kappa)

    if kind == "convex-qg":
        curvature = float(params.get("beta", 1.0))
        if curvature <= 0.0:
            raise GeneratorError("convex-qg needs beta > 0")
        basis = _random_orthogonal(rng, dim, 1)[0]
        centers = _centers_in_half_ball(rng, dim, horizon, radius)
        # Step t uses the rank-one curvature along basis column t mod d.
        columns = basis.T
        per_column = curvature * (columns[:, :, None] * columns[:, None, :])
        per_column = 0.5 * (per_column + np.transpose(per_column, (0, 2, 1)))
        mats = per_column[np.arange(horizon) % dim]
        stream = CostStream.from_arrays(mats, centers)
        cls = FnClass(
            lipschitz=stream.lipschitz_bound(dom), smoothness=curvature, strong_convexity=0.0
        )
        kappa = float(np.linalg.eigvalsh(mats.sum(axis=0))[0]) / horizon
        target = params.get("kappa_rate")
        if target is not None and kappa < float(target) * 0.99:
            raise GeneratorError(
                f"aggregate growth rate {kappa} misses the target {target}"
            )
        return GeneratedStream(stream=stream, fn_class=cls, kappa_aggregate=kappa)

    raise GeneratorError(f"unknown stream kind {kind!r}")


def build_schedule(spec: dict, horizon: int) -> DeletionSchedule:
    """Deletion schedule from an explicit list, a regular pattern, or early indices."""
    kind = spec["kind"]
    if kind == "explicit":
        return DeletionSchedule(tuple((int(u), int(tau)) for u, tau in spec["entries"]))
    if kind == "pattern":
        k = int(spec["k"])
        gap = int(spec["gap"])
        spacing = int(spec.get("spacing", max(horizon // (k + 1), 1)))
        start = int(spec.get("first_time", spacing))
        entries = []
        for i in range(k):
            tau = start + i * spacing
            entries.append((max(tau - gap, 1), tau))
        sched = DeletionSchedule(tuple(entries))
        sched.validate_horizon(horizon)
        return sched
    if kind == "adversarial-early":
        k = int(spec["k"])
        spacing = int(spec.get("spacing", max(horizon // (k + 1), 1)))
        start = int(spec.get("first_time", max(spacing, k)))
        entries = tuple((i, start + (i - 1) * spacing) for i in range(1, k + 1))
        sched = DeletionSchedule(entries)
        sched.validate_horizon(horizon)
        return sched
    raise InvalidConfigError(f"unknown schedule kind {kind!r}")


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "horizon", "radius", "stream", "schedule",
                 "algorithm", "rate", "unlearner", "seeds"],
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "horizon": {"type": "integer", "minimum": 1},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "stream": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["sc-quadratic", "convex-qg", "assumption2-segments"]},
                "mu": {"type": "number", "minimum": 0},
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "kappa_rate": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "schedule": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["explicit", "pattern", "adversarial-early"]},
                "entries": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "integer", "minimum": 1},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "k": {"type": "integer", "minimum": 0},
                "gap": {"type": "integer", "minimum": 0},
                "spacing": {"type": "integer", "minimum": 1},
                "first_time": {"type": "integer", "minimum": 1},
            },
        },
        "algorithm": {"enum": ["passive", "active", "active2", "retrain", "discard"]},
        "rate": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": [
                    "sc-decreasing", "convex-decreasing", "adaptive",
                    "constant", "constant-worst-case",
                ]},
                "eta": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "unlearner": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha", "eps"],
            "properties": {
                "alpha": {"type": "number", "exclusiveMinimum": 1},
                "eps": {"type": "number", "exclusiveMinimum": 0},
                "omega": {"type": "number", "exclusiveMinimum": 1},
                "gamma_mode": {"enum": ["nominal", "per-step-product"]},
            },
        },
        "active": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "i1": {"type": "array", "items": {"type": "integer", "minimum": 0}},
                "i2": {"type": "integer", "minimum": 0},
                "strict_schedule": {"type": "boolean"},
            },
        },
        "seeds": {"type": "array", "items": {"type": "integer", "minimum": 0}, "minItems": 1},
        "mc_samples": {"type": "integer", "minimum": 0},
        "sweep": {
            "type": "object",
            "additionalProperties": {"type": "array", "minItems": 1},
        },
    },
}


def _validate_config(raw: dict) -> None:
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: e.json_path)
    if errors:
        err = errors[0]
        raise InvalidConfigError(f"config invalid at {err.json_path}: {err.message}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``raw`` is the canonical dict form."""

    raw: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _validate_config(raw)
        return cls(raw=raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def sweep_axes(self) -> dict:
        return self.raw.get("sweep", {})

    def without_sweep(self, assignment: dict) -> "ExperimentConfig":
        new_raw = json.loads(self.canonical_json())
        new_raw.pop("sweep", None)
        for dotted, value in assignment.items():
            node = new_raw
            parts = dotted.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return ExperimentConfig.from_dict(new_raw)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(cfg.canonical_json().encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------

def _resolve_rate(cfg: ExperimentConfig, cls: FnClass, dom: BallDomain,
                  horizon: int, k: int) -> RateSchedule:
    spec = cfg.raw["rate"]
    kind = spec["kind"]
    if kind == "sc-decreasing":
        if cls.strong_convexity <= 0.0:
            raise InvalidConfigError("sc-decreasing rate needs a strongly convex class")
        return SCDecreasing(mu=cls.strong_convexity)
    if kind == "convex-decreasing":
        return ConvexDecreasing(diameter=dom.diameter, lipschitz=cls.lipschitz)
    if kind == "adaptive":
        return AdaptiveRate(diameter=dom.diameter, warm_floor=cls.smoothness / 2.0)
    if kind == "constant":
        if "eta" not in spec:
            raise InvalidConfigError("constant rate needs eta")
        return ConstantRate(eta=float(spec["eta"]))
    if kind == "constant-worst-case":
        eta = constant_rate_worst_case(
            dom.diameter, cls.lipschitz, horizon, k,
            int(cfg.raw["dimension"]), float(cfg.raw["unlearner"]["eps"]),
        )
        return ConstantRate(eta=eta)
    raise InvalidConfigError(f"unknown rate kind {kind!r}")


def _stream_params(cfg: ExperimentConfig) -> dict:
    params = dict(cfg.raw["stream"])
    params.pop("kind")
    params.update(
        dimension=cfg.raw["dimension"],
        horizon=cfg.raw["horizon"],
        radius=cfg.raw["radius"],
    )
    return params


def _run_algorithm(
    cfg: ExperimentConfig,
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    cls: FnClass,
    dom: BallDomain,
    seed: int,
) -> RunTrace:
    algo = cfg.raw["algorithm"]
    ucfg = _unlearner_config(cfg)
    if algo == "passive":
        return run_passive(stream, sched, rates, ucfg, cls, dom, seed)
    if algo in ("active", "active2"):
        aspec = cfg.raw.get("active", {})
        acfg = ActiveConfig(
            base=ucfg,
            i1=tuple(aspec["i1"]) if "i1" in aspec else None,
            i2=aspec.get("i2"),
        )
        strict = aspec.get("strict_schedule", True)
        runner = run_active if algo == "active" else run_active_second_order
        return runner(stream, sched, rates, acfg, cls, dom, seed, strict_schedule=strict)
    if algo == "retrain":
        return run_retraining(stream, sched, rates, dom, cls, seed)
    if algo == "discard":
        return run_discard_restart(stream, sched, rates, dom, cls, seed)
    raise InvalidConfigError(f"unknown algorithm {algo!r}")


def _unlearner_config(cfg: ExperimentConfig) -> UnlearnerConfig:
    spec = cfg.raw["unlearner"]
    return UnlearnerConfig(
        alpha=float(spec["alpha"]),
        eps=float(spec["eps"]),
        omega=float(spec.get("omega", 1.2)),
        gamma_mode=spec.get("gamma_mode", "nominal"),
    )


def _regret_report(
    cfg: ExperimentConfig,
    trace: RunTrace,
    stream: CostStream,
    sched: DeletionSchedule,
    cls: FnClass,
    dom: BallDomain,
    kappa: float,
) -> dict:
    horizon = len(stream)
    k = sched.k
    ucfg = _unlearner_config(cfg)
    regret = regret_dynamic(trace, stream, sched, dom)
    gamma = gamma_nominal(cls)
    gvals = g_functions(
        sched, gamma,
        p_history=trace.p_history,
        beta=cls.smoothness if trace.p_history is not None else None,
    )
    rate_kind = cfg.raw["rate"]["kind"]
    params = {
        "L": cls.lipschitz, "mu": cls.strong_convexity, "beta": cls.smoothness,
        "D": dom.diameter, "T": horizon, "k": k, "d": trace.dim,
        "eps": ucfg.eps, "kappa": kappa if kappa > 0 else None,
        "G1": gvals.g1, "G2": gvals.g2, "G3": gvals.g3,
    }
    theorem = {
        "sc-decreasing": "T2",
        "convex-decreasing": "T3",
        "adaptive": "T4",
        "constant": "T5",
        "constant-worst-case": "T5",
    }[rate_kind]
    preconditions_ok = _bound_preconditions_ok(theorem, sched, cls, dom)
    bound = None
    passes = None
    try:
        if theorem == "T4":
            comps_sum = max(trace.total_loss() - regret, 0.0)
            bound = bound_rhs("T4", {**params, "comparator_loss_sum": comps_sum})
        elif cfg.raw["algorithm"] == "active":
            bound = bound_rhs("T6", {**params, "active_gap_sum": active_gap_sum(sched, gamma)})
        else:
            bound = bound_rhs(theorem, params)
        if not bound.order_form and preconditions_ok:
            passes = bool(regret <= bound.value)
    except InvalidConfigError:
        bound = None
    report = {
        "algo": cfg.raw["algorithm"],
        "T": horizon,
        "k": k,
        "regret": regret,
        "G1": gvals.g1,
        "G2": gvals.g2,
        "G3": gvals.g3,
        "kappa": kappa,
        "grad_evals": trace.grad_evals,
        "bound_preconditions_ok": preconditions_ok,
        "pass": passes,
    }
    if bound is not None:
        report["bound"] = {
            "theorem": bound.theorem,
            "value": bound.value,
            "components": bound.components,
            "order_form": bound.order_form,
        }
    return report


def _bound_preconditions_ok(theorem, sched, cls, dom) -> bool:
    """Deletion-index floors under which the decreasing-rate bounds are claimed."""
    import warnings as _warnings

    if sched.k == 0:
        return True
    if theorem == "T2":
        floor = 0.5 + cls.smoothness / cls.strong_convexity
    elif theorem == "T3":
        floor = cls.smoothness**2 * dom.diameter**2 / (4.0 * cls.lipschitz**2)
    else:
        return True
    if all(u >= floor for u in sched.indices):
        return True
    _warnings.warn(
        f"{theorem}: some deletion index falls below the floor {floor:.3g}; "
        "the run proceeds but the regret bound is not claimed",
        RuntimeWarning,
    )
    return False


def _bound_curve(report: dict, horizon: int) -> np.ndarray:
    """Bound right-hand side as a function of the step, for plot-ready output."""
    bound = report.get("bound")
    ts = np.arange(1, horizon + 1, dtype=np.float64)
    if bound is None:
        return np.full(horizon, np.nan)
    comp = bound["components"]
    if bound["theorem"] == "T2":
        growth = comp["log_term"] * np.log(ts) / np.log(horizon)
        return growth + comp["comparator_shift"] + comp["noise"]
    if bound["theorem"] == "T3":
        return (
            comp["sqrt_term"] * np.sqrt(ts / horizon)
            + comp["comparator_shift"] + comp["noise"]
        )
    if bound["theorem"] == "T5":
        return comp["sqrt_term"] * np.sqrt(ts / horizon) + comp["comparator_shift"]
    return np.full(horizon, bound["value"])


def _run_one_seed(raw_config: dict, seed: int, out_dir: str, certify_only: bool = False) -> dict:
    cfg = ExperimentConfig.from_dict(raw_config)
    dom = BallDomain(float(cfg.raw["radius"]))
    generated = gen_stream(cfg.raw["stream"]["kind"], _stream_params(cfg), seed)
    stream, cls = generated.stream, generated.fn_class
    sched = build_schedule(cfg.raw["schedule"], len(stream))
    rates = _resolve_rate(cfg, cls, dom, len(stream), sched.k)
    trace = _run_algorithm(cfg, stream, sched, rates, cls, dom, seed)

    seed_dir = Path(out_dir)
    seed_dir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(seed_dir / "trace.csv")
    trace.write_summary(seed_dir / "run.json")

    result = {"seed": seed, "grad_evals": trace.grad_evals,
              "regret": None, "regret_pass": None, "cert": None}

    if not certify_only:
        regret_report = _regret_report(
            cfg, trace, stream, sched, cls, dom, generated.kappa_aggregate
        )
        with open(seed_dir / "regret.json", "w") as handle:
            json.dump(regret_report, handle, sort_keys=True, indent=2)
            handle.write("\n")
        curve = cumulative_regret_curve(trace, stream, sched, dom)
        bound_curve = _bound_curve(regret_report, len(stream))
        with open(seed_dir / "regret_curve.csv", "w") as handle:
            handle.write("t,cumulative_regret,bound_rhs\n")
            for t in range(1, len(stream) + 1):
                handle.write(
                    "%d,%.17g,%.17g\n" % (t, curve[t - 1], bound_curve[t - 1])
                )
        result["regret"] = regret_report["regret"]
        result["regret_pass"] = regret_report["pass"]

    if sched.k > 0 and cfg.raw["algorithm"] in ("passive", "active", "active2"):
        result["cert"] = _certify(cfg, stream, sched, rates, cls, dom, trace, seed_dir)
    return result


def _certify(cfg, stream, sched, rates, cls, dom, trace, seed_dir) -> dict:
    ucfg = _unlearner_config(cfg)
    algo = cfg.raw["algorithm"]
    if algo == "passive" and not isinstance(rates, AdaptiveRate) and stream.all_quadratic():
        reports = certify_passive_run(
            stream, sched, rates, ucfg, cls, dom,
            mc_samples=int(cfg.raw.get("mc_samples", 0)),
        )
        payload = [r.to_dict() for r in reports]
        all_pass = all(r.passes for r in reports)
        margins = [
            r.exact_divergence / r.analytic_bound
            for r in reports
            if r.exact_divergence is not None and r.analytic_bound > 0.0
        ]
    else:
        # Active runs and adaptive rates: the series bound applies when the run
        # is certifiable; the quadratic oracle does not.
        budget = ucfg.budget
        bounds = list(np.cumsum([series_term(ucfg, j) for j in range(1, sched.k + 1)]))
        payload = [
            {
                "interval": [sched.times[i - 1],
                             sched.times[i] - 1 if i < sched.k else len(stream)],
                "analytic_bound": float(bounds[i - 1]) if trace.certifiable else None,
                "exact_divergence": None,
                "mc_estimate": None,
                "budget": budget,
                "pass": bool(trace.certifiable and bounds[i - 1] <= budget + 1e-12),
                "note": "series bound only; quadratic oracle not applicable"
                if trace.certifiable else "certification void for this run",
            }
            for i in range(1, sched.k + 1)
        ]
        all_pass = all(entry["pass"] for entry in payload)
        margins = []
    with open(seed_dir / "cert.json", "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return {
        "all_pass": all_pass,
        "intervals": len(payload),
        "max_divergence_margin": max(margins) if margins else None,
    }


def run_experiment(
    cfg: ExperimentConfig, out_root: str | Path, jobs: int = 1, certify_only: bool = False
) -> dict:
    """Run every seed of a config; returns (and writes) the aggregate summary."""
    if cfg.sweep_axes():
        raise InvalidConfigError("expand sweeps before running (use sweep_points)")
    digest = config_hash(cfg)
    base = Path(out_root) / digest
    base.mkdir(parents=True, exist_ok=True)
    with open(base / "config.json", "w") as handle:
        json.dump(cfg.raw, handle, sort_keys=True, indent=2)
        handle.write("\n")

    seeds = list(cfg.raw["seeds"])
    results = []
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_run_one_seed, cfg.raw, seed, str(base / str(seed)), certify_only)
                for seed in seeds
            ]
            results = [f.result() for f in futures]
    else:
        results = [
            _run_one_seed(cfg.raw, seed, str(base / str(seed)), certify_only)
            for seed in seeds
        ]
    results.sort(key=lambda r: r["seed"])

    regrets = [r["regret"] for r in results if r["regret"] is not None]
    flags = [r["regret_pass"] for r in results if r["regret_pass"] is not None]
    cert_flags = [r["cert"]["all_pass"] for r in results if r["cert"] is not None]
    margins = [
        r["cert"]["max_divergence_margin"] for r in results
        if r["cert"] is not None and r["cert"]["max_divergence_margin"] is not None
    ]
    summary = {
        "config_hash": digest,
        "seeds": seeds,
        "algorithm": cfg.raw["algorithm"],
        "mean_regret": float(np.mean(regrets)) if regrets else None,
        "max_regret": float(np.max(regrets)) if regrets else None,
        "mean_grad_evals": float(np.mean([r["grad_evals"] for r in results])),
        "bound_compliance_rate": float(np.mean(flags)) if flags else None,
        "cert_pass_rate": float(np.mean(cert_flags)) if cert_flags else None,
        "max_divergence_margin": max(margins) if margins else None,
        "all_pass": bool(all(flags) if flags else True) and bool(all(cert_flags) if cert_flags else True),
        "per_seed": results,
    }
    with open(base / "summary.json", "w") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return summary


def recompute_regret(cfg: ExperimentConfig, out_root: str | Path, seed: int) -> dict:
    """Rebuild the regret of a stored trace from its CSV and the config.

    The stream and schedule regenerate deterministically from (config, seed);
    the outputs come from ``trace.csv`` (17-significant-digit round trip), so
    the recomputed value matches the stored report exactly.
    """
    base = Path(out_root) / config_hash(cfg) / str(seed)
    outputs, rates, losses = load_trace_outputs(base / "trace.csv")
    dom = BallDomain(float(cfg.raw["radius"]))
    generated = gen_stream(cfg.raw["stream"]["kind"], _stream_params(cfg), seed)
    sched = build_schedule(cfg.raw["schedule"], len(generated.stream))
    shell = RunTrace(
        algorithm=cfg.raw["algorithm"], seed=seed, outputs=outputs, losses=losses,
        rates=rates, events=tuple(["learn"] * outputs.shape[0]),
    )
    recomputed = regret_dynamic(shell, generated.stream, sched, dom)
    stored = None
    report_path = base / "regret.json"
    if report_path.exists():
        with open(report_path) as handle:
            stored = json.load(handle)["regret"]
    return {"seed": seed, "recomputed": recomputed, "stored": stored,
            "matches": stored is None or math.isclose(recomputed, stored, rel_tol=1e-12,
                                                      abs_tol=1e-12)}


def sweep_points(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand the config's sweep axes into the full grid of concrete configs."""
    axes = cfg.sweep_axes()
    if not axes:
        return [cfg]
    points = [{}]
    for dotted, values in sorted(axes.items()):
        points = [{**p, dotted: v} for p in points for v in values]
    return [cfg.without_sweep(assignment) for assignment in points]


def _sweep_worker(job: tuple) -> dict:
    raw, out_root = job
    return run_experiment(ExperimentConfig.from_dict(raw), out_root)
