"""Experiment orchestration: synthetic streams, schedules, runs, and reports.

Configs are strict JSON, checked against ``CONFIG_SCHEMA`` (unknown fields
rejected with a field path); ``check_runnable`` then refuses what the config
alone rules out, before any stream is generated.  Outputs land under
``out/<config-hash>/<seed>/`` as ``trace.csv``, ``run.json`` (the
trace summary), ``regret.json``, ``regret_curve.csv`` and ``cert.json``, plus
one ``config.json`` (the config as run) and one ``summary.json`` per config.
Everything is a pure function of the config and seeds: rerunning reproduces
every byte.  A ``GridRuns`` checks a grid's points once and runs its
(point, seed) runs, in this process or in one process pool; each seed's
domain, stream and schedule are built by ``_seed_inputs``, once for the
points run in this process that agree on the fields they are built from.
``run_experiment`` assembles one point's summary from its runs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .active import ActiveConfig, check_active_run, run_active
from .baselines import run_discard_restart, run_retraining
from .certifier import certify_passive_run, series_certificates
from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    _MIN_RADIUS,
    _row_blocks,
)
from .errors import GeneratorError, InvalidConfigError
from .ogd import (
    AdaptiveRate,
    ConstantRate,
    ConvexDecreasing,
    RateSchedule,
    SCDecreasing,
    constant_rate_worst_case,
    contraction_coeff,
    gamma_nominal,
)
from .passive import UnlearnerConfig, noise_multiplier, run_passive
from .regret import (
    active_gap_sum,
    bound_rhs,
    cumulative_regret_curve,
    g_functions,
    regret_dynamic,
)
from .trace import _CSV_CHUNK, RunTrace, load_trace_outputs, write_json

__all__ = [
    "CONFIG_SCHEMA",
    "ExperimentConfig",
    "GeneratedStream",
    "GridRuns",
    "build_schedule",
    "check_runnable",
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
    """``count`` random orthogonal matrices from one normal draw, made in place block by block.

    ``qr`` factors matrix by matrix, so each block's bits are the whole batch's.
    """
    basis = rng.standard_normal((count, dim, dim))
    for rows in _row_blocks(count):
        q, r = np.linalg.qr(basis[rows])
        signs = np.sign(np.einsum("tii->ti", r))
        signs[signs == 0.0] = 1.0
        np.multiply(q, signs[:, None, :], out=basis[rows])
    return basis


def _centers_in_half_ball(rng: np.random.Generator, dim: int, count: int, radius: float) -> np.ndarray:
    """``count`` random points in the ball of radius ``radius / 2``, scaled in place block by block."""
    directions = rng.standard_normal((count, dim))
    radii = rng.random((count, 1))
    radii **= 1.0 / dim
    radii *= 0.5 * radius
    for rows in _row_blocks(count):
        block = directions[rows]
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        block /= norms
        block *= radii[rows]
    return directions


def _curvature(kind: str, params: dict) -> tuple[float, float]:
    """``(mu, beta)`` of the streams of ``kind`` that ``params`` ask for; refuses impossible ones."""
    if kind == "convex-qg":
        beta = float(params.get("beta", 1.0))
        if beta <= 0.0:
            raise GeneratorError("convex-qg needs beta > 0")
        return 0.0, beta
    if kind not in ("sc-quadratic", "assumption2-segments"):
        raise GeneratorError(f"unknown stream kind {kind!r}")
    if "mu" not in params or "beta" not in params:
        raise GeneratorError(f"{kind} streams need mu and beta")
    mu, beta = float(params["mu"]), float(params["beta"])
    if not 0.0 < mu <= beta:
        raise GeneratorError("sc streams need 0 < mu <= beta")
    return mu, beta


def _fn_class(stream: CostStream, dom: BallDomain, mu: float, beta: float) -> FnClass:
    """The stream's class constants; refuses a Lipschitz bound that overflows to infinity."""
    with np.errstate(over="ignore"):
        lipschitz = stream.lipschitz_bound(dom)
    if not math.isfinite(lipschitz):
        raise GeneratorError(
            f"the Lipschitz bound overflows at radius {dom.radius!r} and beta {beta!r}")
    return FnClass(lipschitz=lipschitz, smoothness=beta, strong_convexity=mu)


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
    mu, beta = _curvature(kind, params)

    if kind in ("sc-quadratic", "assumption2-segments"):
        if mu == beta:
            mats = np.broadcast_to(mu * np.eye(dim), (horizon, dim, dim)).copy()
        else:
            mats = _random_orthogonal(rng, dim, horizon)
            eigs = rng.uniform(mu, beta, size=(horizon, dim))
            # Each block of bases becomes its curvatures in place, symmetrised
            # as 0.5 * (raw + raw^T); the temporaries stay block-sized.
            for rows in _row_blocks(horizon):
                basis = mats[rows]
                raw = np.einsum("tij,tj,tkj->tik", basis, eigs[rows], basis)
                np.add(raw, np.transpose(raw, (0, 2, 1)), out=basis)
                basis *= 0.5
            del eigs
        if kind == "assumption2-segments":
            common = _centers_in_half_ball(rng, dim, 1, radius)[0]
            centers = np.broadcast_to(common, (horizon, dim)).copy()
        else:
            centers = _centers_in_half_ball(rng, dim, horizon, radius)
        stream = CostStream(mats, centers)
        cls = _fn_class(stream, dom, mu, beta)
        kappa = float(np.linalg.eigvalsh(mats.sum(axis=0))[0]) / horizon
        return GeneratedStream(stream=stream, fn_class=cls, kappa_aggregate=kappa)

    if kind == "convex-qg":
        basis = _random_orthogonal(rng, dim, 1)[0]
        centers = _centers_in_half_ball(rng, dim, horizon, radius)
        # Step t uses the rank-one curvature along basis column t mod d.
        columns = basis.T
        per_column = beta * (columns[:, :, None] * columns[:, None, :])
        per_column = 0.5 * (per_column + np.transpose(per_column, (0, 2, 1)))
        mats = per_column[np.arange(horizon) % dim]
        stream = CostStream(mats, centers)
        cls = _fn_class(stream, dom, 0.0, beta)
        kappa = float(np.linalg.eigvalsh(mats.sum(axis=0))[0]) / horizon
        target = params.get("kappa_rate")
        if target is not None and kappa < float(target) * 0.99:
            raise GeneratorError(
                f"aggregate growth rate {kappa} misses the target {target}"
            )
        return GeneratedStream(stream=stream, fn_class=cls, kappa_aggregate=kappa)


def build_schedule(spec: dict, horizon: int) -> DeletionSchedule:
    """Deletion schedule from an explicit list, a regular pattern, or early indices."""
    kind = spec["kind"]
    needs = {"explicit": ("entries",), "pattern": ("k", "gap"), "adversarial-early": ("k",)}
    for key in needs.get(kind, ()):
        if key not in spec:
            raise InvalidConfigError(f"config invalid at $.schedule.{key}: {kind!r} needs it")
    if kind == "explicit":
        entries = tuple((int(u), int(tau)) for u, tau in spec["entries"])
    elif kind == "pattern":
        k = int(spec["k"])
        gap = int(spec["gap"])
        spacing = int(spec.get("spacing", max(horizon // (k + 1), 1)))
        start = int(spec.get("first_time", spacing))
        taus = [start + i * spacing for i in range(k)]
        entries = tuple((max(tau - gap, 1), tau) for tau in taus)
    elif kind == "adversarial-early":
        k = int(spec["k"])
        spacing = int(spec.get("spacing", max(horizon // (k + 1), 1)))
        start = int(spec.get("first_time", max(spacing, k)))
        entries = tuple((i, start + (i - 1) * spacing) for i in range(1, k + 1))
    else:
        raise InvalidConfigError(f"unknown schedule kind {kind!r}")
    sched = DeletionSchedule(entries)
    sched.validate_horizon(horizon)
    return sched


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
        "radius": {"type": "number", "minimum": _MIN_RADIUS},
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
                # Optional and one-valued: the per-step product is the only noise decay.
                "gamma_mode": {"enum": ["per-step-product"]},
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


# Draft 2020-12 types: a bool is neither an integer nor a number, and 1.0 is an integer.
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}
_PLAIN_KEY = re.compile("^[a-zA-Z][a-zA-Z0-9_]*$")


def _child_path(path: str, key) -> str:
    if isinstance(key, int):
        return f"{path}[{key}]"
    if _PLAIN_KEY.match(key):
        return f"{path}.{key}"
    return "%s['%s']" % (path, key.replace("\\", "\\\\").replace("'", "\\'"))


def _schema_errors(schema: dict, value, path: str = "$"):
    """``(json_path, message)`` for each way ``value`` breaks ``schema``, as Draft 2020-12 says.

    Only the keywords ``CONFIG_SCHEMA`` uses are known.  Errors come keyword by
    keyword in the schema's order, each keyword applying only to its own
    instance type, with the JSON paths and message texts of the reference
    Draft 2020-12 validator (``tests/test_config_schema.py`` holds them equal).
    """
    for key, rule in schema.items():
        if key == "type" and not _TYPES[rule](value):
            yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum" and not any(
            v == value and isinstance(v, bool) == isinstance(value, bool) for v in rule
        ):
            yield path, f"{value!r} is not one of {rule!r}"
        elif isinstance(value, dict):
            if key == "required":
                yield from ((path, f"{name!r} is a required property")
                            for name in rule if name not in value)
            elif key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], _child_path(path, name))
            elif key == "additionalProperties":
                extras = sorted((k for k in value if k not in schema.get("properties", {})),
                                key=str)
                if isinstance(rule, dict):
                    for name in extras:
                        yield from _schema_errors(rule, value[name], _child_path(path, name))
                elif not rule and extras:
                    verb = "was" if len(extras) == 1 else "were"
                    names = ", ".join(map(repr, extras))
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif isinstance(value, list):
            if key == "items":
                for index, item in enumerate(value):
                    yield from _schema_errors(rule, item, _child_path(path, index))
            elif key == "minItems" and len(value) < rule:
                yield path, f"{value!r} {'should be non-empty' if rule == 1 else 'is too short'}"
            elif key == "maxItems" and len(value) > rule:
                yield path, f"{value!r} {'is expected to be empty' if rule == 0 else 'is too long'}"
        elif _TYPES["number"](value):
            if key == "minimum" and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
            elif key == "exclusiveMinimum" and value <= rule:
                yield path, f"{value!r} is less than or equal to the minimum of {rule!r}"


def _non_finite_errors(value, path: str = "$"):
    """``(json_path, message)`` for each NaN or infinite float in ``value``.

    ``json`` parses ``NaN``, ``Infinity`` and an overflowing literal such as
    ``1e400`` without complaint, and every schema bound compares false
    against NaN, so these are refused here rather than by the schema.
    """
    if isinstance(value, float) and not math.isfinite(value):
        yield path, f"{value!r} is not a finite number"
    elif isinstance(value, dict):
        for name, item in value.items():
            yield from _non_finite_errors(item, _child_path(path, name))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _non_finite_errors(item, _child_path(path, index))


def _validate_config(raw: dict) -> None:
    """Raise the config's first error, taken in order of its JSON path.

    A non-finite number comes before a schema error at the same path.
    """
    errors = itertools.chain(_non_finite_errors(raw), _schema_errors(CONFIG_SCHEMA, raw))
    first = min(errors, key=lambda err: err[0], default=None)
    if first is not None:
        raise InvalidConfigError(f"config invalid at {first[0]}: {first[1]}")


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
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            raise InvalidConfigError(f"cannot read config {str(path)!r}: {reason}") from None
        return cls.from_dict(raw)

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
                if not isinstance(node, dict):
                    raise InvalidConfigError(
                        f"sweep key {dotted!r}: {part!r} is not an object"
                    )
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
        return SCDecreasing(mu=cls.strong_convexity)
    if kind == "convex-decreasing":
        return ConvexDecreasing(diameter=dom.diameter, lipschitz=cls.lipschitz)
    if kind == "adaptive":
        return AdaptiveRate(diameter=dom.diameter, warm_floor=cls.smoothness / 2.0)
    if kind == "constant":
        return ConstantRate(eta=float(spec["eta"]))  # checked by check_runnable
    if kind == "constant-worst-case":
        eta = constant_rate_worst_case(
            dom.diameter, cls.lipschitz, horizon, k,
            int(cfg.raw["dimension"]), float(cfg.raw["unlearner"]["eps"]),
        )
        contraction_coeff(cls, eta)  # refuses eta > 2/beta
        return ConstantRate(eta=eta)
    raise InvalidConfigError(f"unknown rate kind {kind!r}")


def _run_algorithm(
    cfg: ExperimentConfig,
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule,
    cls: FnClass,
    dom: BallDomain,
    ucfg: UnlearnerConfig,
    seed: int,
) -> RunTrace:
    algo = cfg.raw["algorithm"]
    if algo == "passive":
        return run_passive(stream, sched, rates, ucfg, cls, dom, seed)
    if algo in ("active", "active2"):
        acfg, strict = _active_config(cfg, ucfg)
        return run_active(stream, sched, rates, acfg, cls, dom, seed, strict_schedule=strict,
                          second_order=algo == "active2")
    if algo == "retrain":
        return run_retraining(stream, sched, rates, dom, seed)
    if algo == "discard":
        return run_discard_restart(stream, sched, rates, dom, seed)
    raise InvalidConfigError(f"unknown algorithm {algo!r}")


def _active_config(cfg: ExperimentConfig, ucfg: UnlearnerConfig) -> tuple[ActiveConfig, bool]:
    """The run's ``ActiveConfig`` and whether its schedule shape is enforced."""
    aspec = cfg.raw.get("active", {})
    acfg = ActiveConfig(base=ucfg, i1=tuple(aspec["i1"]) if "i1" in aspec else None,
                        i2=aspec.get("i2"))
    return acfg, aspec.get("strict_schedule", True)


def check_runnable(cfg: ExperimentConfig) -> None:
    """Raise every refusal the config decides before a stream is generated.

    The budget ``alpha * eps`` (finite), the stream kind's curvature, the
    schedule, the rate (``sc-decreasing`` needs mu > 0, a ``constant`` eta
    must be given and contract), the noise multiplier of the last deletion of
    an unlearner that adds noise (the largest; its ``k ** omega`` also enters
    the series bound) and an active run (mu > 0, one ``i1`` per deletion, the
    schedule shape).  A
    ``constant-worst-case`` eta depends on the stream's L and is checked when
    the rate is resolved.
    """
    raw = cfg.raw
    ucfg = _unlearner_config(cfg)
    mu, beta = _curvature(raw["stream"]["kind"], raw["stream"])
    sched = build_schedule(raw["schedule"], int(raw["horizon"]))
    rate = raw["rate"]
    if rate["kind"] == "sc-decreasing" and mu <= 0.0:
        raise InvalidConfigError("sc-decreasing rate needs a strongly convex class")
    if rate["kind"] == "constant":
        if "eta" not in rate:
            raise InvalidConfigError("constant rate needs eta")
        # Only the curvature enters the step factor; L waits for the stream.
        contraction_coeff(FnClass(lipschitz=0.0, smoothness=beta, strong_convexity=mu),
                          float(rate["eta"]))
    if raw["algorithm"] in ("passive", "active", "active2") and sched.k:
        noise_multiplier(ucfg, sched.k)
    if raw["algorithm"] in ("active", "active2"):
        acfg, strict = _active_config(cfg, ucfg)
        check_active_run(sched, acfg, mu, strict)


def _unlearner_config(cfg: ExperimentConfig) -> UnlearnerConfig:
    spec = cfg.raw["unlearner"]
    try:
        return UnlearnerConfig(
            alpha=float(spec["alpha"]),
            eps=float(spec["eps"]),
            omega=float(spec.get("omega", 1.2)),
        )
    except InvalidConfigError as err:  # the schema leaves only a budget past the float range
        raise InvalidConfigError(f"config invalid at $.unlearner: {err}") from None


def _regret_report(
    cfg: ExperimentConfig,
    ucfg: UnlearnerConfig,
    trace: RunTrace,
    stream: CostStream,
    sched: DeletionSchedule,
    cls: FnClass,
    dom: BallDomain,
    kappa: float,
) -> dict:
    horizon = len(stream)
    k = sched.k
    regret = regret_dynamic(trace.outputs, stream, sched, dom)
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
    if sched.k == 0:
        return True
    if theorem == "T2":
        floor = 0.5 + cls.smoothness / cls.strong_convexity
    elif theorem == "T3":
        try:
            floor = cls.smoothness**2 * dom.diameter**2 / (4.0 * cls.lipschitz**2)
        except (ZeroDivisionError, OverflowError):  # L^2 underflows to 0, or a square overflows
            raise InvalidConfigError(f"T3 floor out of range at L = {cls.lipschitz!r}") from None
    else:
        return True
    return all(u >= floor for u in sched.indices)


def _bound_curve(report: dict, horizon: int) -> np.ndarray | None:
    """Bound right-hand side as a function of the step, for plot-ready output; None without a bound."""
    bound = report.get("bound")
    if bound is None:
        return None
    ts = np.arange(1, horizon + 1, dtype=np.float64)
    comp = bound["components"]
    if bound["theorem"] == "T2":
        if horizon == 1:  # log(t) / log(T) is 0 / 0; the one step is the whole horizon
            growth = np.full(1, comp["log_term"])
        else:
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


# The config fields ``_seed_inputs`` reads, and so the key it is shared under.
_INPUT_FIELDS = ("stream", "dimension", "horizon", "radius", "schedule")


def _input_key(cfg: ExperimentConfig) -> str:
    return json.dumps({name: cfg.raw[name] for name in _INPUT_FIELDS}, sort_keys=True)


def _seed_inputs(cfg: ExperimentConfig, seed: int) -> tuple:
    """``(dom, generated, sched)``: the domain, generated stream and schedule of one seed."""
    raw = cfg.raw
    params = {key: value for key, value in raw["stream"].items() if key != "kind"}
    params.update(dimension=raw["dimension"], horizon=raw["horizon"], radius=raw["radius"])
    dom = BallDomain(float(raw["radius"]))
    generated = gen_stream(raw["stream"]["kind"], params, seed)
    sched = build_schedule(raw["schedule"], len(generated.stream))
    return dom, generated, sched


def _run_one_seed(cfg: ExperimentConfig, seed: int, out_dir: str, certify_only: bool = False,
                  inputs: tuple | None = None) -> dict:
    """One (point, seed) run; ``inputs`` is its ``_seed_inputs``, built here when absent."""
    dom, generated, sched = inputs or _seed_inputs(cfg, seed)
    stream, cls = generated.stream, generated.fn_class
    rates = _resolve_rate(cfg, cls, dom, len(stream), sched.k)
    ucfg = _unlearner_config(cfg)
    trace = _run_algorithm(cfg, stream, sched, rates, cls, dom, ucfg, seed)

    seed_dir = Path(out_dir)
    seed_dir.mkdir(parents=True, exist_ok=True)
    trace.write_csv(seed_dir / "trace.csv")
    trace.write_summary(seed_dir / "run.json")

    result = {"seed": seed, "grad_evals": trace.grad_evals,
              "regret": None, "regret_pass": None, "cert": None}

    if not certify_only:
        regret_report = _regret_report(
            cfg, ucfg, trace, stream, sched, cls, dom, generated.kappa_aggregate
        )
        write_json(seed_dir / "regret.json", regret_report)
        curve = cumulative_regret_curve(trace.outputs, stream, sched, dom)
        bound_curve = _bound_curve(regret_report, len(stream))
        # Without a bound the ``bound_rhs`` field is left empty.
        columns = (curve,) if bound_curve is None else (curve, bound_curve)
        row = "%d,%.17g," + ("%.17g\n" if bound_curve is not None else "\n")
        with open(seed_dir / "regret_curve.csv", "w") as handle:
            handle.write("t,cumulative_regret,bound_rhs\n")
            for lo in range(0, len(stream), _CSV_CHUNK):
                hi = min(lo + _CSV_CHUNK, len(stream))
                handle.write("".join([
                    row % values
                    for values in zip(range(lo + 1, hi + 1),
                                      *(column[lo:hi].tolist() for column in columns))
                ]))
        result["regret"] = regret_report["regret"]
        result["regret_pass"] = regret_report["pass"]

    if sched.k > 0 and cfg.raw["algorithm"] in ("passive", "active", "active2"):
        result["cert"] = _certify(cfg, ucfg, stream, sched, rates, cls, dom, trace, seed_dir)
    return result


def _certify(cfg, ucfg, stream, sched, rates, cls, dom, trace, seed_dir) -> dict:
    algo = cfg.raw["algorithm"]
    if algo == "passive" and not isinstance(rates, AdaptiveRate):
        reports = certify_passive_run(
            stream, sched, trace.rates, ucfg, cls, dom,
            mc_samples=int(cfg.raw.get("mc_samples", 0)), seed=trace.seed,
        )
    else:
        # Active runs and adaptive rates: the series bound applies when the run
        # is certifiable; the quadratic oracle does not.
        reports = series_certificates(sched, ucfg, len(stream), trace.certifiable)
    payload = [r.to_dict() for r in reports]
    margins = [
        r.exact_divergence / r.analytic_bound
        for r in reports
        if r.exact_divergence is not None and r.analytic_bound > 0.0
    ]
    write_json(seed_dir / "cert.json", payload)
    return {
        "all_pass": all(r.passes for r in reports),
        "intervals": len(payload),
        "max_divergence_margin": max(margins) if margins else None,
    }


class GridRuns:
    """A grid's (point, seed) runs, point-major; ``take(point)`` hands out a point's results.

    Every point is checked up front.  With ``jobs > 1`` every run goes at once
    to one pool of ``min(jobs, runs)`` processes, each building its own inputs;
    otherwise ``take`` runs the point's seeds here, and points that agree on
    ``_INPUT_FIELDS`` share a seed's inputs, held until the last one takes them.
    Leaving the ``with`` block cancels the runs not yet started.
    """

    def __init__(self, points: list[ExperimentConfig], out_root: str | Path, jobs: int = 1,
                 certify_only: bool = False) -> None:
        for point in points:
            _validate_config(point.raw)
            if point.sweep_axes():
                raise InvalidConfigError("expand sweeps before running (use sweep_points)")
            check_runnable(point)
        self._out_root, self._certify_only = Path(out_root), certify_only
        runs = [(point, seed) for point in points for seed in point.raw["seeds"]]
        self._pending, self._held = Counter((_input_key(point), seed) for point, seed in runs), {}
        self._pool = None
        if jobs > 1 and len(runs) > 1:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=min(jobs, len(runs)))
            self._futures = {(config_hash(point), seed): self._pool.submit(
                _run_one_seed, point, seed, self._seed_dir(point, seed), certify_only)
                for point, seed in runs}

    def __enter__(self) -> "GridRuns":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def _seed_dir(self, cfg: ExperimentConfig, seed: int) -> str:
        return str(self._out_root / config_hash(cfg) / str(seed))

    def _inputs(self, cfg: ExperimentConfig, seed: int) -> tuple:
        """``_seed_inputs(cfg, seed)``, built on the first point that asks for it."""
        key = (_input_key(cfg), seed)
        inputs = self._held.pop(key, None) or _seed_inputs(cfg, seed)
        self._pending[key] -= 1
        if self._pending[key] > 0:
            self._held[key] = inputs
        return inputs

    def take(self, cfg: ExperimentConfig) -> list[dict]:
        """The per-seed results of the grid point ``cfg``; a run's refusal is raised here."""
        if self._pool is not None:
            return [self._futures[config_hash(cfg), seed].result() for seed in cfg.raw["seeds"]]
        return [_run_one_seed(cfg, seed, self._seed_dir(cfg, seed), self._certify_only,
                              self._inputs(cfg, seed))
                for seed in cfg.raw["seeds"]]


def run_experiment(
    cfg: ExperimentConfig, out_root: str | Path, jobs: int = 1, certify_only: bool = False,
    runs: GridRuns | None = None,
) -> dict:
    """Run every seed of a config; returns (and writes) the aggregate summary.

    ``runs`` is the ``GridRuns`` the point belongs to, built with the same
    ``out_root``; without it the point is a grid of its own, run with ``jobs``.
    """
    if runs is None:
        with GridRuns([cfg], out_root, jobs, certify_only) as runs:
            return run_experiment(cfg, out_root, runs=runs)
    results = sorted(runs.take(cfg), key=lambda r: r["seed"])
    digest = config_hash(cfg)
    regrets = [r["regret"] for r in results if r["regret"] is not None]
    flags = [r["regret_pass"] for r in results if r["regret_pass"] is not None]
    certs = [r["cert"] for r in results if r["cert"] is not None]
    cert_flags = [c["all_pass"] for c in certs]
    margins = [c["max_divergence_margin"] for c in certs if c["max_divergence_margin"] is not None]
    summary = {
        "config_hash": digest,
        "seeds": list(cfg.raw["seeds"]),
        "algorithm": cfg.raw["algorithm"],
        "mean_regret": float(np.mean(regrets)) if regrets else None,
        "max_regret": float(np.max(regrets)) if regrets else None,
        "mean_grad_evals": float(np.mean([r["grad_evals"] for r in results])),
        "bound_compliance_rate": float(np.mean(flags)) if flags else None,
        "cert_pass_rate": float(np.mean(cert_flags)) if cert_flags else None,
        "max_divergence_margin": max(margins) if margins else None,
        "all_pass": all(flags) and all(cert_flags),
        "per_seed": results,
    }
    # Written after every seed has run: a point refused while a seed runs leaves no config.json.
    base = Path(out_root) / digest
    base.mkdir(parents=True, exist_ok=True)
    write_json(base / "config.json", cfg.raw)
    write_json(base / "summary.json", summary)
    return summary


def recompute_regret(cfg: ExperimentConfig, out_root: str | Path, seed: int) -> dict:
    """Rebuild the regret of a stored trace from its CSV and the config.

    The stream and schedule regenerate deterministically from (config, seed);
    the outputs come from ``trace.csv`` (17-significant-digit round trip), so
    the recomputed value matches the stored report exactly.  ``matches`` is
    None when no ``regret.json`` is stored (``certify`` writes none).
    """
    base = Path(out_root) / config_hash(cfg) / str(seed)
    outputs = load_trace_outputs(base / "trace.csv")
    dom, generated, sched = _seed_inputs(cfg, seed)
    recomputed = regret_dynamic(outputs, generated.stream, sched, dom)
    stored = None
    report_path = base / "regret.json"
    if report_path.exists():
        with open(report_path) as handle:
            stored = json.load(handle)["regret"]
    return {"seed": seed, "recomputed": recomputed, "stored": stored,
            "matches": None if stored is None else recomputed == stored}


def sweep_points(cfg: ExperimentConfig) -> list[ExperimentConfig]:
    """Expand the config's sweep axes into the full grid of concrete configs."""
    axes = cfg.sweep_axes()
    if not axes:
        return [cfg]
    points = [{}]
    for dotted, values in sorted(axes.items()):
        points = [{**p, dotted: v} for p in points for v in values]
    return [cfg.without_sweep(assignment) for assignment in points]
