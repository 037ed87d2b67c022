"""Dynamic-comparator regret, ERM comparators, and the theoretical bound calculators.

Regret scores every output against the best-in-hindsight point of the current
epoch: after the ``i``-th deletion the comparator minimizes the full-horizon
objective with the first ``i`` deleted losses removed.  The bound calculators
evaluate the right-hand sides of the decreasing / adaptive / constant-rate
regret theorems and the survey-table rows; order-form bounds (labelled
``order_form``) expose their components and are meant for growth-rate checks,
not absolute comparisons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .core import (
    BallDomain,
    CostFn,
    CostStream,
    CustomCost,
    DeletionSchedule,
    QuadraticCost,
    cost_value,
    eval_grad,
    is_skip,
    project,
    stack_quadratics,
)
from .errors import InvalidConfigError, InvalidInputError
from .trace import RunTrace

__all__ = [
    "BoundResult",
    "GValues",
    "QgEstimate",
    "active_gap_sum",
    "bound_rhs",
    "comparators",
    "cumulative_regret_curve",
    "g_functions",
    "measure_qg",
    "regret_dynamic",
    "solve_erm",
]


# ---------------------------------------------------------------------------
# ERM comparators
# ---------------------------------------------------------------------------

def _projected_gd(grad_fn, z0, dom: BallDomain, curvature: float, tol: float,
                  max_iter: int = 200_000) -> np.ndarray:
    eta = 1.0 / max(curvature, 1e-30)
    z = project(np.array(z0, dtype=np.float64), dom)
    for _ in range(max_iter):
        z_new = project(z - eta * grad_fn(z), dom)
        moved = float(np.linalg.norm(z - z_new)) / eta
        z = z_new
        if moved <= tol:
            return z
    warnings.warn(f"projected GD stopped at max_iter with residual {moved}", RuntimeWarning)
    return z


# Stationarity tolerance of the projected-GD refinement.
_ERM_TOL = 1e-8


def solve_erm(
    losses: Sequence[CostFn],
    dom: BallDomain,
    tol: float = _ERM_TOL,
    dim: int | None = None,
    curvature: float | None = None,
) -> np.ndarray:
    """Minimizer of the summed losses over the ball.

    Quadratics solve in closed form, refined by projected gradient descent
    when the unconstrained minimizer falls outside the ball.  A singular
    curvature sum (mu = 0 with flat directions) is broken toward the
    minimum-norm minimizer with a 1e-12 ridge and flagged.  Opaque losses run
    projected GD from the origin and need ``dim`` (and ideally a ``curvature``
    bound for the step size).
    """
    live = [f for f in losses if not is_skip(f)]
    if not live:
        raise InvalidInputError("cannot solve ERM over an empty loss list")
    if all(isinstance(f, QuadraticCost) for f in live):
        qdim = live[0].dim
        total = np.zeros((qdim, qdim))
        rhs = np.zeros(qdim)
        for f in live:
            total += f.matrix
            rhs += f.matrix @ f.center
        return _solve_quadratic_erm(total, rhs, qdim, dom, tol)

    if dim is None:
        raise InvalidInputError("opaque losses need an explicit dimension")
    return _opaque_erm(live, dom, tol, curvature if curvature else float(len(live)),
                       np.zeros(dim))


def _opaque_erm(live: Sequence[CostFn], dom: BallDomain, tol: float, curvature: float,
                start: np.ndarray) -> np.ndarray:
    """Projected GD on the summed opaque losses ``live`` from ``start``."""

    def grad_fn(p):
        g = np.zeros_like(p)
        for f in live:
            g += eval_grad(f, p)[1]
        return g

    return _projected_gd(grad_fn, start, dom, curvature, tol)


def comparators(
    stream: CostStream, sched: DeletionSchedule, dom: BallDomain, dim: int | None = None,
    smoothness: float = 1.0,
) -> list[np.ndarray]:
    """Best-in-hindsight points ``z_0*, ..., z_k*`` (one per deletion epoch).

    ``z_i*`` minimizes the full-horizon objective minus the first ``i``
    deleted losses, so learner and comparator share the same history.
    ``dim`` is the points' dimension, needed when no quadratic loss reveals it.
    ``smoothness`` bounds each loss's smoothness: a sum of ``n`` opaque
    losses is minimized with steps ``1 / (n * smoothness)``, each epoch's
    projected GD starting from the comparator before it.
    """
    sched.validate_horizon(len(stream))
    if not stream.live.any():
        raise InvalidInputError("stream has no cost items")
    indices = sched.indices  # a new tuple on each access
    if stream.all_quadratic():
        mats, centers, _, live = stack_quadratics(stream)
        dim = centers.shape[1]
        kept = slice(None) if live.all() else live
        # Summing along the stacked axis adds row after row, as a per-item
        # loop would, so the sums keep their bits.
        total = mats[kept].sum(axis=0, initial=0.0)
        rhs = (mats[kept] @ centers[kept][..., None])[..., 0].sum(axis=0, initial=0.0)
        out = []
        for i in range(sched.k + 1):
            out.append(_solve_quadratic_erm(total, rhs, dim, dom, _ERM_TOL))
            if i < sched.k and live[indices[i] - 1]:
                row = indices[i] - 1
                total = total - mats[row]
                rhs = rhs - mats[row] @ centers[row]
        return out
    out = []
    removed: set = set()
    if dim is None:
        dim = next((f.dim for f in stream.items if isinstance(f, QuadraticCost)), None)
    for i in range(sched.k + 1):
        losses = [
            f for t, f in enumerate(stream.items, start=1)
            if not is_skip(f) and t not in removed
        ]
        curvature = len(losses) * smoothness
        if out and any(isinstance(f, CustomCost) for f in losses):
            # An epoch drops a few losses from the last one: start from its comparator.
            out.append(_opaque_erm(losses, dom, _ERM_TOL, curvature, out[-1]))
        else:
            out.append(solve_erm(losses, dom, dim=dim, curvature=curvature))
        if i < sched.k:
            removed.add(indices[i])
    return out


def _solve_quadratic_erm(
    total: np.ndarray, rhs: np.ndarray, dim: int, dom: BallDomain, tol: float
) -> np.ndarray:
    eigs = np.linalg.eigvalsh(total)
    if eigs[0] <= 1e-12 * max(1.0, float(eigs[-1])):
        warnings.warn(
            "singular curvature sum: ERM is non-unique, returning the "
            "minimum-norm minimizer (ridge 1e-12)",
            RuntimeWarning,
        )
        z = np.linalg.solve(total + 1e-12 * np.eye(dim), rhs)
    else:
        z = np.linalg.solve(total, rhs)
    if float(np.linalg.norm(z)) <= dom.radius:
        return z
    return _projected_gd(lambda p: total @ p - rhs, project(z, dom), dom, float(eigs[-1]), tol)


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def _per_step_regret(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain,
    smoothness: float,
) -> Tuple[np.ndarray, list]:
    """``f_t(z_t) - f_t(z_i*)`` per step (0 on SKIP) and each epoch's window of steps.

    Step ``t`` in ``(tau_i, tau_{i+1}]`` is scored against the ``i``-th
    comparator, with ``tau_0 = 0`` and ``tau_{k+1} = T``.
    """
    horizon = len(stream)
    if trace.horizon != horizon:
        raise InvalidInputError("trace and stream cover different horizons")
    comps = comparators(stream, sched, dom, trace.dim, smoothness)
    edges = (0,) + sched.times + (horizon,)
    windows = [slice(edges[i], min(edges[i + 1], horizon)) for i in range(sched.k + 1)]
    live = stream.live
    if stream.all_quadratic():
        mats, centers, offsets, _ = stack_quadratics(stream)
        diffs = trace.outputs - centers
        per_step = 0.5 * np.einsum("ti,tij,tj->t", diffs, mats, diffs) + offsets
        for comp, window in zip(comps, windows):
            comp_diffs = comp - centers[window]
            per_step[window] -= 0.5 * np.einsum(
                "ti,tij,tj->t", comp_diffs, mats[window], comp_diffs
            ) + offsets[window]
        per_step[~live] = 0.0
        return per_step, windows
    per_step = np.zeros(horizon)
    for comp, window in zip(comps, windows):
        for t in (np.flatnonzero(live[window]) + window.start + 1).tolist():
            item = stream.item_at(t)
            per_step[t - 1] = cost_value(item, trace.output_at(t)) - cost_value(item, comp)
    return per_step, windows


def regret_dynamic(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain,
    smoothness: float = 1.0,
) -> float:
    """Dynamic regret of a trace against the per-epoch comparators.

    ``sum_i sum_{t=tau_i+1}^{tau_{i+1}} [f_t(z_t) - f_t(z_i*)]`` with
    ``tau_0 = 0`` and ``tau_{k+1} = T``; SKIP steps contribute nothing.  The
    losses are recomputed from the stream and the trace outputs, so the same
    metric applies to every algorithm regardless of what it logged.
    ``smoothness`` is passed to ``comparators``.
    """
    per_step, windows = _per_step_regret(trace, stream, sched, dom, smoothness)
    live = stream.live
    # Summing only each window's live steps keeps quadratic streams' regret bit for bit.
    return sum((float(np.sum(per_step[w][live[w]])) for w in windows), 0.0)


def cumulative_regret_curve(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain,
    smoothness: float = 1.0,
) -> np.ndarray:
    """Running partial sums of the dynamic regret, one value per step."""
    return np.cumsum(_per_step_regret(trace, stream, sched, dom, smoothness)[0])


# ---------------------------------------------------------------------------
# Schedule-dependent factors and bound calculators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GValues:
    g1: float
    g2: float
    g3: float | None


def g_functions(
    sched: DeletionSchedule,
    gamma: float,
    p_history: np.ndarray | None = None,
    beta: float | None = None,
) -> GValues:
    """Schedule factors: how deletion timing inflates regret.

    ``G1 = sqrt(sum tau^2 gamma^{4(tau-u)} / u^4)`` (strongly convex),
    ``G2 = sqrt(sum tau / u^2)`` (convex), and with a recorded gradient-power
    history ``G3 = sqrt(beta * sum p(tau) / p(u)^2)`` (adaptive).  ``gamma = 0``
    (mu = beta) keeps only the ``tau = u`` terms of G1, as ``0.0 ** 0`` is 1.
    """
    if not 0.0 <= gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in [0, 1], got {gamma}")
    g1_sq = 0.0
    g2_sq = 0.0
    for u, tau in sched.entries:
        g1_sq += tau**2 * gamma ** (4 * (tau - u)) / u**4
        g2_sq += tau / u**2
    g3 = None
    if p_history is not None:
        if beta is None:
            raise InvalidConfigError("G3 needs the smoothness constant beta")
        p = np.asarray(p_history, dtype=np.float64)
        g3_sq = 0.0
        for u, tau in sched.entries:
            if tau > len(p) or u > len(p):
                raise InvalidInputError("p history shorter than the schedule horizon")
            pu = float(p[u - 1])
            if pu <= 0.0:
                g3_sq = math.inf
                break
            g3_sq += float(p[tau - 1]) / pu**2
        g3 = math.sqrt(beta * g3_sq) if math.isfinite(g3_sq) else math.inf
    return GValues(g1=math.sqrt(g1_sq), g2=math.sqrt(g2_sq), g3=g3)


def active_gap_sum(sched: DeletionSchedule, gamma: float) -> float:
    """Active-run schedule factor ``sum_i gamma^{tau_i - tau_{i-1}} (tau_i - tau_{i-1})``."""
    if not 0.0 <= gamma <= 1.0:
        raise InvalidInputError(f"gamma must lie in [0, 1], got {gamma}")
    prev = 0
    total = 0.0
    for _, tau in sched.entries:
        gap = tau - prev
        total += gamma**gap * gap
        prev = tau
    return total


@dataclass(frozen=True)
class BoundResult:
    """Evaluated bound right-hand side; ``order_form`` bounds compare growth only."""

    theorem: str
    value: float
    components: dict
    order_form: bool = False


def _need(params: Mapping, keys: Sequence[str], theorem: str) -> list:
    missing = [key for key in keys if key not in params or params[key] is None]
    if missing:
        raise InvalidConfigError(f"{theorem} bound needs parameters {missing}")
    return [params[key] for key in keys]


def bound_rhs(theorem: str, params: Mapping) -> BoundResult:
    """Evaluate a regret-bound right-hand side.

    ``theorem`` is one of ``T2``/``T3``/``T4``/``T5``/``T6`` or a survey-table
    row ``table2-{passive-sc, passive-c, active, discard-sc, discard-c, dp-sc,
    dp-c, retrain-sc, retrain-c}``.  T4, T6, and the table rows are order-form.
    """
    name = theorem.strip()
    key = name.upper() if name.upper() in {"T2", "T3", "T4", "T5", "T6"} else name.lower()

    if key == "T2":
        L, mu, T, k, d, eps, g1 = _need(params, ["L", "mu", "T", "k", "d", "eps", "G1"], key)
        if mu <= 0.0:
            raise InvalidConfigError("T2 needs mu > 0")
        base = math.log(T)
        deletions = 2.0 * k**2
        noise = math.sqrt(3.0) * d * k**1.7 * g1 / eps
        scale = L**2 / mu
        return BoundResult(key, scale * (base + deletions + noise), {
            "log_term": scale * base,
            "comparator_shift": scale * deletions,
            "noise": scale * noise,
        })

    if key == "T3":
        D, L, T, k, d, eps, g2 = _need(params, ["D", "L", "T", "k", "d", "eps", "G2"], key)
        kappa = params.get("kappa")
        if k > 0 and (kappa is None or kappa <= 0.0):
            raise InvalidConfigError("T3 needs the quadratic-growth rate kappa when k > 0")
        base = 3.0 * D * L * math.sqrt(T)
        shift = 2.0 * k**2 * L**2 / kappa if k > 0 else 0.0
        noise = (3.0 * D * L * d * k**1.7 / (2.0 * eps)) * g2
        return BoundResult(key, base + shift + noise, {
            "sqrt_term": base, "comparator_shift": shift, "noise": noise,
        })

    if key == "T4":
        D, beta, d, k, L, eps = _need(params, ["D", "beta", "d", "k", "L", "eps"], key)
        comp_sum = params.get("comparator_loss_sum", 0.0)
        g3 = params.get("G3")
        if g3 is None:
            raise InvalidConfigError("T4 needs G3 from a recorded run")
        curvature = D**2 * beta
        comparator = D * math.sqrt(max(comp_sum, 0.0))
        noise = d * k**2 * L**2 * D**2 * g3
        return BoundResult(key, curvature + comparator + noise, {
            "curvature": curvature, "comparator": comparator, "noise": noise,
        }, order_form=True)

    if key == "T5":
        L, D, k, T, d, eps = _need(params, ["L", "D", "k", "T", "d", "eps"], key)
        kappa = params.get("kappa")
        if k > 0 and (kappa is None or kappa <= 0.0):
            raise InvalidConfigError("T5 needs the quadratic-growth rate kappa when k > 0")
        base = L * (D + k**1.1 * math.sqrt(d / eps)) * math.sqrt(2.0 * T)
        shift = 2.0 * L**2 * k**2 / kappa if k > 0 else 0.0
        return BoundResult(key, base + shift, {"sqrt_term": base, "comparator_shift": shift})

    if key == "T6":
        T, k, L, D, mu, eps, d = _need(params, ["T", "k", "L", "D", "mu", "eps", "d"], key)
        gap_sum = params.get("active_gap_sum")
        if gap_sum is None:
            raise InvalidConfigError("T6 needs active_gap_sum (schedule factor)")
        base = math.log(T)
        per_deletion = k * (L * D**2 + L * d / (mu * eps))
        shift = L**2 * k**2 / mu
        return BoundResult(key, base + per_deletion + gap_sum + shift, {
            "log_term": base,
            "per_deletion": per_deletion,
            "schedule": gap_sum,
            "comparator_shift": shift,
        }, order_form=True)

    if key.startswith("table2-"):
        return _table2_row(key.removeprefix("table2-"), params)

    raise InvalidConfigError(f"unknown bound {theorem!r}")


def _table2_row(row: str, params: Mapping) -> BoundResult:
    T = params.get("T")
    k = params.get("k", 0)
    d = params.get("d", 1)
    tau = params.get("tau", T)
    if T is None:
        raise InvalidConfigError("table rows need the horizon T")
    log_t = math.log(T)
    rows = {
        "passive-sc": (log_t + k**2 + d * k**1.7 * params.get("G1", 0.0), 1.0),
        "passive-c": (math.sqrt(T) + k**2 + d * k**1.7 * params.get("G2", 0.0), 1.0),
        "active": (
            log_t + k**2 + params.get("active_gap_sum", 0.0),
            _active_cost(params, tau),
        ),
        "discard-sc": (k * log_t, 1.0),
        "discard-c": (k * math.sqrt(T), 1.0),
        "dp-sc": (d * k * log_t**2.5, math.log(max(tau, 2))),
        "dp-c": (k * math.sqrt(d * T * log_t**2.5), math.log(max(tau, 2))),
        "retrain-sc": (log_t, float(tau)),
        "retrain-c": (math.sqrt(T), float(tau)),
    }
    if row not in rows:
        raise InvalidConfigError(f"unknown survey-table row {row!r}")
    regret, computation = rows[row]
    return BoundResult(f"table2-{row}", regret, {
        "regret": regret, "computation_per_deletion": computation,
    }, order_form=True)


def _active_cost(params: Mapping, tau) -> float:
    gamma = params.get("gamma")
    mu = params.get("mu")
    D = params.get("D")
    L = params.get("L")
    k = params.get("k", 1)
    if None in (gamma, mu, D, L) or not 0.0 < gamma < 1.0:
        return float("nan")
    return math.log(max(k * mu * D * tau / L, 2.0)) / math.log(1.0 / gamma)


# ---------------------------------------------------------------------------
# Quadratic growth measurement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QgEstimate:
    """Sampled quadratic-growth modulus, with the eigenvalue answer for quadratics."""

    kappa_hat: float
    kappa_exact: float | None
    samples: int


def measure_qg(
    losses: Sequence[CostFn], dom: BallDomain, samples: int = 1000, seed: int = 0
) -> QgEstimate:
    """Largest kappa with ``F(z) - F(z*) >= kappa/2 ||z - z*||^2`` over samples.

    For quadratic aggregates with an interior minimizer this is exactly
    ``lambda_min(sum A_t)``, reported alongside the sampled value.
    """
    live = [f for f in losses if not is_skip(f)]
    if not live:
        raise InvalidInputError("cannot measure growth of an empty loss list")
    z_star = solve_erm(live, dom)
    f_star = sum(cost_value(f, z_star) for f in live)
    rng = np.random.default_rng(seed)
    dim = z_star.size
    kappa_hat = math.inf
    used = 0
    for _ in range(samples):
        direction = rng.standard_normal(dim)
        direction /= max(float(np.linalg.norm(direction)), 1e-30)
        radius = dom.radius * rng.random() ** (1.0 / dim)
        z = direction * radius
        dist_sq = float(np.sum((z - z_star) ** 2))
        if dist_sq < 1e-20:
            continue
        used += 1
        gap = sum(cost_value(f, z) for f in live) - f_star
        kappa_hat = min(kappa_hat, 2.0 * gap / dist_sq)
    exact = None
    if all(isinstance(f, QuadraticCost) for f in live):
        total = np.zeros((live[0].dim, live[0].dim))
        for f in live:
            total += f.matrix
        exact = float(np.linalg.eigvalsh(total)[0])
    return QgEstimate(kappa_hat=max(kappa_hat, 0.0), kappa_exact=exact, samples=used)
