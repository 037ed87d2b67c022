"""Dynamic-comparator regret, ERM comparators, and the theoretical bound calculators.

Regret scores every output against the best-in-hindsight point of the current
epoch: after the ``i``-th deletion the comparator minimizes the full-horizon
objective with the first ``i`` deleted losses removed.  The bound calculators
evaluate the right-hand sides of the decreasing / adaptive / constant-rate
regret theorems; order-form bounds (labelled ``order_form``) expose their
components and are meant for growth-rate checks, not absolute comparisons.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

import numpy as np

from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    _row_blocks,
    _row_sum,
    project,
    stack_quadratics,
)
from .errors import InvalidConfigError, InvalidInputError, NumericError
from .trace import RunTrace

__all__ = [
    "BoundResult",
    "GValues",
    "active_gap_sum",
    "bound_rhs",
    "comparators",
    "cumulative_regret_curve",
    "g_functions",
    "regret_dynamic",
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


def comparators(stream: CostStream, sched: DeletionSchedule, dom: BallDomain) -> list[np.ndarray]:
    """Best-in-hindsight points ``z_0*, ..., z_k*`` (one per deletion epoch).

    ``z_i*`` minimizes the full-horizon objective minus the first ``i``
    deleted losses, so learner and comparator share the same history.
    """
    sched.validate_horizon(len(stream))
    if not stream.live.any():
        raise InvalidInputError("stream has no cost items")
    indices = sched.indices  # a new tuple on each access
    mats, centers, _, live = stack_quadratics(stream)
    dim = centers.shape[1]
    every = live.all()

    def kept(rows: slice) -> slice | np.ndarray:
        return slice(None) if every else live[rows]

    # Summing along the stacked axis adds row after row, as a per-item
    # loop would, so the sums keep their bits.
    total = _row_sum(len(live), dim, lambda rows: mats[rows][kept(rows)])
    rhs = _row_sum(len(live), dim, lambda rows: (
        mats[rows][kept(rows)] @ centers[rows][kept(rows)][..., None])[..., 0])
    out = []
    for i in range(sched.k + 1):
        out.append(_solve_quadratic_erm(total, rhs, dim, dom))
        if i < sched.k and live[indices[i] - 1]:
            row = indices[i] - 1
            total = total - mats[row]
            rhs = rhs - mats[row] @ centers[row]
    return out


def _solve_quadratic_erm(
    total: np.ndarray, rhs: np.ndarray, dim: int, dom: BallDomain
) -> np.ndarray:
    """Minimizer of ``0.5 z^T total z - rhs^T z`` over the ball.

    Solved in closed form, refined by projected gradient descent when the
    unconstrained minimizer falls outside the ball.  A singular curvature
    sum (mu = 0 with flat directions) is broken toward the minimum-norm
    minimizer with a 1e-12 ridge and flagged.
    """
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
    return _projected_gd(lambda p: total @ p - rhs, project(z, dom), dom, float(eigs[-1]), _ERM_TOL)


# ---------------------------------------------------------------------------
# Regret
# ---------------------------------------------------------------------------

def _per_step_regret(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain
) -> Tuple[np.ndarray, list]:
    """``f_t(z_t) - f_t(z_i*)`` per step (0 at a deleted slot) and each epoch's window of steps.

    Step ``t`` in ``(tau_i, tau_{i+1}]`` is scored against the ``i``-th
    comparator, with ``tau_0 = 0`` and ``tau_{k+1} = T``.
    """
    horizon = len(stream)
    if trace.horizon != horizon:
        raise InvalidInputError("trace and stream cover different horizons")
    comps_at = np.array(comparators(stream, sched, dom))
    edges = (0,) + sched.times + (horizon,)
    windows = [slice(edges[i], min(edges[i + 1], horizon)) for i in range(sched.k + 1)]
    mats, centers, offsets, live = stack_quadratics(stream)
    per_step = np.empty(horizon)
    for rows in _row_blocks(horizon):
        steps = np.arange(rows.start, min(rows.stop, horizon))
        diffs = trace.outputs[rows] - centers[rows]
        comp_diffs = comps_at[np.searchsorted(sched.times, steps, side="right")]
        comp_diffs -= centers[rows]
        per_step[rows] = (
            0.5 * np.einsum("ti,tij,tj->t", diffs, mats[rows], diffs) + offsets[rows]
        ) - (
            0.5 * np.einsum("ti,tij,tj->t", comp_diffs, mats[rows], comp_diffs)
            + offsets[rows]
        )
        per_step[rows][~live[rows]] = 0.0
    return per_step, windows


def regret_dynamic(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain
) -> float:
    """Dynamic regret of a trace against the per-epoch comparators.

    ``sum_i sum_{t=tau_i+1}^{tau_{i+1}} [f_t(z_t) - f_t(z_i*)]`` with
    ``tau_0 = 0`` and ``tau_{k+1} = T``; deleted slots contribute nothing.  The
    losses are recomputed from the stream and the trace outputs, so the same
    metric applies to every algorithm regardless of what it logged.
    """
    per_step, windows = _per_step_regret(trace, stream, sched, dom)
    live = stream.live
    # Summing only each window's live steps keeps the regret bit for bit.
    return sum((float(np.sum(per_step[w][live[w]])) for w in windows), 0.0)


def cumulative_regret_curve(
    trace: RunTrace, stream: CostStream, sched: DeletionSchedule, dom: BallDomain
) -> np.ndarray:
    """Running partial sums of the dynamic regret, one value per step."""
    return np.cumsum(_per_step_regret(trace, stream, sched, dom)[0])


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
            try:
                g3_sq += float(p[tau - 1]) / pu**2
            except (OverflowError, ZeroDivisionError):  # pu ** 2 leaves the float range
                raise NumericError(f"G3 out of range at p_{u} = {pu!r}") from None
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

    ``theorem`` is one of ``T2``/``T3``/``T4``/``T5``/``T6``; T4 and T6 are
    order-form.  A bound past the float range (``L**2`` overflowing, or a noise term over
    a tiny ``eps``) bounds nothing and raises ``NumericError``.
    """
    key = theorem.strip().upper()
    try:
        result = _bound_rhs(key, params)
    except (OverflowError, ZeroDivisionError):  # a square overflows or a divisor underflows
        result = None
    if result is None or not math.isfinite(result.value):
        raise NumericError(f"{key} bound out of range at L = {params.get('L')!r}, "
                           f"eps = {params.get('eps')!r}")
    return result


def _bound_rhs(key: str, params: Mapping) -> BoundResult:
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

    raise InvalidConfigError(f"unknown bound {key!r}")
