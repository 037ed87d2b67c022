"""Certify the deletion guarantee three ways.

1. **Analytic ledger**, a shift-accounting pass: every deleted step opens a
   map discrepancy of at most ``Delta_{u_j}``, each subsequent contractive
   step shrinks the residual, and the noise at ``tau_j`` retires exactly the
   surviving amount ``a_j = decay_j * Delta_{u_j}``.  Feasibility
   (``e_t >= 0`` throughout, ``e = 0`` at the interval end) proves the
   per-interval divergence bound ``sum_{j<=i} alpha eps (omega-1) / (omega j^omega)``,
   which never exceeds ``alpha * eps``.
2. **Exact oracle**: on all-quadratic streams with non-binding projections
   both output laws are Gaussian with a shared covariance, so the interval
   divergence collapses to the closed form at the deletion time.
3. **Monte-Carlo cross-check**: vectorized paired simulations estimate the
   output means and plug them into the same closed form.  Every sample
   follows the same deterministic path until the first noise event
   ``tau_1``, so that prefix is simulated once and broadcast: an interval
   costs one path to ``tau_1`` plus ``n`` rows from ``tau_1`` to ``tau_i``.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .core import (
    BallDomain,
    CostStream,
    DeletionSchedule,
    FnClass,
    retained,
    stack_quadratics,
)
from .errors import (
    CertificationRefusedError,
    InvalidInputError,
    OracleUnavailableError,
    UnsupportedCostError,
)
from .ogd import (
    AdaptiveRate,
    RateSchedule,
    gradient_step_sensitivity,
    rate,
    step_contraction,
)
from .passive import (
    UnlearnerConfig,
    calibrated_sigma,
    deletion_decay,
    deletion_delta,
    series_term,
)
from .rng import event_normals

__all__ = [
    "AnalyticCertificate",
    "GaussianSummary",
    "IntervalCertificate",
    "LedgerRow",
    "McDivergenceReport",
    "PropagationResult",
    "ShiftLedger",
    "analytic_bound",
    "certify_passive_run",
    "exact_divergence_quadratic",
    "gaussian_renyi",
    "interval_sequence_divergence",
    "mc_divergence_check",
    "per_step_gammas",
    "propagate_gaussians",
    "rates_array",
]

_FEAS_TOL = 1e-9
_EXACT_TOL = 1e-9


def gaussian_renyi(alpha: float, m0: np.ndarray, m1: np.ndarray, sigma2: float) -> float:
    """Order-``alpha`` divergence of two isotropic Gaussians with equal variance.

    ``D = alpha * ||m0 - m1||^2 / (2 sigma2)``; zero variance with unequal
    means signals infinite divergence.
    """
    if alpha <= 1.0:
        raise InvalidInputError(f"need alpha > 1, got {alpha}")
    if sigma2 < 0.0:
        raise InvalidInputError(f"variance cannot be negative, got {sigma2}")
    gap_sq = float(np.sum((np.asarray(m0, dtype=np.float64) - np.asarray(m1, dtype=np.float64)) ** 2))
    if sigma2 == 0.0:
        return 0.0 if gap_sq == 0.0 else math.inf
    return alpha * gap_sq / (2.0 * sigma2)


# ---------------------------------------------------------------------------
# Analytic ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerRow:
    """One time step of the shift ledger: discrepancy in, budget out, residual."""

    t: int
    s: float
    a: float
    gamma: float
    e: float


@dataclass(frozen=True)
class ShiftLedger:
    """Shift accounting for one interval (deletions ``1..ordinal`` up to ``tau_i``)."""

    ordinal: int
    rows: Tuple[LedgerRow, ...]

    @property
    def final_residual(self) -> float:
        return self.rows[-1].e if self.rows else 0.0


@dataclass(frozen=True)
class AnalyticCertificate:
    """Per-interval divergence bounds plus the ledgers that justify them."""

    per_interval: Tuple[float, ...]
    max_bound: float
    budget: float
    ledgers: Tuple[ShiftLedger, ...]

    @property
    def within_budget(self) -> bool:
        return self.max_bound <= self.budget + 1e-12


def rates_array(rates: RateSchedule, horizon: int) -> np.ndarray:
    """Learning rates ``eta_1..eta_T`` for a clock-driven (non-adaptive) schedule."""
    if isinstance(rates, AdaptiveRate):
        raise OracleUnavailableError(
            "adaptive rates depend on the realized gradients; pass a trace's recorded rates"
        )
    return np.array([rate(rates, t) for t in range(1, horizon + 1)])


def per_step_gammas(stream: CostStream, rates_arr: np.ndarray, cls: FnClass) -> np.ndarray:
    """Honest per-step contraction factors; SKIP steps are the identity."""
    out = np.ones(len(stream))
    for t in np.flatnonzero(stream.live).tolist():
        out[t] = step_contraction(cls, float(rates_arr[t]))
    return out


def _build_ledger(
    entries: Sequence[Tuple[int, int]],
    gammas: np.ndarray,
    deltas_at: dict,
    decays: Sequence[float],
    ordinal: int,
    tol: float,
) -> ShiftLedger:
    """Ledger for interval ``ordinal``: deletions ``1..ordinal``, times ``1..tau_i``."""
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
    return ShiftLedger(ordinal=ordinal, rows=tuple(rows))


def analytic_bound(
    sched: DeletionSchedule,
    cfg: UnlearnerConfig,
    gammas: np.ndarray,
    deltas: np.ndarray,
    decays: Sequence[float] | None = None,
    sigmas: Sequence[float] | None = None,
) -> AnalyticCertificate:
    """Per-interval divergence bounds from the shift ledger.

    ``gammas``/``deltas`` are per-step arrays (honest contraction factors and
    sensitivities); ``decays`` are the per-deletion factors used in the noise
    calibration (product of the gap's gammas by default).  When ``sigmas`` are
    supplied they are verified against the calibration before anything is
    certified.
    """
    if sched.k == 0:
        return AnalyticCertificate((), 0.0, cfg.budget, ())
    horizon = len(gammas)
    if len(deltas) != horizon:
        raise InvalidInputError("gammas and deltas must cover the same horizon")
    sched.validate_horizon(horizon)

    entries = sched.entries
    deltas_at = {u: float(deltas[u - 1]) for u, _ in entries}
    if decays is None:
        decays = [
            float(np.prod(gammas[u:tau])) if tau > u else 1.0 for u, tau in entries
        ]
    decays = [float(x) for x in decays]
    if len(decays) != sched.k:
        raise InvalidInputError("need one decay factor per deletion")

    if sigmas is not None:
        for j, (u, tau) in enumerate(entries, start=1):
            expected = calibrated_sigma(cfg, j, decays[j - 1], deltas_at[u])
            got = float(sigmas[j - 1])
            if not math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-300):
                raise CertificationRefusedError(
                    f"deletion {j}: sigma {got} is not the calibrated value {expected}"
                )

    scale = max([1.0] + [abs(v) for v in deltas_at.values()])
    tol = _FEAS_TOL * scale

    terms = []
    for j, (u, tau) in enumerate(entries, start=1):
        if deltas_at[u] * decays[j - 1] > 0.0:
            terms.append(series_term(cfg, j))
        else:
            terms.append(0.0)

    per_interval = tuple(float(np.sum(terms[:i])) for i in range(1, sched.k + 1))
    ledgers = tuple(
        _build_ledger(entries, gammas, deltas_at, decays, i, tol) for i in range(1, sched.k + 1)
    )
    cert = AnalyticCertificate(
        per_interval=per_interval,
        max_bound=max(per_interval),
        budget=cfg.budget,
        ledgers=ledgers,
    )
    if not cert.within_budget:
        raise CertificationRefusedError(
            f"series bound {cert.max_bound} exceeds the budget {cert.budget}"
        )
    return cert


# ---------------------------------------------------------------------------
# Exact Gaussian oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianSummary:
    """Gaussian law ``N(mean, cov_scale * matrix)`` with an explicit PSD matrix."""

    mean: np.ndarray
    cov_scale: float
    matrix: np.ndarray

    @property
    def covariance(self) -> np.ndarray:
        return self.cov_scale * self.matrix


@dataclass(frozen=True)
class PropagationResult:
    """Closed-form output laws of the two processes at a deletion time."""

    ordinal: int
    interval: Tuple[int, int]
    with_deleted: GaussianSummary
    without_deleted: GaussianSummary
    sigmas: Tuple[float, ...]
    post_jacobians: Tuple[np.ndarray, ...]
    post_means: Tuple[Tuple[np.ndarray, np.ndarray], ...]


def _deletion_params(
    stream: CostStream,
    sched: DeletionSchedule,
    upto: int,
    rates_arr: np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
) -> Tuple[list, list, list]:
    """Public (delta, decay, sigma) per deletion, matching the runner bit for bit."""
    deltas, decays, sigmas = [], [], []
    for j, (u, tau) in enumerate(sched.entries[:upto], start=1):
        delta = deletion_delta(stream, u, rates_arr, cls)
        decay, contractive = deletion_decay(stream, u, tau, rates_arr, cls, cfg.gamma_mode)
        if not contractive:
            raise CertificationRefusedError(
                f"deletion {j}: non-contractive step inside ({u}, {tau}]"
            )
        deltas.append(delta)
        decays.append(decay)
        sigmas.append(calibrated_sigma(cfg, j, decay, delta))
    return deltas, decays, sigmas


def _interval_bounds(sched: DeletionSchedule, ordinal: int, horizon: int) -> Tuple[int, int]:
    if not 1 <= ordinal <= sched.k:
        raise InvalidInputError(f"interval ordinal {ordinal} outside [1, {sched.k}]")
    start = sched.times[ordinal - 1]
    end = sched.times[ordinal] - 1 if ordinal < sched.k else horizon
    return start, min(end, horizon)


def propagate_gaussians(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule | np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
) -> PropagationResult:
    """Propagate both processes' means and noise covariance up to ``tau_i``.

    Requires an all-quadratic stream.  Refuses (``OracleUnavailableError``)
    when a projection binds at or after the first deleted index, or when the
    two processes would not share an output covariance: in either case the
    output law is no longer the shared-covariance Gaussian this oracle
    computes.
    """
    if not stream.all_quadratic():
        raise UnsupportedCostError("the exact oracle needs an all-quadratic stream")
    horizon = len(stream)
    start, end = _interval_bounds(sched, ordinal, horizon)
    rates_arr = rates if isinstance(rates, np.ndarray) else rates_array(rates, horizon)

    deltas, decays, sigmas = _deletion_params(stream, sched, ordinal, rates_arr, cfg, cls)
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
    prods: Tuple[dict, dict] = ({}, {})
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

    # Continue both means through the (identical) post-deletion maps, keeping
    # the interval's deterministic Jacobians for the sequence-collapse witness.
    post_jacobians = [eye]
    post_means = [(means[0].copy(), means[1].copy())]
    jac = eye
    mean0, mean1 = means[0].copy(), means[1].copy()
    for t in range(tau_i + 1, end + 1):
        if lives[0][t - 1]:
            eta = float(rates_arr[t - 1])
            mat = mats[t - 1]
            linear = eye - eta * mat
            shift = eta * (mat @ centers[t - 1])
            mean0 = linear @ mean0 + shift
            mean1 = linear @ mean1 + shift
            for m in (mean0, mean1):
                if float(np.linalg.norm(m)) > dom.radius * (1.0 + 1e-12):
                    raise OracleUnavailableError(
                        f"projection binds at t={t} inside the interval; law is not Gaussian"
                    )
            jac = linear @ jac
        post_jacobians.append(jac.copy())
        post_means.append((mean0.copy(), mean1.copy()))

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
        post_jacobians=tuple(post_jacobians),
        post_means=tuple(post_means),
    )


# While ``certify_passive_run`` runs, the propagation the oracle computes for
# an interval is kept here by ordinal, and the Monte-Carlo check of the same
# interval reuses it instead of propagating again.
_SHARED_PROPAGATIONS: ContextVar[dict | None] = ContextVar("_SHARED_PROPAGATIONS", default=None)


def _interval_propagation(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule | np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
) -> PropagationResult:
    shared = _SHARED_PROPAGATIONS.get()
    if shared is not None and ordinal in shared:
        return shared[ordinal]
    prop = propagate_gaussians(stream, sched, rates, cfg, cls, dom, ordinal)
    if shared is not None:
        shared[ordinal] = prop
    return prop


def _shared_cov_divergence(alpha: float, diff: np.ndarray, cov: np.ndarray) -> float:
    """``(alpha/2) diff^T cov^+ diff``; infinite if ``diff`` leaves the support."""
    norm_diff = float(np.linalg.norm(diff))
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if lam_max <= 0.0:
        return 0.0 if norm_diff <= 1e-12 else math.inf
    rank_tol = lam_max * 1e-12
    coords = eigvecs.T @ diff
    null = eigvals <= rank_tol
    if np.any(np.abs(coords[null]) > 1e-9 * (1.0 + norm_diff)):
        return math.inf
    supported = ~null
    return 0.5 * alpha * float(np.sum(coords[supported] ** 2 / eigvals[supported]))


def exact_divergence_quadratic(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule | np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
) -> float:
    """Exact interval divergence between the unlearner and the retained rerun.

    The interval's outputs are the noisy state at ``tau_i`` pushed through
    identical deterministic maps, so the first noisy state is sufficient and
    the divergence is the shared-covariance Gaussian form at ``tau_i``.
    """
    prop = _interval_propagation(stream, sched, rates, cfg, cls, dom, ordinal)
    diff = prop.with_deleted.mean - prop.without_deleted.mean
    return _shared_cov_divergence(cfg.alpha, diff, prop.with_deleted.covariance)


def interval_sequence_divergence(prop: PropagationResult, alpha: float) -> float:
    """Divergence of the full stacked output sequence over the interval.

    Post-processing witness: this must equal the collapsed value at ``tau_i``
    whenever the post-deletion maps are identical and deterministic.
    """
    dim = prop.with_deleted.mean.size
    stack = np.concatenate([jac for jac in prop.post_jacobians], axis=0)
    diff = np.concatenate([m0 - m1 for m0, m1 in prop.post_means])
    cov = stack @ prop.with_deleted.covariance @ stack.T
    return _shared_cov_divergence(alpha, diff, cov)


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDivergenceReport:
    """Sampled mean estimates and the divergence they imply."""

    ordinal: int
    n: int
    shards: int
    mean_with_deleted: np.ndarray
    mean_without_deleted: np.ndarray
    estimate: float
    std_error: float
    mean_std_error: np.ndarray
    binding_events: int

    @property
    def wide(self) -> bool:
        """True when the standard error dominates the estimate."""
        return not (self.std_error < 0.5 * max(self.estimate, 1e-300))


def _simulate_batch(
    stream: CostStream,
    rates_arr: np.ndarray,
    dom: BallDomain,
    sigmas: Sequence[float],
    noise_times: dict,
    tau_i: int,
    seed: int,
    process_id: int,
    rows: int,
    row_offset: int,
    dim: int,
) -> Tuple[np.ndarray, int]:
    """Vectorized projected-OGD sample paths; returns (sum of z_tau rows, bindings).

    All ``rows`` samples share one deterministic path until the first noise
    event with ``sigma > 0``, so that prefix runs on a block of
    ``min(rows, 2)`` identical rows and is broadcast to all ``rows`` at the
    event: the cost is one path to ``tau_1`` plus ``rows`` paths from
    ``tau_1`` to ``tau_i``.  Two rows, not one, keep the matrix products on
    the same BLAS kernel as the full batch, so every output bit matches a
    full-batch run from ``t = 1``; while collapsed, a bound step counts
    ``rows`` binding events.
    """
    mats, centers, _, live = stack_quadratics(stream)
    mats, centers, live = list(mats[:tau_i]), list(centers[:tau_i]), live[:tau_i].tolist()
    z = np.zeros((min(rows, 2), dim))
    collapsed = True
    binding = 0
    for t in range(1, tau_i + 1):
        if live[t - 1]:
            eta = float(rates_arr[t - 1])
            grad = (z - centers[t - 1]) @ mats[t - 1]
            z = z - eta * grad
            norms = np.linalg.norm(z, axis=1)
            over = norms > dom.radius
            if np.any(over):
                binding += rows if collapsed else int(np.sum(over))
                z[over] *= (dom.radius / norms[over])[:, None]
        j = noise_times.get(t)
        sigma = sigmas[j - 1] if j is not None else 0.0
        if sigma > 0.0:
            if collapsed:
                z = np.repeat(z[:1], rows, axis=0)
                collapsed = False
            z = z + sigma * event_normals(seed, (process_id, j), rows, dim, row_offset)
    if collapsed:
        # Sum the broadcast rows, not rows * z[0]: the two differ in the last bit.
        z = np.repeat(z[:1], rows, axis=0)
    return z.sum(axis=0), binding


def mc_divergence_check(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule | np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
    n: int,
    seed: int,
    shards: int = 1,
    jobs: int = 1,
) -> McDivergenceReport:
    """Estimate the interval divergence by sampling both processes.

    Sample ``r`` of each process always consumes the same draws no matter how
    the work is sharded, so partial sums merge associatively (in shard order)
    and the estimate is independent of ``shards`` and ``jobs`` up to float
    reassociation.
    """
    if not stream.all_quadratic():
        raise UnsupportedCostError("the Monte-Carlo check needs an all-quadratic stream")
    if n < 1 or shards < 1 or shards > n:
        raise InvalidInputError("need n >= 1 and 1 <= shards <= n")
    horizon = len(stream)
    rates_arr = rates if isinstance(rates, np.ndarray) else rates_array(rates, horizon)
    prop = _interval_propagation(stream, sched, rates_arr, cfg, cls, dom, ordinal)
    tau_i = sched.times[ordinal - 1]
    noise_times = {tau: j for j, (_, tau) in enumerate(sched.entries[:ordinal], start=1)}
    dim = stack_quadratics(stream)[1].shape[1]

    bounds = [round(s * n / shards) for s in range(shards + 1)]
    both = []
    binding = 0
    for process_id, proc_stream in enumerate((stream, retained(stream, sched, upto=ordinal))):
        tasks = [
            (proc_stream, rates_arr, dom, prop.sigmas, noise_times,
             tau_i, seed, process_id, hi - lo, lo, dim)
            for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        if jobs > 1 and len(tasks) > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=jobs) as pool:
                parts = list(pool.map(lambda args: _simulate_batch(*args), tasks))
        else:
            parts = [_simulate_batch(*args) for args in tasks]
        total = np.zeros(dim)
        for part, bound_count in parts:
            total = total + part
            binding += bound_count
        both.append(total / n)

    diff = both[0] - both[1]
    cov = prop.with_deleted.covariance
    raw = _shared_cov_divergence(cfg.alpha, diff, cov)
    # Each mean estimate carries cov/n of sampling noise, which inflates the
    # plug-in quadratic form by alpha * rank / n in expectation; subtract it.
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if lam_max > 0.0 and math.isfinite(raw):
        keep = eigvals > lam_max * 1e-12
        rank = int(np.sum(keep))
        estimate = max(raw - cfg.alpha * rank / n, 0.0)
        coords = (eigvecs.T @ diff)[keep]
        grad_sq = cfg.alpha**2 * float(np.sum(coords**2 / eigvals[keep]))
        std_error = math.sqrt(2.0 * grad_sq / n)
    else:
        estimate = raw
        std_error = math.inf if not math.isfinite(raw) else 0.0
    return McDivergenceReport(
        ordinal=ordinal,
        n=n,
        shards=shards,
        mean_with_deleted=both[0],
        mean_without_deleted=both[1],
        estimate=estimate,
        std_error=std_error,
        mean_std_error=np.sqrt(np.clip(np.diag(cov), 0.0, None) * 2.0 / n),
        binding_events=binding,
    )


# ---------------------------------------------------------------------------
# Certification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCertificate:
    ordinal: int
    interval: Tuple[int, int]
    analytic_bound: float
    exact_divergence: float | None
    mc_estimate: float | None
    budget: float
    passes: bool
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "analytic_bound": self.analytic_bound,
            "exact_divergence": self.exact_divergence,
            "mc_estimate": self.mc_estimate,
            "budget": self.budget,
            "pass": self.passes,
            "note": self.note,
        }


def certify_passive_run(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: RateSchedule | np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    mc_samples: int = 0,
    seed: int = 0,
) -> list[IntervalCertificate]:
    """Full certification of a passive configuration, one report per interval.

    An interval passes when its ledger is feasible, the analytic bound stays
    within ``alpha * eps``, and (whenever the oracle applies) the exact
    divergence does not exceed the analytic bound.
    """
    horizon = len(stream)
    rates_arr = rates if isinstance(rates, np.ndarray) else rates_array(rates, horizon)
    gammas = per_step_gammas(stream, rates_arr, cls)
    deltas = np.where(stream.live, gradient_step_sensitivity(cls, rates_arr), 0.0)
    try:
        _, decays, sigmas = _deletion_params(stream, sched, sched.k, rates_arr, cfg, cls)
        cert = analytic_bound(sched, cfg, gammas, deltas, decays=decays, sigmas=sigmas)
    except CertificationRefusedError as err:
        return [
            IntervalCertificate(
                ordinal=i,
                interval=_interval_bounds(sched, i, horizon),
                analytic_bound=math.inf,
                exact_divergence=None,
                mc_estimate=None,
                budget=cfg.budget,
                passes=False,
                note=f"refused: {err}",
            )
            for i in range(1, sched.k + 1)
        ]

    reports = []
    token = _SHARED_PROPAGATIONS.set({})
    try:
        for i in range(1, sched.k + 1):
            bound_i = cert.per_interval[i - 1]
            note = ""
            exact: float | None = None
            mc: float | None = None
            try:
                exact = exact_divergence_quadratic(stream, sched, rates_arr, cfg, cls, dom, i)
            except (OracleUnavailableError, UnsupportedCostError) as err:
                note = f"oracle unavailable: {err}"
            if mc_samples > 0 and exact is not None:
                mc = mc_divergence_check(
                    stream, sched, rates_arr, cfg, cls, dom, i, mc_samples, seed
                ).estimate
            passes = bound_i <= cfg.budget + 1e-12 and (
                exact is None or exact <= bound_i + _EXACT_TOL
            )
            reports.append(
                IntervalCertificate(
                    ordinal=i,
                    interval=_interval_bounds(sched, i, horizon),
                    analytic_bound=bound_i,
                    exact_divergence=exact,
                    mc_estimate=mc,
                    budget=cfg.budget,
                    passes=passes,
                    note=note,
                )
            )
    finally:
        _SHARED_PROPAGATIONS.reset(token)
    return reports
