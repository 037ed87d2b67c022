"""Certify the deletion guarantee three ways.

1. **Analytic ledger**, one row per deletion: the deleted step ``u_j``
   opens a map discrepancy of at most ``Delta_{u_j}``, the contractive steps
   of ``(u_j, tau_j]`` shrink it by the product of their factors, and the
   noise at ``tau_j`` retires ``a_j = decay_j * Delta_{u_j}``.  The residual
   is linear in these shifts, so it stays feasible (``e_t >= 0`` throughout,
   ``e = 0`` at each noise time) exactly when each ``decay_j`` is that
   product, to within ``tol / Delta_{u_j}``.  Feasibility proves the
   per-interval divergence bound
   ``sum_{j<=i} alpha eps (omega-1) / (omega j^omega)``, which never
   exceeds ``alpha * eps``.
2. **Exact oracle**: on streams whose projections do not bind between the
   first deleted index and the deletion time, both output laws at
   ``tau_i`` are Gaussian with a shared covariance, and the closed form
   there bounds the whole interval: every later step applies the same map
   to both processes, which cannot raise a Rényi divergence
   (post-processing).  Each certification keeps one forward pass, run
   lazily, that holds every interval's result: the full process runs once
   to the last noise time, and each interval's retained process branches
   from it at the interval's first deleted index, or continues the previous
   interval's retained process when its own deleted index comes later.
3. **Monte-Carlo cross-check**: vectorized paired simulations estimate the
   output means and plug them into the same closed form.  Every sample
   follows the same deterministic path until the first noise event
   ``tau_1``, so that prefix is simulated once and broadcast: an interval
   costs one path to ``tau_1`` plus ``n`` rows from ``tau_1`` to ``tau_i``,
   run in fixed row blocks so memory stays flat in ``n``.  A row draws the
   same noise in any block, so the blocks reproduce one full batch bit for
   bit.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import Tuple

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
    NumericError,
    OracleUnavailableError,
)
from .ogd import step_contraction
from .passive import UnlearnerConfig, calibrated_sigma, deletion_calibration, series_term
from .rng import event_normals, noise_generator

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
    "mc_divergence_check",
    "per_step_gammas",
    "propagate_gaussians",
    "series_certificates",
]

_FEAS_TOL = 1e-9
_EXACT_TOL = 1e-9
# Slack on ``bound <= budget``: the series sum may round just past ``alpha * eps``.
_BUDGET_TOL = 1e-12


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
    """Shift accounting of deletion ``j``, which removes step ``u`` and adds noise at ``tau``.

    The shift ``delta`` opened at ``u`` contracts by ``decay_product``, the
    product of the step factors over ``(u, tau]``, before the noise at
    ``tau`` retires ``decay * delta`` of it.  ``sigma`` is the noise scale
    the caller gave (``None`` without one) and ``sigma_required`` the scale
    calibrated to ``decay`` and ``delta``.
    """

    j: int
    u: int
    tau: int
    delta: float
    decay: float
    decay_product: float
    sigma: float | None
    sigma_required: float
    series_term: float


@dataclass(frozen=True)
class ShiftLedger:
    """Shift accounting for one interval: the rows of deletions ``1..ordinal``."""

    ordinal: int
    rows: Tuple[LedgerRow, ...]


@dataclass(frozen=True)
class AnalyticCertificate:
    """Per-interval divergence bounds plus the ledgers that justify them."""

    per_interval: Tuple[float, ...]
    max_bound: float
    budget: float
    ledgers: Tuple[ShiftLedger, ...]

    @property
    def within_budget(self) -> bool:
        return self.max_bound <= self.budget + _BUDGET_TOL


def per_step_gammas(stream: CostStream, rates_arr: np.ndarray, cls: FnClass) -> np.ndarray:
    """Honest per-step contraction factors; deleted slots are the identity."""
    out = np.ones(len(stream))
    out[stream.live] = step_contraction(cls, rates_arr[stream.live])
    return out


def analytic_bound(
    sched: DeletionSchedule,
    cfg: UnlearnerConfig,
    gammas: np.ndarray,
    deltas: np.ndarray,
    decays: Sequence[float],
    sigmas: Sequence[float] | None = None,
) -> AnalyticCertificate:
    """Per-interval divergence bounds from one ledger row per deletion.

    ``gammas``/``deltas`` are per-step arrays (honest contraction factors and
    sensitivities); ``decays`` are the per-deletion factors used in the noise
    calibration (``passive.deletion_calibration``'s gap products).  The
    residual shift ``e_t = gamma_t e_{t-1} + s_t - a_t`` is linear in the
    shifts, so it stays feasible (``e >= 0`` throughout, ``e = 0`` at each
    noise time) exactly when every decay is the product of the factors over
    its gap: a refusal names the deletion whose decay misses its product by
    more than ``tol / delta``.  When ``sigmas`` are supplied they are verified
    against the calibration before anything is certified.
    """
    if sched.k == 0:
        return AnalyticCertificate((), 0.0, cfg.budget, ())
    horizon = len(gammas)
    if len(deltas) != horizon:
        raise InvalidInputError("gammas and deltas must cover the same horizon")
    sched.validate_horizon(horizon)
    decays = [float(x) for x in decays]
    if len(decays) != sched.k:
        raise InvalidInputError("need one decay factor per deletion")

    entries = sched.entries
    gaps = [gammas[u:tau] for u, tau in entries]
    shifts = [float(deltas[u - 1]) for u, _ in entries]
    # The closed form needs factors in [0, inf); NaN fails both comparisons.
    if not all(np.all((gap >= 0.0) & (gap < math.inf)) for gap in gaps):
        raise InvalidInputError("contraction factors must be finite and nonnegative")
    if not all(map(math.isfinite, shifts + decays)):
        raise InvalidInputError("sensitivities and decay factors must be finite")

    tol = _FEAS_TOL * max([1.0] + [abs(delta) for delta in shifts])
    rows = []
    for j, (u, tau) in enumerate(entries, start=1):
        delta, decay = shifts[j - 1], decays[j - 1]
        row = LedgerRow(
            j=j, u=u, tau=tau, delta=delta, decay=decay,
            decay_product=float(np.prod(gaps[j - 1])),
            sigma=None if sigmas is None else float(sigmas[j - 1]),
            sigma_required=calibrated_sigma(cfg, j, decay, delta),
            series_term=series_term(cfg, j) if delta * decay > 0.0 else 0.0,
        )
        if row.sigma is not None and not math.isclose(
            row.sigma, row.sigma_required, rel_tol=1e-9, abs_tol=1e-300
        ):
            raise CertificationRefusedError(
                f"deletion {j}: sigma {row.sigma} is not the calibrated value {row.sigma_required}"
            )
        # The shift this deletion leaves at tau: positive is left over, negative overdrawn.
        residual = (row.decay_product - decay) * delta
        if abs(residual) > tol:
            raise CertificationRefusedError(
                f"deletion {j}: residual shift {residual} at tau_{j}={tau} (decay {decay}, "
                f"product of the step factors {row.decay_product}); " + (
                    "noise is under-calibrated for the actual contraction" if residual > 0.0
                    else "infeasible shift plan")
            )
        rows.append(row)

    per_interval = tuple(float(np.sum([row.series_term for row in rows[:i]]))
                         for i in range(1, sched.k + 1))
    cert = AnalyticCertificate(
        per_interval=per_interval,
        max_bound=max(per_interval),
        budget=cfg.budget,
        ledgers=tuple(ShiftLedger(ordinal=i, rows=tuple(rows[:i]))
                      for i in range(1, sched.k + 1)),
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


def _interval_bounds(sched: DeletionSchedule, ordinal: int, horizon: int) -> Tuple[int, int]:
    if not 1 <= ordinal <= sched.k:
        raise InvalidInputError(f"interval ordinal {ordinal} outside [1, {sched.k}]")
    start = sched.times[ordinal - 1]
    end = sched.times[ordinal] - 1 if ordinal < sched.k else horizon
    return start, min(end, horizon)


def _step_rows(mats: np.ndarray, centers: np.ndarray, live: np.ndarray,
               rates_arr: np.ndarray, first: int, last: int):
    """``(t, A_t, c_t, live_t, eta_t)`` for steps ``first..last``, read from slices."""
    return zip(range(first, last + 1), mats[first - 1:last], centers[first - 1:last],
               live[first - 1:last].tolist(), rates_arr[first - 1:last].tolist())


# Steps of ``I - eta_t A_t`` that ``_ForwardPass._steps`` forms at once.
_LINEAR_BLOCK = 256


class _ForwardPass:
    """One certification's exact oracle: both processes of intervals ``1..upto``.

    ``result(i)`` computes interval ``i``'s ``PropagationResult``, or the
    text of its refusal, on first request and keeps it; nothing runs
    before the first request.  A process's state is its mean plus a
    ``(J, d, d)`` stack holding one linear-part product per noise event
    ``1..J`` it has passed, each started at its injection.  The full
    process (nothing deleted) runs once to ``tau_upto`` and keeps its state
    at every ``tau_j``, and its mean at every branch point
    ``min(u_1..u_i) - 1``.  The retained processes (interval ``i``'s skips
    ``u_1..u_i``) run in interval order: interval ``i``'s continues
    interval ``i - 1``'s when ``u_i > tau_{i-1}`` and otherwise branches
    from the full process at its branch point.  Every process stops at
    ``tau_i``: after it both processes apply the same maps, bound or not,
    so nothing later can raise the divergence.  Every process takes the
    steps a separate simulation from ``t = 1`` would take, in the same
    order, so each state at ``tau_i`` is that simulation's, bit for bit.
    """

    def __init__(self, inputs: tuple, upto: int) -> None:
        # ``inputs`` are ``(stream, sched, rates_arr, cfg, cls, dom)``.
        self.inputs = inputs
        self.entries = inputs[1].entries[:upto]
        self.noise_at = {tau: j for j, (_, tau) in enumerate(self.entries, start=1)}
        self.u_min = list(accumulate((u for u, _ in self.entries), min))
        self.full: dict = {}
        self.retained: list = []
        self.results: dict = {}

    def serves(self, *inputs) -> bool:
        return all(a is b for a, b in zip(inputs, self.inputs))

    def result(self, i: int) -> PropagationResult:
        """Interval ``i``'s output laws; raises ``OracleUnavailableError`` when refused."""
        if i not in self.results:
            if not self.full:
                self._run_full()
            for m in range(len(self.retained) + 1, i + 1):
                self._run_retained(m)
            self.results[i] = self._finish(i)
        found = self.results[i]
        if isinstance(found, str):
            # A fresh exception per call: a stored one would tie its traceback's
            # frames to the pass that stores it.
            raise OracleUnavailableError(found)
        return found

    def _run_full(self) -> None:
        stream, sched, rates_arr, cfg, cls, dom = self.inputs
        self.sigmas = [
            deletion_calibration(stream, rates_arr, cls, cfg, j, u, tau)[2]
            for j, (u, tau) in enumerate(self.entries, start=1)
        ]
        sched.validate_horizon(len(stream))
        self.mats, self.centers, _, self.live = stack_quadratics(stream)
        self.rates_arr = rates_arr
        self.radius = dom.radius
        dim = self.centers.shape[1]
        self.eye = np.eye(dim)[None]

        # Full-process states by step, and the steps at which it bound.
        self.full_binds: list = []
        mean, stack, done = np.zeros(dim), np.empty((0, dim, dim)), 0
        for stop in sorted({u - 1 for u in self.u_min} | {tau for _, tau in self.entries}):
            if stop > done:
                mean, stack, binds = self._steps(mean, stack, done + 1, stop, ())
                self.full_binds += binds
                done = stop
            self.full[stop] = (mean, stack)

    def _steps(self, mean: np.ndarray, stack: np.ndarray, first: int, last: int,
               deleted) -> tuple:
        """Steps ``first..last`` of the process that skips ``deleted``.

        Returns the mean and product stack after ``last`` and the steps at
        which the projection bound.  A bound step is rescaled, which is
        exact before the first deleted index; from there up to ``tau_i`` a
        bind refuses the interval.  A live step multiplies every product by
        its ``I - eta_t A_t`` in one batched matmul (bit for bit the
        per-product one); those factors are formed ``_LINEAR_BLOCK`` steps
        at a time.
        """
        radius = self.radius
        limit = radius * (1.0 + 1e-12)
        binds = []
        linears, base = (), first
        rows = _step_rows(self.mats, self.centers, self.live, self.rates_arr, first, last)
        for t, mat, center, keep, eta in rows:
            if keep and t not in deleted:
                moved = mean - eta * mat.dot(mean - center)
                norm = math.sqrt(moved.dot(moved))
                if norm > limit:
                    binds.append(t)
                    moved = moved * (radius / norm)
                mean = moved
                if len(stack):
                    if t - base >= len(linears):
                        base, hi = t, min(t - 1 + _LINEAR_BLOCK, last)
                        block = self.rates_arr[t - 1:hi, None, None] * self.mats[t - 1:hi]
                        linears = self.eye - block
                    stack = linears[t - base] @ stack
            if t in self.noise_at:
                stack = np.concatenate((stack, self.eye))
        return mean, stack, binds

    def _run_retained(self, i: int) -> None:
        """Keep interval ``i``'s retained process at ``tau_i``: ``(mean, stack, first bound step)``.

        A process whose projection bound is neither used nor run on.
        """
        u, tau = self.entries[i - 1]
        if i > 1 and u > self.entries[i - 2][1]:
            mean, stack, bound = self.retained[i - 2]
            start = self.entries[i - 2][1] + 1
        else:
            # No noise event precedes a branch point: every u is at most tau_1.
            start, bound = self.u_min[i - 1], None
            mean, stack = self.full[start - 1]
        if bound is None:
            mean, stack, binds = self._steps(mean, stack, start, tau,
                                             {v for v, _ in self.entries[:i]})
            bound = binds[0] if binds else None
        self.retained.append((mean, stack, bound))

    def _finish(self, i: int) -> PropagationResult | str:
        """Interval ``i``'s result from both processes at ``tau_i``, or why it is refused."""
        stream, sched = self.inputs[:2]
        tau, u_min = self.entries[i - 1][1], self.u_min[i - 1]
        mean1, stack1, bound = self.retained[i - 1]
        # The earliest step in [min(u_1..u_i), tau_i] at which either projection binds.
        k = bisect_left(self.full_binds, u_min)
        if k < len(self.full_binds) and self.full_binds[k] <= tau:
            bound = self.full_binds[k] if bound is None else min(bound, self.full_binds[k])
        if bound is not None:
            return (
                f"projection binds at t={bound} (>= first deleted index {u_min}); "
                "the output law is not Gaussian"
            )
        mean0, stack0 = self.full[tau]

        sigmas = self.sigmas[:i]
        dim = mean0.shape[0]
        not_finite = (
            "an output covariance entry is past the float range; "
            "no Gaussian form can be computed"
        )
        try:
            variances = [s**2 for s in sigmas]
        except OverflowError:  # a float's ** raises where * would give inf
            return not_finite
        covs = []
        for stack in (stack0, stack1):
            cov = np.zeros((dim, dim))
            for prod, sigma, var in zip(stack, sigmas, variances):
                if sigma > 0.0:
                    cov += var * (prod @ prod.T)
            covs.append(cov)
        if not all(np.isfinite(cov).all() for cov in covs):
            return not_finite
        cov_scale = max(variances, default=0.0)
        # Compared after an exact power-of-two rescale that puts the largest
        # entry in [0.5, 1), so the norms cannot overflow; the decision is
        # the unscaled one's wherever that one's norms are finite.
        shift = -math.frexp(max(float(np.max(np.abs(cov))) for cov in covs))[1]
        scaled = [np.ldexp(cov, shift) for cov in covs]
        gap = float(np.linalg.norm(scaled[0] - scaled[1], ord="fro"))
        ref = max(float(np.linalg.norm(cov, ord="fro")) for cov in scaled)
        if gap > 1e-9 * max(ref, math.ldexp(1e-300, shift)):
            return (
                "the two processes have different output covariances over this interval "
                "(a deleted index falls after an earlier noise time); no shared-covariance form exists"
            )

        matrix = covs[0] / cov_scale if cov_scale > 0.0 else np.zeros((dim, dim))
        return PropagationResult(
            ordinal=i,
            interval=_interval_bounds(sched, i, len(stream)),
            with_deleted=GaussianSummary(mean=mean0, cov_scale=cov_scale, matrix=matrix),
            without_deleted=GaussianSummary(mean=mean1, cov_scale=cov_scale, matrix=matrix),
            sigmas=tuple(sigmas),
        )


# The running ``certify_passive_run`` call's pass.  ``propagate_gaussians`` reads
# it for the oracle and for Monte-Carlo alike.
_CERTIFICATION: ContextVar[_ForwardPass | None] = ContextVar("_CERTIFICATION", default=None)


def propagate_gaussians(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
) -> PropagationResult:
    """Propagate both processes' means and noise covariance up to ``tau_i``.

    Refuses (``OracleUnavailableError``) when a projection binds between the
    first deleted index and ``tau_i``, or when the two processes would not
    share an output covariance: in either case the output law is no longer
    the shared-covariance Gaussian this oracle computes.  Inside ``certify_passive_run`` this reads the
    certification's forward pass; alone it runs a pass over intervals
    ``1..ordinal``.
    """
    _interval_bounds(sched, ordinal, len(stream))  # rejects an ordinal outside [1, k]
    inputs = (stream, sched, rates, cfg, cls, dom)
    forward = _CERTIFICATION.get()
    if forward is None or not forward.serves(*inputs):
        forward = _ForwardPass(inputs, ordinal)
    return forward.result(ordinal)


def _shared_cov_form(diff: np.ndarray, cov: np.ndarray) -> Tuple[float, int]:
    """``q = diff^T cov^+ diff`` and the rank of ``cov``.

    ``q`` is infinite when ``diff`` leaves the support of ``cov``.  The exact
    divergence is ``alpha q / 2``; Monte-Carlo also reads the rank.
    """
    norm_diff = float(np.linalg.norm(diff))
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam_max = float(eigvals[-1]) if eigvals.size else 0.0
    if lam_max <= 0.0:
        return (0.0 if norm_diff <= 1e-12 else math.inf), 0
    coords = eigvecs.T @ diff
    null = eigvals <= lam_max * 1e-12
    supported = ~null
    rank = int(np.count_nonzero(supported))
    if np.any(np.abs(coords[null]) > 1e-9 * (1.0 + norm_diff)):
        return math.inf, rank
    return float(np.sum(coords[supported] ** 2 / eigvals[supported])), rank


def exact_divergence_quadratic(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: np.ndarray,
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
    prop = propagate_gaussians(stream, sched, rates, cfg, cls, dom, ordinal)
    diff = prop.with_deleted.mean - prop.without_deleted.mean
    return 0.5 * cfg.alpha * _shared_cov_form(diff, prop.with_deleted.covariance)[0]


# ---------------------------------------------------------------------------
# Monte-Carlo cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McDivergenceReport:
    """Sampled mean estimates and the divergence they imply."""

    ordinal: int
    n: int
    mean_with_deleted: np.ndarray
    mean_without_deleted: np.ndarray
    estimate: float
    std_error: float
    binding_events: int

    @property
    def wide(self) -> bool:
        """True when the standard error dominates the estimate."""
        return not (self.std_error < 0.5 * max(self.estimate, 1e-300))


# Rows per Monte-Carlo block.  Every block reuses one set of buffers, its
# noise draws included, so the block size sets the check's whole working set
# and memory stays flat in ``n``.
_MC_BLOCK = 4096


def _projected_step(z: np.ndarray, scratch: tuple, mat: np.ndarray, center: np.ndarray,
                    eta: float, radius: float) -> int:
    """One projected-OGD step on the rows of ``z``, in place; returns the rows bound.

    ``scratch`` holds two ``(rows, dim)`` buffers, row norms and a row mask,
    each with at least ``len(z)`` rows.  The in-place forms run the same
    operations as ``z - eta * ((z - center) @ mat)`` and
    ``np.linalg.norm(z, axis=1)``, so every bit matches the allocating step.
    """
    diff, grad, norms, over = (buf[:len(z)] for buf in scratch)
    np.subtract(z, center, out=diff)
    np.matmul(diff, mat, out=grad)
    np.multiply(grad, eta, out=grad)
    np.subtract(z, grad, out=z)
    np.multiply(z, z, out=diff)
    np.add.reduce(diff, axis=1, out=norms)
    np.sqrt(norms, out=norms)
    np.greater(norms, radius, out=over)
    if not over.any():
        return 0
    z[over] *= (radius / norms[over])[:, None]
    return int(np.count_nonzero(over))


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
    dim: int,
) -> Tuple[np.ndarray, int]:
    """Vectorized projected-OGD sample paths; returns (sum of z_tau rows, bindings).

    All ``rows`` samples share one deterministic path until the first noise
    event with ``sigma > 0``, so that prefix runs once on ``min(rows, 2)``
    identical rows; while collapsed, a bound step counts ``rows`` binding
    events.  From that event on the rows run in blocks of ``_MC_BLOCK`` in
    buffers allocated once, the noise draws' included.  Each noisy event has
    one generator, keyed ``(seed, process_id, j)``, that the blocks read in
    row order, so the blocks draw the rows of one ``(rows, dim)`` draw.  A
    one-row tail joins the block before it, so every matrix product has at
    least two rows and stays on the full batch's BLAS kernel.
    Each block's sum starts from the running total, which makes the result
    the row-by-row sum of a full ``(rows, dim)`` batch run from ``t = 1``,
    bit for bit.
    With ``dim == 1`` numpy sums the single column pairwise instead, so
    such rows stay in one block.
    """
    mats, centers, _, live = stack_quadratics(stream)
    fan_out = min((t for t, j in noise_times.items() if t <= tau_i and sigmas[j - 1] > 0.0),
                  default=tau_i)
    block = _MC_BLOCK if dim > 1 else rows
    size = min(rows, block + 1)
    # Row 0 carries the running total into the next block's sum.
    zbuf = np.zeros((size + 1, dim))
    scratch = (np.empty((size, dim)), np.empty((size, dim)), np.empty(size),
               np.empty(size, dtype=bool))
    draws = np.empty((size, dim))
    gens = {j: noise_generator(seed, (process_id, j))
            for j in noise_times.values() if sigmas[j - 1] > 0.0}

    binding = 0
    z = zbuf[1:min(rows, 2) + 1]
    for _, mat, center, keep, eta in _step_rows(mats, centers, live, rates_arr, 1, fan_out):
        if keep and _projected_step(z, scratch, mat, center, eta, dom.radius):
            binding += rows
    start = z[0].copy()

    bounds = list(range(0, rows, block)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    total = None
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        m = hi - lo
        z = zbuf[1:m + 1]
        z[...] = start
        for t, mat, center, keep, eta in _step_rows(mats, centers, live, rates_arr,
                                                    fan_out, tau_i):
            if t > fan_out and keep:
                binding += _projected_step(z, scratch, mat, center, eta, dom.radius)
            j = noise_times.get(t)
            if j in gens:
                noise = event_normals(gens[j], draws[:m])
                noise *= sigmas[j - 1]
                z += noise
        if total is not None:
            zbuf[0] = total
            z = zbuf[:m + 1]
        total = z.sum(axis=0)
    return total, binding


def mc_divergence_check(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    ordinal: int,
    n: int,
    seed: int,
) -> McDivergenceReport:
    """Estimate the interval divergence by sampling both processes.

    Each process runs its ``n`` rows in blocks of ``_MC_BLOCK`` that reuse
    one set of buffers, so memory does not grow with ``n``.  The blocks
    read each noise event's generator in row order, so the sums are those
    of one full batch bit for bit.
    """
    if n < 1:
        raise InvalidInputError(f"need n >= 1, got {n}")
    prop = propagate_gaussians(stream, sched, rates, cfg, cls, dom, ordinal)
    tau_i = sched.times[ordinal - 1]
    noise_times = {tau: j for j, (_, tau) in enumerate(sched.entries[:ordinal], start=1)}
    dim = stack_quadratics(stream)[1].shape[1]

    means = []
    binding = 0
    for process_id, proc_stream in enumerate((stream, retained(stream, sched, upto=ordinal))):
        total, bound_count = _simulate_batch(proc_stream, rates, dom, prop.sigmas,
                                             noise_times, tau_i, seed, process_id, n, dim)
        means.append(total / n)
        binding += bound_count

    q, rank = _shared_cov_form(means[0] - means[1], prop.with_deleted.covariance)
    # Each mean estimate carries cov/n of sampling noise, so ``n q / 2`` is a
    # noncentral chi-square on ``rank`` degrees of freedom with noncentrality
    # ``n q_true / 2``: ``q`` runs ``2 rank / n`` high in expectation, and the
    # estimate's variance is ``2 (alpha / n)^2 (rank + n q_true)``.
    q_true = max(q - 2.0 * rank / n, 0.0)
    estimate = max(0.5 * cfg.alpha * q - cfg.alpha * rank / n, 0.0)
    try:
        std_error = math.sqrt(2.0 * cfg.alpha**2 * (rank + n * q_true)) / n
    except OverflowError:  # alpha ** 2
        std_error = math.inf
    if not math.isfinite(estimate + std_error):
        raise NumericError(f"Monte-Carlo estimate out of range at alpha = {cfg.alpha!r}")
    return McDivergenceReport(
        ordinal=ordinal,
        n=n,
        mean_with_deleted=means[0],
        mean_without_deleted=means[1],
        estimate=estimate,
        std_error=std_error,
        binding_events=binding,
    )


# ---------------------------------------------------------------------------
# Certification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCertificate:
    ordinal: int
    interval: Tuple[int, int]
    analytic_bound: float | None
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


def _certificate(
    sched: DeletionSchedule, horizon: int, budget: float, i: int, bound: float | None,
    note: str, exact: float | None = None, mc: float | None = None,
) -> IntervalCertificate:
    """Interval ``i``'s row: it passes with a bound within budget and any exact value within it."""
    return IntervalCertificate(
        ordinal=i,
        interval=_interval_bounds(sched, i, horizon),
        analytic_bound=bound,
        exact_divergence=exact,
        mc_estimate=mc,
        budget=budget,
        passes=bound is not None and bound <= budget + _BUDGET_TOL
        and (exact is None or exact <= bound + _EXACT_TOL),
        note=note,
    )


def series_certificates(
    sched: DeletionSchedule, cfg: UnlearnerConfig, horizon: int, certifiable: bool
) -> list[IntervalCertificate]:
    """The series bound alone, for runs the quadratic oracle does not apply to.

    A run that is not certifiable carries no bound, and no interval passes.
    """
    bounds = np.cumsum([series_term(cfg, j) for j in range(1, sched.k + 1)]).tolist()
    note = "series bound only; quadratic oracle not applicable"
    if not certifiable:
        bounds, note = [None] * sched.k, "certification void for this run"
    return [
        _certificate(sched, horizon, cfg.budget, i, bound, note)
        for i, bound in enumerate(bounds, start=1)
    ]


def certify_passive_run(
    stream: CostStream,
    sched: DeletionSchedule,
    rates: np.ndarray,
    cfg: UnlearnerConfig,
    cls: FnClass,
    dom: BallDomain,
    mc_samples: int = 0,
    seed: int = 0,
) -> list[IntervalCertificate]:
    """Full certification of a passive configuration, one report per interval.

    An interval passes when its ledger is feasible, the analytic bound stays
    within ``alpha * eps``, and (whenever the oracle applies) the exact
    divergence does not exceed the analytic bound.  ``rates`` holds the
    ``eta_1..eta_T`` the run recorded, and both processes start at the
    origin, as every run does.
    """
    horizon = len(stream)
    gammas = per_step_gammas(stream, rates, cls)
    deltas = np.zeros(horizon)
    decays, sigmas = [], []
    try:
        for j, (u, tau) in enumerate(sched.entries, start=1):
            deltas[u - 1], decay, sigma, contractive = deletion_calibration(
                stream, rates, cls, cfg, j, u, tau
            )
            if not contractive:
                raise CertificationRefusedError(
                    f"deletion {j}: non-contractive step inside ({u}, {tau}]"
                )
            decays.append(decay)
            sigmas.append(sigma)
        # Only the bounds go into the reports; the per-deletion rows are not written out.
        per_interval = analytic_bound(
            sched, cfg, gammas, deltas, decays=decays, sigmas=sigmas
        ).per_interval
    except CertificationRefusedError as err:
        return [
            _certificate(sched, horizon, cfg.budget, i, None, f"refused: {err}")
            for i in range(1, sched.k + 1)
        ]

    reports = []
    token = _CERTIFICATION.set(_ForwardPass((stream, sched, rates, cfg, cls, dom), sched.k))
    try:
        for i, bound_i in enumerate(per_interval, start=1):
            note = ""
            exact: float | None = None
            mc: float | None = None
            try:
                exact = exact_divergence_quadratic(stream, sched, rates, cfg, cls, dom, i)
            except OracleUnavailableError as err:
                note = f"oracle unavailable: {err}"
            if mc_samples > 0 and exact is not None:
                mc = mc_divergence_check(
                    stream, sched, rates, cfg, cls, dom, i, mc_samples, seed
                ).estimate
            reports.append(_certificate(sched, horizon, cfg.budget, i, bound_i, note, exact, mc))
    finally:
        _CERTIFICATION.reset(token)
    return reports
