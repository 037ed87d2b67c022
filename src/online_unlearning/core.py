"""Domain types for streamed convex losses with deletion requests.

Everything here is an immutable value object: points are read-only float64
arrays, streams freeze their arrays at construction, and schedules are
tuples.  Mutating operations always return new objects, so values can be
shared freely between concurrent runs.

A stream is one stacked, read-only array form of quadratic losses:
curvatures ``mats (T, d, d)``, ``centers (T, d)``, ``offsets (T,)`` and a
``live (T,)`` mask that is False at deleted slots.  ``CostStream`` validates
the whole batch once, in row blocks (finite, square, symmetric, PSD,
``offset >= 0``), and ``retained`` shares those rows, copying only the
mask.  Hot loops read the arrays and the mask directly
(``stack_quadratics``, ``CostStream.live``).

Time indices are 1-based throughout the public API (step ``t`` runs from 1 to
``T``); only raw array access converts to 0-based offsets.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import InvalidInputError, InvalidScheduleError, NumericError

__all__ = [
    "BallDomain",
    "CostStream",
    "DeletionSchedule",
    "FnClass",
    "as_point",
    "decode_vector",
    "encode_vector",
    "project",
    "retained",
]

_VECTOR_FMT = "%.17g"


def as_point(x: Sequence[float] | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate and freeze a parameter vector.

    Returns a read-only float64 copy.  Raises ``InvalidInputError`` on
    non-finite coordinates, empty vectors, or a dimension mismatch.
    """
    arr = np.array(x, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size < 1:
        raise InvalidInputError(f"expected a 1-d vector with d >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("vector has non-finite coordinates")
    if dim is not None and arr.size != dim:
        raise InvalidInputError(f"expected dimension {dim}, got {arr.size}")
    arr.flags.writeable = False
    return arr


def encode_vector(x: np.ndarray) -> str:
    """Serialize a vector as semicolon-joined decimals (17 significant digits).

    17 significant digits round-trip 64-bit floats exactly.
    """
    return ";".join(_VECTOR_FMT % v for v in np.asarray(x, dtype=np.float64))


def decode_vector(text: str) -> np.ndarray:
    return as_point([float(part) for part in text.split(";")])


# The smallest ball radius.  Norms are taken from squares, and a point outside
# a ball this large squares to a normal float, so its norm is measured and the
# projection binds; below it a square can underflow and read a norm of 0.
_MIN_RADIUS = 1e-150


@dataclass(frozen=True)
class BallDomain:
    """Centered Euclidean ball of the given radius; diameter is ``2 * radius``."""

    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= _MIN_RADIUS):
            raise InvalidInputError(
                f"ball radius must be finite and at least {_MIN_RADIUS}, got {self.radius}")

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def project(self, x: np.ndarray) -> np.ndarray:
        return project(x, self)


def project(x: np.ndarray, dom: BallDomain) -> np.ndarray:
    """Euclidean projection onto the ball: rescale iff the norm exceeds the radius."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("cannot project a non-finite vector")
    with np.errstate(over="ignore"):  # a square past the float range takes the rescaled norm
        return _into_ball(arr, dom.radius)[0]


def _into_ball(x: np.ndarray, radius: float) -> Tuple[np.ndarray, bool]:
    """Rescale ``x`` into the ball of ``radius`` iff it lies outside; reports whether it did.

    Rounding can leave the rescaled point an ulp outside, so the rescale
    repeats until it is inside: projection is then exactly idempotent.  A
    NaN or infinite norm never passes ``norm <= radius``, so only the slow
    path looks at it.  A finite point whose square overflows (past about
    1.3e154) is measured as ``max|x|`` times the norm of ``x / max|x|``, and
    neither that product nor the rescale is formed where it could leave the
    float range; anything else raises ``NumericError``.
    """
    norm = _norm(x)
    if norm <= radius:
        return x, False
    moved = False
    while True:
        if math.isfinite(norm):
            if norm <= radius:
                return x, moved
            x = x * (radius / norm)
        else:
            if norm != math.inf or not np.all(np.isfinite(x)):
                raise NumericError("non-finite iterate")
            top = float(np.max(np.abs(x)))
            unit = x / top
            norm = _norm(unit)
            scale = radius / top
            if norm <= scale:
                return x, moved
            # Shrinking x itself always moves it; a scale that underflows
            # would lose it, and then the radius is small enough that the
            # rescaled unit point's square is finite.
            x = x * (scale / norm) if scale >= _TINY else unit * (radius / norm)
        moved = True
        norm = _norm(x)


_TINY = np.finfo(np.float64).tiny  # the smallest normal float


def _norm(x: np.ndarray) -> float:
    """``float(np.linalg.norm(x))`` of a float64 array without its Python overhead.

    These are the operations ``np.linalg.norm`` runs for the default order
    (``ravel``, ``dot``, square root), so the value is the same bit for bit.
    """
    x = x.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


@dataclass(frozen=True)
class FnClass:
    """Certified class constants of a loss family.

    ``lipschitz`` bounds the gradient norm over the domain, ``smoothness`` is
    the largest curvature (beta), and ``strong_convexity`` the smallest (mu;
    zero for merely convex losses).
    """

    lipschitz: float
    smoothness: float
    strong_convexity: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.strong_convexity <= self.smoothness):
            raise InvalidInputError(
                f"need 0 <= mu <= beta, got mu={self.strong_convexity}, beta={self.smoothness}"
            )
        if not (math.isfinite(self.lipschitz) and math.isfinite(self.smoothness)):
            raise InvalidInputError("class constants must be finite")
        if self.lipschitz < 0.0:
            raise InvalidInputError("Lipschitz constant must be nonnegative")


# Rows per block wherever arithmetic runs over every step (generating and
# checking curvatures, scoring losses and regret, summing comparator terms),
# so the temporaries stay a fixed size whatever the horizon.
_ROW_BLOCK = 1024


def _row_blocks(count: int) -> list:
    return [slice(lo, lo + _ROW_BLOCK) for lo in range(0, count, _ROW_BLOCK)]


def _row_sum(count: int, width: int, term: Callable[[slice], np.ndarray]) -> np.ndarray:
    """``term(rows)`` summed over rows ``0..count-1``, ``_ROW_BLOCK`` rows at a time.

    Along a stacked axis numpy adds row after row, so the running total
    leads each block and the bits are the one-batch ``sum(axis=0,
    initial=0.0)``.  A single column (``width`` 1) numpy sums pairwise
    instead, so it is summed in one batch.
    """
    if width == 1:
        return term(slice(0, count)).sum(axis=0, initial=0.0)
    total = None
    for rows in _row_blocks(count):
        block = term(rows)
        if total is not None:
            block = np.concatenate((total[None], block))
        total = block.sum(axis=0, initial=0.0)
    return total


def _check_curvatures(mats: np.ndarray) -> np.ndarray:
    """Validate a stack of curvature matrices ``(T, d, d)``; returns their eigenvalues.

    Each matrix must be finite, symmetric and PSD within ``1e-10 * scale``,
    where ``scale = max(1, max|A|)`` is taken per matrix.  The checks run
    ``_ROW_BLOCK`` matrices at a time yet fail in the whole batch's order:
    every matrix is tested finite, then symmetric, before any is tested PSD
    (``eigvalsh`` works matrix by matrix, so the values are the whole
    batch's).
    """
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise InvalidInputError(f"curvature matrix must be square, got shape {mats.shape[1:]}")
    blocks = _row_blocks(len(mats))
    if not all(np.isfinite(mats[rows]).all() for rows in blocks):
        raise InvalidInputError("curvature matrix has non-finite entries")
    if mats.size == 0:
        return np.zeros(mats.shape[:2])
    scale = np.maximum(1.0, np.maximum(mats.max(axis=(1, 2)), -mats.min(axis=(1, 2))))
    eigs = np.empty(mats.shape[:2])
    for rows in blocks:
        asym = mats[rows] - np.swapaxes(mats[rows], 1, 2)
        np.abs(asym, out=asym)
        if np.any(asym.max(axis=(1, 2)) > 1e-10 * scale[rows]):
            raise InvalidInputError("curvature matrix must be symmetric")
        del asym  # eigvalsh's workspace takes its place
        eigs[rows] = np.linalg.eigvalsh(mats[rows])
    if np.any(eigs[:, 0] < -1e-10 * scale):
        raise InvalidInputError("curvature matrix must be positive semidefinite")
    return eigs


class CostStream:
    """Quadratic losses ``f_t(z) = 0.5 (z - c_t)^T A_t (z - c_t) + o_t``, one per time step.

    ``mats (T, d, d)``, ``centers (T, d)`` and ``offsets (T,)`` (zeros by
    default) hold one row per step; ``live (T,)`` (all True by default) is
    False at deleted slots.  The rows are validated once for the whole batch,
    in row blocks (finite, square, symmetric and PSD within ``1e-10 *
    max(1, max|A|)``, ``offset >= 0``), dead slots' rows included.  float64
    arrays are kept uncopied and frozen, so the caller gives up writing to
    them; the mask is copied.
    """

    __slots__ = ("_mats", "_centers", "_offsets", "_lam_max", "_live")

    def __init__(
        self, mats: np.ndarray, centers: np.ndarray, offsets: np.ndarray | None = None,
        live: np.ndarray | None = None,
    ) -> None:
        mats = np.asarray(mats, dtype=np.float64)
        eigs = _check_curvatures(mats)
        horizon, dim = mats.shape[0], mats.shape[1]
        if horizon < 1 or dim < 1:
            raise InvalidInputError(f"need at least one d >= 1 loss, got shape {mats.shape}")
        centers = np.asarray(centers, dtype=np.float64)
        if centers.shape != (horizon, dim):
            raise InvalidInputError(f"expected centers of shape {(horizon, dim)}, got {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise InvalidInputError("vector has non-finite coordinates")
        offsets = np.zeros(horizon) if offsets is None else np.asarray(offsets, dtype=np.float64)
        if offsets.shape != (horizon,):
            raise InvalidInputError(f"expected offsets of shape {(horizon,)}, got {offsets.shape}")
        bad = ~(np.isfinite(offsets) & (offsets >= 0.0))
        if np.any(bad):
            raise InvalidInputError(f"offset must be nonnegative, got {offsets[bad][0]}")
        live = np.ones(horizon, dtype=bool) if live is None else np.array(live, dtype=bool)
        if live.shape != (horizon,):
            raise InvalidInputError(f"expected a live mask of shape {(horizon,)}, got {live.shape}")
        for arr in (mats, centers, offsets, live):
            arr.flags.writeable = False
        self._mats, self._centers, self._offsets, self._live = mats, centers, offsets, live
        self._lam_max = eigs[:, -1].copy()

    def _stacked(self, live: np.ndarray) -> "CostStream":
        """This stream's validated rows under another ``live`` mask, shared uncopied."""
        stream = copy.copy(self)
        live.flags.writeable = False
        stream._live = live
        return stream

    @property
    def live(self) -> np.ndarray:
        """Read-only mask, True where the slot holds a loss (False at a deleted slot)."""
        return self._live

    def __len__(self) -> int:
        return self._live.size

    def lipschitz_bound(self, dom: BallDomain) -> float:
        """Certified gradient-norm bound over the ball, the largest over the live losses.

        ``sup_{z in K} ||A_t (z - c_t)|| <= lambda_max(A_t) * (R + ||c_t||)``;
        ``sqrt(vecdot(c, c))`` is ``np.linalg.norm(c)`` bit for bit
        (``norm(centers, axis=1)`` would not be).
        """
        every = self._live.all()
        centers = self._centers if every else self._centers[self._live]
        lam_max = self._lam_max if every else self._lam_max[self._live]
        bounds = lam_max * (dom.radius + np.sqrt(np.vecdot(centers, centers)))
        return float(np.max(bounds))


@dataclass(frozen=True)
class DeletionSchedule:
    """Deletion requests ``(u_i, tau_i)``: forget the loss at index ``u_i`` at time ``tau_i``.

    Requires ``u_i <= tau_i``, strictly increasing times, and distinct indices.
    """

    entries: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        entries = tuple((int(u), int(tau)) for u, tau in self.entries)
        seen_u = set()
        prev_tau = 0
        for u, tau in entries:
            if u < 1 or tau < 1:
                raise InvalidScheduleError(f"entries must use 1-based times, got ({u}, {tau})")
            if u > tau:
                raise InvalidScheduleError(f"deletion index {u} after its deletion time {tau}")
            if tau <= prev_tau:
                raise InvalidScheduleError("deletion times must be strictly increasing")
            if u in seen_u:
                raise InvalidScheduleError(f"deletion index {u} repeated")
            seen_u.add(u)
            prev_tau = tau
        object.__setattr__(self, "entries", entries)

    @property
    def k(self) -> int:
        return len(self.entries)

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(u for u, _ in self.entries)

    @property
    def times(self) -> Tuple[int, ...]:
        return tuple(tau for _, tau in self.entries)

    def validate_horizon(self, horizon: int) -> None:
        if self.k and self.times[-1] > horizon:
            raise InvalidScheduleError(
                f"deletion time {self.times[-1]} exceeds the horizon {horizon}"
            )


EMPTY_SCHEDULE = DeletionSchedule(())


def stack_quadratics(stream: CostStream) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stream's stacked read-only form ``(matrices, centers, offsets, live)``.

    Rows of deleted slots carry no meaning (a retained stream keeps the
    deleted rows and clears only ``live``), so read them through ``live``.
    """
    return stream._mats, stream._centers, stream._offsets, stream._live


def retained(stream: CostStream, schedule: DeletionSchedule, upto: int | None = None) -> CostStream:
    """Stream with the first ``upto`` deleted indices cleared from ``live`` (all by default).

    The result shares the stream's rows and gets its own copy of the
    ``live`` mask only.  A stream with no live slot is its own result.
    """
    count = schedule.k if upto is None else upto
    if not 0 <= count <= schedule.k:
        raise InvalidScheduleError(f"cannot retain {count} of {schedule.k} deletions")
    schedule.validate_horizon(len(stream))
    dropped = [u - 1 for u in schedule.indices[:count]]
    for u in schedule.indices[:count]:
        if u > len(stream):
            raise InvalidScheduleError(f"deleted index {u} beyond the stream length {len(stream)}")
    if not stream.live.any():
        return stream
    live = stream.live.copy()
    live[dropped] = False
    return stream._stacked(live)
