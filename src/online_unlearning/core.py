"""Domain types for streamed convex losses with deletion requests.

Everything here is an immutable value object: points are read-only float64
arrays, cost functions freeze their coefficient arrays at construction, and
schedules are tuples.  Mutating operations always return new objects, so
values can be shared freely between concurrent runs.

A quadratic stream is one stacked, read-only array form: curvatures
``mats (T, d, d)``, ``centers (T, d)``, ``offsets (T,)`` and a ``live (T,)``
mask that is False at SKIP slots.  ``CostStream.from_arrays`` validates the
whole batch once, in row blocks (finite, square, symmetric, PSD,
``offset >= 0``).  The per-step ``QuadraticCost`` objects that ``items``
and ``item_at`` hand out are views of the rows, built once on first access
and shared, unvalidated
(their rows already were), by every stream retained from this one; so
``retained`` copies only the ``live`` mask, and a kept slot yields the very
same object in both streams.  Hot loops read the arrays and the mask
directly (``stack_quadratics``, ``CostStream.live``).  A stream built from
items stacks itself on first use; its views are the items themselves.
Every stream is of this form: its items are ``QuadraticCost`` or ``SKIP``.

Time indices are 1-based throughout the public API (step ``t`` runs from 1 to
``T``); only raw array access converts to 0-based offsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Tuple, Union

import numpy as np

from .errors import InvalidInputError, InvalidScheduleError, NumericError

__all__ = [
    "BallDomain",
    "CostFn",
    "CostStream",
    "DeletionSchedule",
    "FnClass",
    "QuadraticCost",
    "SKIP",
    "StreamItem",
    "as_point",
    "class_bound_lipschitz",
    "cost_value",
    "decode_vector",
    "encode_vector",
    "eval_grad",
    "is_skip",
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


@dataclass(frozen=True)
class BallDomain:
    """Centered Euclidean ball of the given radius; diameter is ``2 * radius``."""

    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise InvalidInputError(f"ball radius must be positive and finite, got {self.radius}")

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
    return _into_ball(arr, dom.radius)[0]


def _into_ball(x: np.ndarray, radius: float) -> Tuple[np.ndarray, bool]:
    """Rescale ``x`` into the ball of ``radius`` iff it lies outside; reports whether it did.

    Rounding can leave the rescaled point an ulp outside, so the rescale
    repeats until it is inside: projection is then exactly idempotent.  A
    NaN or infinite norm never passes ``norm <= radius``, so the slow path
    alone raises ``NumericError`` for it.
    """
    norm = _norm(x)
    if norm <= radius:
        return x, False
    if not math.isfinite(norm):
        raise NumericError("non-finite iterate")
    while norm > radius:
        x = x * (radius / norm)
        norm = _norm(x)
    return x, True


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


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


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


@dataclass(frozen=True, eq=False, slots=True)
class QuadraticCost:
    """Loss ``f(z) = 0.5 (z - center)^T matrix (z - center) + offset``.

    ``matrix`` must be symmetric PSD (both within ``1e-10 * max(1, max|A|)``);
    ``offset >= 0`` keeps losses nonnegative.
    """

    matrix: np.ndarray
    center: np.ndarray
    offset: float = 0.0

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.float64)
        if mat.ndim != 2:
            raise InvalidInputError(f"curvature matrix must be square, got shape {mat.shape}")
        _check_curvatures(mat[None])
        center = as_point(self.center, dim=mat.shape[0])
        if not (math.isfinite(self.offset) and self.offset >= 0.0):
            raise InvalidInputError(f"offset must be nonnegative, got {self.offset}")
        object.__setattr__(self, "matrix", _freeze(mat))
        object.__setattr__(self, "center", center)

    @classmethod
    def _view(cls, matrix: np.ndarray, center: np.ndarray, offset: float) -> "QuadraticCost":
        """Wrap rows of a validated, read-only stack without copying or re-checking."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "matrix", matrix)
        object.__setattr__(obj, "center", center)
        object.__setattr__(obj, "offset", offset)
        return obj

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, z: np.ndarray) -> float:
        diff = np.asarray(z, dtype=np.float64) - self.center
        return 0.5 * float(diff @ (self.matrix @ diff)) + self.offset

    def gradient(self, z: np.ndarray) -> np.ndarray:
        diff = np.asarray(z, dtype=np.float64) - self.center
        return self.matrix @ diff


class _Skip:
    """Deleted-slot marker: the learner holds its output and ignores the slot."""

    _instance: "_Skip | None" = None

    def __new__(cls) -> "_Skip":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "SKIP"


SKIP = _Skip()

CostFn = QuadraticCost
StreamItem = Union[QuadraticCost, _Skip]


def is_skip(item: StreamItem) -> bool:
    return item is SKIP


def eval_grad(f: CostFn, z: np.ndarray) -> Tuple[float, np.ndarray]:
    """Evaluate a cost and its gradient at ``z`` (caller projects first)."""
    if is_skip(f):
        raise InvalidInputError("cannot evaluate the skip marker")
    z_arr = np.asarray(z, dtype=np.float64)
    if z_arr.shape != f.center.shape:
        raise InvalidInputError(
            f"dimension mismatch: point has shape {z_arr.shape}, cost expects {f.center.shape}"
        )
    diff = z_arr - f.center
    grad = f.matrix @ diff
    return 0.5 * float(diff @ grad) + f.offset, grad


def cost_value(f: CostFn, z: np.ndarray) -> float:
    """Evaluate a cost without forming its gradient."""
    return f.value(z)


def class_bound_lipschitz(f: CostFn, dom: BallDomain) -> float:
    """Certified gradient-norm bound for a quadratic over the ball.

    ``sup_{z in K} ||A (z - c)|| <= lambda_max(A) * (R + ||c||)``.
    """
    lam_max = float(np.linalg.eigvalsh(f.matrix)[-1])
    return lam_max * (dom.radius + float(np.linalg.norm(f.center)))


class _Rows:
    """Read-only stacked rows of a quadratic stream, shared with its retained streams.

    ``views`` holds one ``QuadraticCost`` per row (SKIP for rows that never
    held a cost) and is built on first access; ``lam_max`` holds each row's
    largest eigenvalue once something has asked for it.
    """

    __slots__ = ("mats", "centers", "offsets", "_views", "_lam_max")

    def __init__(self, mats, centers, offsets, views=None, lam_max=None) -> None:
        for arr in (mats, centers, offsets):
            arr.flags.writeable = False
        self.mats = mats
        self.centers = centers
        self.offsets = offsets
        self._views = views
        self._lam_max = lam_max

    @property
    def views(self) -> tuple:
        if self._views is None:
            self._views = tuple(
                QuadraticCost._view(mat, center, offset)
                for mat, center, offset in zip(self.mats, self.centers, self.offsets.tolist())
            )
        return self._views

    @property
    def lam_max(self) -> np.ndarray:
        if self._lam_max is None:
            self._lam_max = np.linalg.eigvalsh(self.mats)[:, -1]
        return self._lam_max


class CostStream:
    """Ordered quadratic losses (or SKIP markers) revealed one per time step.

    Built from items (``CostStream(items)``) or from stacked arrays
    (``CostStream.from_arrays``); either way the stream reads as the stacked
    form of the module docstring.
    """

    __slots__ = ("_items", "_rows", "_live")

    def __init__(self, items: Iterable[StreamItem]) -> None:
        self._items = tuple(items)
        for t, item in enumerate(self._items, start=1):
            if not (is_skip(item) or isinstance(item, QuadraticCost)):
                raise InvalidInputError(f"stream item {t} is not a QuadraticCost or SKIP: {item!r}")
        self._rows: _Rows | None = None
        self._live: np.ndarray | None = None

    @classmethod
    def from_arrays(
        cls, mats: np.ndarray, centers: np.ndarray, offsets: np.ndarray | None = None
    ) -> "CostStream":
        """All-live quadratic stream ``f_t(z) = 0.5 (z - c_t)^T A_t (z - c_t) + o_t``.

        The arrays are copied and validated once for the whole batch, in
        row blocks, with the same checks and errors as ``QuadraticCost``.
        """
        return cls._adopt(mats, centers, offsets, copy=True)

    @classmethod
    def _adopt(
        cls, mats: np.ndarray, centers: np.ndarray, offsets: np.ndarray | None = None,
        copy: bool | None = None,
    ) -> "CostStream":
        """``from_arrays`` for float64 arrays the caller hands over: it keeps them, uncopied.

        ``copy`` is ``np.array``'s (``None`` copies only what is not float64
        already).  The stream freezes what it keeps, so the caller gives up
        writing to it.
        """
        mats = np.array(mats, dtype=np.float64, copy=copy)
        eigs = _check_curvatures(mats)
        horizon, dim = mats.shape[0], mats.shape[1]
        if horizon < 1 or dim < 1:
            raise InvalidInputError(f"need at least one d >= 1 loss, got shape {mats.shape}")
        centers = np.array(centers, dtype=np.float64, copy=copy)
        if centers.shape != (horizon, dim):
            raise InvalidInputError(f"expected centers of shape {(horizon, dim)}, got {centers.shape}")
        if not np.all(np.isfinite(centers)):
            raise InvalidInputError("vector has non-finite coordinates")
        if offsets is None:
            offsets = np.zeros(horizon)
        offsets = np.array(offsets, dtype=np.float64, copy=copy)
        if offsets.shape != (horizon,):
            raise InvalidInputError(f"expected offsets of shape {(horizon,)}, got {offsets.shape}")
        bad = ~(np.isfinite(offsets) & (offsets >= 0.0))
        if np.any(bad):
            raise InvalidInputError(f"offset must be nonnegative, got {offsets[bad][0]}")
        live = np.ones(horizon, dtype=bool)
        return cls._stacked(_Rows(mats, centers, offsets, lam_max=eigs[:, -1].copy()), live)

    @classmethod
    def _stacked(cls, rows: _Rows, live: np.ndarray) -> "CostStream":
        live.flags.writeable = False
        stream = cls.__new__(cls)
        stream._items = None
        stream._rows = rows
        stream._live = live
        return stream

    @property
    def items(self) -> Tuple[StreamItem, ...]:
        if self._items is None:
            views = self._rows.views
            self._items = views if self._live.all() else tuple(
                view if keep else SKIP for view, keep in zip(views, self._live.tolist())
            )
        return self._items

    @property
    def live(self) -> np.ndarray:
        """Read-only mask, True where the slot holds a cost (not SKIP)."""
        if self._live is None:
            live = np.array([not is_skip(it) for it in self._items], dtype=bool)
            live.flags.writeable = False
            self._live = live
        return self._live

    def __len__(self) -> int:
        return len(self._items) if self._items is not None else self._live.size

    def __iter__(self) -> Iterator[StreamItem]:
        return iter(self.items)

    def item_at(self, t: int) -> StreamItem:
        """Item revealed at 1-based time ``t``."""
        if not 1 <= t <= len(self):
            raise InvalidInputError(f"time {t} outside the horizon [1, {len(self)}]")
        return self.items[t - 1]

    def _quadratic_rows(self) -> _Rows:
        """The stacked rows; a stream built from items stacks itself here, once."""
        if self._rows is not None:
            return self._rows
        probe = next((it for it in self._items if not is_skip(it)), None)
        if probe is None:
            raise InvalidInputError("stream has no cost items")
        horizon = len(self)
        dim = probe.dim
        mats = np.zeros((horizon, dim, dim))
        centers = np.zeros((horizon, dim))
        offsets = np.zeros(horizon)
        for t, item in enumerate(self._items):
            if is_skip(item):
                continue
            if item.dim != dim:
                raise InvalidInputError(f"stream mixes dimensions {dim} and {item.dim}")
            mats[t] = item.matrix
            centers[t] = item.center
            offsets[t] = item.offset
        self._rows = _Rows(mats, centers, offsets, views=self._items)
        return self._rows

    def lipschitz_bound(self, dom: BallDomain) -> float:
        """Largest ``class_bound_lipschitz`` over the live losses, in one batch.

        Bit-identical to the per-item maximum: the batched ``eigvalsh``
        matches the per-matrix one, and ``sqrt(vecdot(c, c))`` matches
        ``np.linalg.norm(c)`` (``norm(centers, axis=1)`` would not).
        """
        rows = self._quadratic_rows()
        every = self.live.all()
        centers = rows.centers if every else rows.centers[self.live]
        lam_max = rows.lam_max if every else rows.lam_max[self.live]
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

    Rows of SKIP slots carry no meaning (a retained stream keeps the deleted
    rows and clears only ``live``), so read them through ``live``.  Raises
    for a stream with no cost items.
    """
    rows = stream._quadratic_rows()
    return rows.mats, rows.centers, rows.offsets, stream.live


def retained(stream: CostStream, schedule: DeletionSchedule, upto: int | None = None) -> CostStream:
    """Stream with the first ``upto`` deleted indices replaced by SKIP (all by default).

    The result shares the stream's rows and views and gets its own copy of
    the ``live`` mask only.  A stream with no cost items is its own result.
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
    return CostStream._stacked(stream._quadratic_rows(), live)
