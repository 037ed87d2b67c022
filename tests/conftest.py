import json

import numpy as np
import pytest

from online_unlearning import BallDomain, CostStream, DeletionSchedule, FnClass, comparators
from online_unlearning.core import EMPTY_SCHEDULE, as_point, stack_quadratics
from online_unlearning.engine import StepEngine
from online_unlearning.ogd import ConstantRate


def quad(matrix, center, offset=0.0) -> tuple:
    """One loss row ``(matrix, center, offset)``: ``f(z) = 0.5 (z - c)^T A (z - c) + offset``."""
    return np.asarray(matrix, dtype=float), np.asarray(center, dtype=float), float(offset)


def iso_quad(scale, center, dim=None) -> tuple:
    center = np.asarray(center, dtype=float)
    d = center.size if dim is None else dim
    return quad(scale * np.eye(d), center)


def random_spd_quad(rng, dim, mu, beta, center_radius) -> tuple:
    raw = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    q = q * np.sign(np.diag(r))
    eigs = rng.uniform(mu, beta, size=dim)
    mat = (q * eigs) @ q.T
    mat = 0.5 * (mat + mat.T)
    direction = rng.standard_normal(dim)
    direction /= max(np.linalg.norm(direction), 1e-12)
    center = direction * center_radius * rng.random()
    return quad(mat, center)


def loss_and_grad(row, z) -> tuple:
    """``(f(z), grad f(z))`` of one loss row."""
    matrix, center, offset = row
    diff = np.asarray(z, dtype=float) - center
    grad = matrix @ diff
    return 0.5 * float(diff @ grad) + offset, grad


def strict_json(text: str):
    """``json.loads`` that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def stream_of(rows) -> CostStream:
    """Stack loss rows into one stream; ``None`` marks a deleted slot (zero rows, not live)."""
    rows = list(rows)
    horizon, dim = len(rows), next(row for row in rows if row is not None)[1].size
    mats, centers = np.zeros((horizon, dim, dim)), np.zeros((horizon, dim))
    offsets = np.zeros(horizon)
    for t, row in enumerate(rows):
        if row is not None:
            mats[t], centers[t], offsets[t] = row
    return CostStream(mats, centers, offsets, live=[row is not None for row in rows])


def row_at(stream, t) -> tuple:
    """The loss row at 1-based step ``t``, or ``None`` at a deleted slot."""
    mats, centers, offsets, live = stack_quadratics(stream)
    return (mats[t - 1], centers[t - 1], float(offsets[t - 1])) if live[t - 1] else None


def rows_of(stream) -> list:
    """Every step's loss row, ``None`` at deleted slots: what ``stream_of`` takes."""
    return [row_at(stream, t) for t in range(1, len(stream) + 1)]


def erm_pair(rows, removed, dom) -> tuple:
    """The minimizers over all ``rows`` and over those left after the 0-based ``removed``.

    Both are comparators of one run: removing rows is a schedule of ``(u, u)`` deletions.
    """
    sched = DeletionSchedule(tuple((int(u) + 1, int(u) + 1) for u in sorted(removed)))
    comps = comparators(stream_of(rows), sched, dom)
    return comps[0], comps[-1]


def engine_step(row, z, eta, dom) -> np.ndarray:
    """``z`` after one step of the package's step loop on ``row`` (``None``: a deleted slot)."""
    filler = iso_quad(1.0, np.zeros(np.size(z)))  # a live slot, which every run needs
    engine = StepEngine(stream_of([row, filler]), EMPTY_SCHEDULE, ConstantRate(eta=eta), dom)
    engine.z = dom.project(as_point(z, engine.dim))
    engine.advance(1, 1)
    return engine.z


@pytest.fixture
def unit_ball() -> BallDomain:
    return BallDomain(1.0)


@pytest.fixture
def sc_class() -> FnClass:
    return FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
