import json

import numpy as np
import pytest

from online_unlearning import BallDomain, CostStream, FnClass, QuadraticCost


def quad(matrix, center, offset=0.0) -> QuadraticCost:
    return QuadraticCost(
        matrix=np.asarray(matrix, dtype=float),
        center=np.asarray(center, dtype=float),
        offset=offset,
    )


def iso_quad(scale, center, dim=None) -> QuadraticCost:
    center = np.asarray(center, dtype=float)
    d = center.size if dim is None else dim
    return quad(scale * np.eye(d), center)


def random_spd_quad(rng, dim, mu, beta, center_radius):
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


def strict_json(text: str):
    """``json.loads`` that refuses the non-standard NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def stream_of(items) -> CostStream:
    return CostStream(tuple(items))


@pytest.fixture
def unit_ball() -> BallDomain:
    return BallDomain(1.0)


@pytest.fixture
def sc_class() -> FnClass:
    return FnClass(lipschitz=4.5, smoothness=3.0, strong_convexity=1.0)
