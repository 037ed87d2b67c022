"""Seeded Gaussian noise with replayable draws addressable by sample row.

Noise uses a counter-based Philox generator keyed by ``(seed, *stream)`` and
converts uniforms to standard normals through the inverse CDF.  Each noise
event consumes exactly ``d`` uniforms in event order, so a trace replays
bit-for-bit from its seed, and a Monte-Carlo row block can jump to its first
sample row with ``Philox.advance`` without generating the rows before it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = ["NoiseSource", "event_normals"]

# Affine squeeze of [0, 1) into (0, 1) so ndtri never sees an endpoint.  The
# distortion is one part in 2**53, far below any tolerance used here.
_SQUEEZE = 1.0 - 2.0 ** -53
_OFFSET = 2.0 ** -54


def _to_normals(uniforms: np.ndarray) -> np.ndarray:
    return ndtri(uniforms * _SQUEEZE + _OFFSET)


def _philox(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


class NoiseSource:
    """Sequential standard-normal draws for one run (single owner, not shared)."""

    def __init__(self, seed: int, stream: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self._gen = _philox(self.seed, tuple(int(s) for s in stream))

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals in the fixed consumption order."""
        return _to_normals(self._gen.random(count))


def event_normals(
    seed: int,
    stream: tuple[int, ...],
    rows: int,
    dim: int,
    row_offset: int = 0,
) -> np.ndarray:
    """Standard normals for ``rows`` samples of one noise event, ``dim`` each.

    Sample ``r`` always receives the same draws regardless of how callers
    split the row range into blocks.  ``Philox.advance`` jumps whole 4-word
    counter blocks, so each row is padded to a multiple of 4 uniforms and
    block starts land exactly on counter-block boundaries.
    """
    pad = 4 * ((dim + 3) // 4)
    bitgen = np.random.Philox(np.random.SeedSequence([int(seed), *map(int, stream)]))
    if row_offset:
        bitgen.advance(row_offset * pad // 4)
    gen = np.random.Generator(bitgen)
    return _to_normals(gen.random((rows, pad))[:, :dim])
