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

__all__ = ["NoiseSource", "event_buffers", "event_normals"]

# Affine squeeze of [0, 1) into (0, 1) so ndtri never sees an endpoint.  The
# distortion is one part in 2**53, far below any tolerance used here.
_SQUEEZE = 1.0 - 2.0 ** -53
_OFFSET = 2.0 ** -54


def _to_normals(uniforms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ndtri(uniforms * _SQUEEZE + _OFFSET)`` written into ``out``, bit for bit."""
    np.multiply(uniforms, _SQUEEZE, out=out)
    out += _OFFSET
    return ndtri(out, out=out)


def _philox(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *stream])))


class NoiseSource:
    """Sequential standard-normal draws for one run (single owner, not shared)."""

    def __init__(self, seed: int, stream: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self._gen = _philox(self.seed, tuple(int(s) for s in stream))

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals in the fixed consumption order."""
        draws = self._gen.random(count)
        return _to_normals(draws, draws)


def event_buffers(rows: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """An ``(uniforms, normals)`` pair that ``event_normals`` can draw up to ``rows`` rows into."""
    return np.empty((rows, 4 * ((dim + 3) // 4))), np.empty((rows, dim))


def event_normals(
    seed: int,
    stream: tuple[int, ...],
    rows: int,
    dim: int,
    row_offset: int = 0,
    buffers: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Standard normals for ``rows`` samples of one noise event, ``dim`` each.

    Sample ``r`` always receives the same draws regardless of how callers
    split the row range into blocks.  ``Philox.advance`` jumps whole 4-word
    counter blocks, so each row is padded to a multiple of 4 uniforms and
    block starts land exactly on counter-block boundaries.

    ``buffers`` is a pair from ``event_buffers`` with at least ``rows`` rows.
    The draws land in it and the result is a view of its ``normals``, so a
    caller that passes the same pair for every block allocates nothing per
    block.  Without it a pair is allocated for this call; the draws are the
    same bits either way.  The normals get a contiguous buffer of their own,
    because the inverse CDF runs slower on the strided ``uniforms[:, :dim]``.
    """
    uniforms, normals = buffers or event_buffers(rows, dim)
    uniforms, normals = uniforms[:rows], normals[:rows]
    pad = uniforms.shape[1]
    bitgen = np.random.Philox(np.random.SeedSequence([int(seed), *map(int, stream)]))
    if row_offset:
        bitgen.advance(row_offset * pad // 4)
    np.random.Generator(bitgen).random(out=uniforms)
    return _to_normals(uniforms[:, :dim], normals)
