"""Seeded Gaussian noise: replayable run draws and Monte-Carlo sample rows.

Noise uses counter-based Philox generators keyed by ``(seed, *stream)`` and
numpy's own normal sampler (``Generator.standard_normal``, a ziggurat).  A
run draws ``d`` normals per deletion, in event order, from the key
``(seed,)``, so a trace replays bit for bit from its seed.  Monte-Carlo
draws one generator per (process, event), keyed ``(seed, process, event)``
and read row after row.  The bits are tied to the numpy version.
"""

from __future__ import annotations

import numpy as np

__all__ = ["event_normals", "noise_generator"]


def noise_generator(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    """The Philox generator keyed by ``(seed, *stream)``."""
    key = np.random.SeedSequence([int(seed), *map(int, stream)])
    return np.random.Generator(np.random.Philox(key))


def event_normals(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``gen``'s next standard normals, written row after row into ``out``.

    Drawing ``m`` rows and then ``m'`` rows from one generator gives the same
    bits as drawing ``m + m'`` rows at once, so blocks read in row order
    reproduce one full batch.  ``out`` must be C-contiguous.
    """
    return gen.standard_normal(out=out)
