"""Seeded Gaussian noise: replayable run draws and Monte-Carlo sample rows.

Noise uses counter-based Philox generators keyed by ``(seed, *stream)``.  A
run draws only ``d`` normals per deletion, in event order, through
``_ndtri``, a scalar transcription of the Cephes ``ndtri``, applied to
the generator's uniforms; so a trace replays bit for bit from its seed.

Monte-Carlo draws millions of normals straight from numpy's own sampler
(``Generator.standard_normal``, a ziggurat), one generator per (process,
event) read row after row; their bits are tied to the numpy version.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["NoiseSource", "event_normals", "noise_generator"]

# Affine squeeze of [0, 1) into (0, 1) so ndtri never sees an endpoint.  The
# distortion is one part in 2**53, far below any tolerance used here.
_SQUEEZE = 1.0 - 2.0 ** -53
_OFFSET = 2.0 ** -54

# Cephes ndtri (S. L. Moshier): a rational form in (y - 0.5)**2 for
# exp(-2) < y < 1 - exp(-2), and rational forms in 1/x, x = sqrt(-2 log y),
# on 2 <= x < 8 and 8 <= x <= 64.  The Q rows write out the leading 1 that
# Cephes ``p1evl`` implies: ``1.0 * x + q`` is ``x + q`` exactly.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242E0
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1, -5.66762857469070293439E1,
       1.39312609387279679503E1, -1.23916583867381258016E0)
_Q0 = (1.0, 1.95448858338141759834E0, 4.67627912898881538453E0, 8.63602421390890590575E1,
       -2.25462687854119370527E2, 2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1, 5.71628192246421288162E1,
       4.40805073893200834700E1, 1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2, -8.57456785154685413611E-4)
_Q1 = (1.0, 1.57799883256466749731E1, 4.53907635128879210584E1, 4.13172038254672030440E1,
       1.50425385692907503408E1, 2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0, 3.93881025292474443415E0,
       1.33303460815807542389E0, 2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6, 6.23974539184983293730E-9)
_Q2 = (1.0, 6.02427039364742014255E0, 3.67983563856160859403E0, 1.37702099489081330271E0,
       2.16236993594496635890E-1, 1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner's rule, highest power first, as Cephes ``polevl``."""
    acc = coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _ndtri(y: float) -> float:
    """Standard normal quantile of ``0 < y < 1``, the same bits as the C Cephes ``ndtri``."""
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_P1, _Q1) if x < 8.0 else (_P2, _Q2)  # x < 8 is y > exp(-32)
    x = x0 - z * _polevl(z, p) / _polevl(z, q)
    return -x if negate else x


def noise_generator(seed: int, stream: tuple[int, ...]) -> np.random.Generator:
    """The Philox generator keyed by ``(seed, *stream)``."""
    key = np.random.SeedSequence([int(seed), *map(int, stream)])
    return np.random.Generator(np.random.Philox(key))


class NoiseSource:
    """Sequential standard-normal draws for one run (single owner, not shared)."""

    def __init__(self, seed: int, stream: tuple[int, ...] = ()) -> None:
        self.seed = int(seed)
        self._gen = noise_generator(self.seed, stream)

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals in the fixed consumption order."""
        draws = self._gen.random(count).tolist()
        return np.array([_ndtri(u * _SQUEEZE + _OFFSET) for u in draws])


def event_normals(gen: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``gen``'s next standard normals, written row after row into ``out``.

    Drawing ``m`` rows and then ``m'`` rows from one generator gives the same
    bits as drawing ``m + m'`` rows at once, so blocks read in row order
    reproduce one full batch.  ``out`` must be C-contiguous.
    """
    return gen.standard_normal(out=out)
