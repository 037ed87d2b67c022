import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from online_unlearning.rng import NoiseSource, event_buffers, event_normals


def test_noise_source_replays():
    a = NoiseSource(123)
    b = NoiseSource(123)
    assert np.array_equal(a.normals(7), b.normals(7))
    assert np.array_equal(a.normals(3), b.normals(3))


def test_noise_source_seed_sensitivity():
    assert not np.array_equal(NoiseSource(1).normals(8), NoiseSource(2).normals(8))


def test_stream_separation():
    base = NoiseSource(5).normals(4)
    other = NoiseSource(5, stream=(1,)).normals(4)
    assert not np.array_equal(base, other)


def test_event_normals_shard_alignment():
    for dim in (1, 2, 3, 5, 8):
        full = event_normals(42, (0, 3), 257, dim, 0)
        cuts = [0, 1, 40, 129, 200, 257]
        rebuilt = np.concatenate([
            event_normals(42, (0, 3), hi - lo, dim, lo)
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ])
        assert np.array_equal(full, rebuilt)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("rows", [1, 7, 4097])
@pytest.mark.parametrize("row_offset", [0, 3])
def test_event_normals_into_buffers(dim, rows, row_offset):
    expected = event_normals(42, (1, 2), rows, dim, row_offset)
    for spare in (0, 5):
        buffers = event_buffers(rows + spare, dim)
        got = event_normals(42, (1, 2), rows, dim, row_offset, buffers)
        assert got.shape == (rows, dim)
        assert got.tobytes() == expected.tobytes()
        assert np.shares_memory(got, buffers[1])


@pytest.mark.parametrize("dim", [1, 5, 9])
def test_event_normals_are_the_allocating_formula(dim):
    # The in-place steps equal ndtri(u * squeeze + offset) on fresh arrays, bit for bit.
    pad = 4 * ((dim + 3) // 4)
    bitgen = np.random.Philox(np.random.SeedSequence([42, 1, 2]))
    bitgen.advance(3 * pad // 4)
    uniforms = np.random.Generator(bitgen).random((257, pad))[:, :dim]
    expected = ndtri(uniforms * (1.0 - 2.0 ** -53) + 2.0 ** -54)
    got = event_normals(42, (1, 2), 257, dim, 3, event_buffers(257, dim))
    assert got.tobytes() == expected.tobytes()


def test_reused_buffers_carry_nothing_over():
    buffers = event_buffers(300, 5)
    event_normals(7, (0, 1), 300, 5, 0, buffers)
    got = event_normals(7, (1, 1), 100, 5, 200, buffers)
    assert got.tobytes() == event_normals(7, (1, 1), 100, 5, 200).tobytes()


def test_draws_look_standard_normal():
    draws = NoiseSource(7).normals(200_000)
    assert abs(float(np.mean(draws))) < 0.01
    assert abs(float(np.var(draws)) - 1.0) < 0.02
    # Inverse-CDF transform should give excellent tail agreement.
    ks = stats.kstest(draws[:10_000], "norm").pvalue
    assert ks > 1e-4
