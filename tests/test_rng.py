import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from online_unlearning.rng import NoiseSource, _ndtri, event_buffers, event_normals

ROOT = Path(__file__).resolve().parents[1]
SQUEEZE, OFFSET = 1.0 - 2.0 ** -53, 2.0 ** -54


def _assert_scalar_ndtri_is_scipys(ys: np.ndarray) -> None:
    got = np.array([_ndtri(y) for y in ys.tolist()])
    assert np.array_equal(got.view(np.int64), ndtri(ys).view(np.int64))


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([np.nextafter(values, 0.0), values, np.nextafter(values, 1.0)])


def test_scalar_ndtri_at_the_squeeze_endpoints():
    _assert_scalar_ndtri_is_scipys(np.array([OFFSET, 1.0 - 2.0 ** -53]))


def test_scalar_ndtri_at_the_branch_edges():
    # exp(-2) and 1 - exp(-2) switch to the tail forms; exp(-32) is the x < 8 switch.
    edges = [math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0), 1.0 - math.exp(-32.0)]
    _assert_scalar_ndtri_is_scipys(_with_neighbours(edges))


def test_scalar_ndtri_on_squeezed_uniforms():
    uniforms = np.random.default_rng(0).random(100_000)
    _assert_scalar_ndtri_is_scipys(uniforms * SQUEEZE + OFFSET)


def test_scalar_ndtri_in_the_deep_tails():
    tails = np.exp(-np.random.default_rng(1).uniform(0.0, 740.0, 20_000))
    upper = 1.0 - tails
    _assert_scalar_ndtri_is_scipys(np.concatenate([tails, upper[upper < 1.0]]))


@pytest.mark.parametrize("seed", [0, 1, 17, 2**40])
def test_noise_source_is_the_old_vectorised_formula(seed):
    noise = NoiseSource(seed)
    uniforms = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    for count in (1, 2, 5, 20, 0, 3):
        expected = ndtri(uniforms.random(count) * SQUEEZE + OFFSET)
        got = noise.normals(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert got.tobytes() == expected.tobytes()


def _imported_after(code: str) -> list:
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_a_run_without_monte_carlo_never_imports_scipy(tmp_path):
    code = (
        "import json\n"
        "import online_unlearning.cli as cli\n"
        f"code = cli.main(['run', '--config', {str(ROOT / 'configs' / 'passive_sc.json')!r},\n"
        f"                 '--out', {str(tmp_path)!r}, '--seeds', '0'])\n"
        "print(json.dumps([code, 'scipy' in sys.modules]))\n"
    )
    assert _imported_after(code) == [0, False]


def test_loading_a_monte_carlo_config_imports_scipy_special(tmp_path):
    raw = json.loads((ROOT / "configs" / "passive_sc.json").read_text())
    path = tmp_path / "mc.json"
    path.write_text(json.dumps({**raw, "mc_samples": 100}))
    code = (
        "import json\n"
        "from online_unlearning.harness import ExperimentConfig\n"
        "before = 'scipy' in sys.modules\n"
        f"ExperimentConfig.from_file({str(path)!r})\n"
        "print(json.dumps([before, 'scipy.special' in sys.modules]))\n"
    )
    assert _imported_after(code) == [False, True]


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
