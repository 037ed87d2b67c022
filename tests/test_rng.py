import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from online_unlearning.rng import event_normals, noise_generator

ROOT = Path(__file__).resolve().parents[1]


def _imported_after(code: str) -> list:
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, mc_samples", [("run", 0), ("certify", 100)],
                         ids=["run", "certify-monte-carlo"])
def test_a_command_never_imports_scipy(tmp_path, command, mc_samples):
    raw = json.loads((ROOT / "configs" / "passive_sc.json").read_text())
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**raw, "mc_samples": mc_samples}))
    code = (
        "import json\n"
        "import online_unlearning.cli as cli\n"
        f"code = cli.main([{command!r}, '--config', {str(path)!r},\n"
        f"                 '--out', {str(tmp_path / 'out')!r}, '--seeds', '0'])\n"
        "print(json.dumps([code, 'scipy' in sys.modules]))\n"
    )
    assert _imported_after(code) == [0, False]


def test_noise_generator_replays():
    a = noise_generator(123, ())
    b = noise_generator(123, ())
    assert np.array_equal(a.standard_normal(7), b.standard_normal(7))
    assert np.array_equal(a.standard_normal(3), b.standard_normal(3))


def test_noise_generator_seed_sensitivity():
    assert not np.array_equal(noise_generator(1, ()).standard_normal(8),
                              noise_generator(2, ()).standard_normal(8))


def test_stream_separation():
    # A run's key (seed,) and Monte-Carlo's (seed, process, event) draw apart.
    base = noise_generator(5, ()).standard_normal(4)
    for stream in ((1,), (0, 1), (1, 1)):
        assert not np.array_equal(base, noise_generator(5, stream).standard_normal(4))


def test_event_normals_shard_alignment():
    # Blocks read from one generator in row order are the rows of one full draw.
    for dim in (1, 2, 3, 5, 8):
        full = noise_generator(42, (0, 3)).standard_normal((257, dim))
        gen = noise_generator(42, (0, 3))
        cuts = [0, 1, 40, 129, 200, 257]
        rebuilt = np.concatenate([
            event_normals(gen, np.empty((hi - lo, dim)))
            for lo, hi in zip(cuts[:-1], cuts[1:])
        ])
        assert np.array_equal(full, rebuilt)


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 8, 9])
@pytest.mark.parametrize("rows", [1, 7, 4097])
@pytest.mark.parametrize("row_offset", [0, 3])
def test_event_normals_into_buffers(dim, rows, row_offset):
    # ``row_offset`` rows drawn earlier from the same generator come first.
    expected = noise_generator(42, (1, 2)).standard_normal((row_offset + rows, dim))[row_offset:]
    for spare in (0, 5):
        gen = noise_generator(42, (1, 2))
        gen.standard_normal((row_offset, dim))
        buffer = np.empty((rows + spare, dim))
        got = event_normals(gen, buffer[:rows])
        assert got.shape == (rows, dim)
        assert got.tobytes() == expected.tobytes()
        assert np.shares_memory(got, buffer)


@pytest.mark.parametrize("dim", [1, 5, 9])
def test_event_normals_are_the_allocating_formula(dim):
    # The in-place draw equals numpy's allocating draw from the (seed, *stream) Philox key.
    expected = np.random.Generator(np.random.Philox(np.random.SeedSequence([42, 1, 2])))
    got = event_normals(noise_generator(42, (1, 2)), np.empty((257, dim)))
    assert got.tobytes() == expected.standard_normal((257, dim)).tobytes()


def test_reused_buffers_carry_nothing_over():
    buffer = np.empty((300, 5))
    event_normals(noise_generator(7, (0, 1)), buffer)
    got = event_normals(noise_generator(7, (1, 1)), buffer[:100])
    assert got.tobytes() == noise_generator(7, (1, 1)).standard_normal((100, 5)).tobytes()


def test_draws_look_standard_normal():
    # A run's draws and Monte-Carlo's alike.
    monte_carlo = event_normals(noise_generator(7, (0, 1)), np.empty((40_000, 5)))
    for draws in (noise_generator(7, ()).standard_normal(200_000), monte_carlo.ravel()):
        assert abs(float(np.mean(draws))) < 0.01
        assert abs(float(np.var(draws)) - 1.0) < 0.02
        ks = stats.kstest(draws[:10_000], "norm").pvalue
        assert ks > 1e-4
