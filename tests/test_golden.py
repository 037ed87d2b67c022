"""Golden output hashes: every byte a small run writes, pinned by sha256.

One config per algorithm (passive, active, retrain, discard) and one per
stream kind (sc-quadratic, convex-qg, assumption2-segments), at T = 300, run
through ``run_experiment`` exactly as the CLI does.  The passive config also
runs the Monte-Carlo check, so ``cert.json`` pins the MC estimates too.

The hashes were taken with numpy 2.4.6 on scipy-openblas (OpenBLAS 0.3.31,
Haswell kernels).  Outputs are 17-significant-digit decimals of float64
results, so another BLAS build or numpy release may legitimately move a last
digit; re-pin only after checking that the difference is reassociation, and
say so in CHANGES.md.
"""

import copy
import hashlib

import pytest

from online_unlearning.harness import ExperimentConfig, run_experiment

_BASE = {
    "dimension": 3,
    "horizon": 300,
    "radius": 1.0,
    "stream": {"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
    "schedule": {"kind": "pattern", "k": 3, "gap": 20, "spacing": 75, "first_time": 75},
    "algorithm": "passive",
    "rate": {"kind": "sc-decreasing"},
    "unlearner": {"alpha": 2.0, "eps": 0.5, "omega": 1.2, "gamma_mode": "per-step-product"},
    "seeds": [0],
    "mc_samples": 0,
}


def _config(**overrides) -> dict:
    raw = copy.deepcopy(_BASE)
    raw.update(overrides)
    return raw


CONFIGS = {
    "passive-sc": _config(mc_samples=2000),
    "active-sc": _config(algorithm="active"),
    "retrain-sc": _config(algorithm="retrain"),
    "discard-sc": _config(algorithm="discard"),
    "passive-convex-qg": _config(
        stream={"kind": "convex-qg", "beta": 1.0}, rate={"kind": "convex-decreasing"}
    ),
    "active-assumption2": _config(
        stream={"kind": "assumption2-segments", "mu": 1.0, "beta": 3.0}, algorithm="active"
    ),
}

GOLDEN = {
    "active-assumption2": {
        "0/cert.json":
            "57bf1781c00671d05689d4d7054516292c280d2ef0c3cda17953b44ea53db9cd",
        "0/regret.json":
            "61901c143241d4399f16b23fa6f76452bfc71af00b51922beb5332038e4a09e1",
        "0/regret_curve.csv":
            "2d004a1b85acac7dee7bf23efc516342d6689ce14ccf973074e9c621cd2fb1d8",
        "0/run.json":
            "7282f2b347458531f02d6de3efec276b9d1f7f83faf59b6fb690a304e0b11898",
        "0/trace.csv":
            "a19a98d09df497a0f2b95fade3f90cd140ee9b3863968a2ad118cadf89a09b96",
        "summary.json":
            "59f4dbd2199b845234d2a3b2ecbe77d9a2e6e4c22f3875c2123e17316bd9ceb0",
    },
    "active-sc": {
        "0/cert.json":
            "57bf1781c00671d05689d4d7054516292c280d2ef0c3cda17953b44ea53db9cd",
        "0/regret.json":
            "f116660047f63276b1c7756f45d8d114632684b21144ef1e842db92d802bb030",
        "0/regret_curve.csv":
            "cd4c7b2df7b341324b1c6073e25c9efbc17592d7a6ad983ac2f702a8f4093dbf",
        "0/run.json":
            "446a0f7407f82d31cb3055bcced32677cf70df4be272d53ebe2fc304aa7c9ad6",
        "0/trace.csv":
            "011fd0dee0e2c30a8971cfff95a38814ec837d0069e3917c73108a780b8b344a",
        "summary.json":
            "62de8feabee733097f42601e01b51ff2cd761177e593ce033c61c777e9dba404",
    },
    "discard-sc": {
        "0/regret.json":
            "08900e232693509ad5f020d066c6e9af1d26af525b314c160c36a6bba5bb83bd",
        "0/regret_curve.csv":
            "ba32d95c6a7d7918e1be71876ae02edb1bc1ccd301b4ab741443f40594396b11",
        "0/run.json":
            "910cbeb0cc999e7b77e68c8c4068e7d665a68bc778a22812dfceced1f1b6aad0",
        "0/trace.csv":
            "da24565e606bb9b0a6d407f9b51928ce7c855a73962f268917d4c9aa2a71097a",
        "summary.json":
            "c40f24202bd27e4cf4d6f38f2dc5c019d53b191d026d8fc273418d1912a4549c",
    },
    "passive-convex-qg": {
        "0/cert.json":
            "54be7456e44c28c4151cd62f7497a944f77c09261fa63a89186fca8ed92150f3",
        "0/regret.json":
            "59853d5fe6382dc640d00f3885ccebb4904f2fc0bbaefb271903bf9e78903fad",
        "0/regret_curve.csv":
            "0d3651ef9bedb5a37798b5843a45a9afc967678c6e25a040222477b2bb417488",
        "0/run.json":
            "2bf88ccbe2a9266169e34d0ca3ac736481a3d5a0ede54600c7f180808cdafda3",
        "0/trace.csv":
            "1df30100620b460d13bc030b06498e41767439c5271e597641fc4e90123776b1",
        "summary.json":
            "da648526f28226e7d52d8315c2c91cca50e3918973b47467738da8b6a4b97dca",
    },
    "passive-sc": {
        "0/cert.json":
            "8d403816d69dec85f45b8d66277c51757532a560444899d969cb2a964dfd9b73",
        "0/regret.json":
            "b21731e05c7ae1eca5ce2007248fd5b949afdffc8bf803f6cc364370b72bc59e",
        "0/regret_curve.csv":
            "8c3fcaebcfeee4f8d322b05acb2500d0b308c24244713d3292638c8030d5386f",
        "0/run.json":
            "abb2e946c02c8c2a41f77af772f786eb0020aeb68673317776973a4b089ac9e6",
        "0/trace.csv":
            "e67e432693dbd388422cd41b38fb432fbe64e1b0f310456a0ff32b009bab00bb",
        "summary.json":
            "7de55778348d18b29078fc83a93bfea0303ba5fe82e04d42d49d59f3374305d7",
    },
    "retrain-sc": {
        "0/regret.json":
            "7ca17d09e74e4ea374d8fbb789594909c81d4e813b792d5c94f71350ed806168",
        "0/regret_curve.csv":
            "fc2560c1493251daf15ead25266967a1e16a565b62822d3108e04c7a4b2c1983",
        "0/run.json":
            "6b55726af0a9c5bf2d0410a311d225aa8d601d84a785c1a7560162028194b596",
        "0/trace.csv":
            "93885cd9f15fc1ade53b9b8432d9a0450444db372e2cb796608418df65bb106e",
        "summary.json":
            "ef7696b4fc36f94a9481882c39106d5ef43807618098ddab3df264b415ed7bc7",
    },
}


def _digests(root) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "config.json"
    }


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_output_bytes_match_golden(name, tmp_path):
    summary = run_experiment(ExperimentConfig.from_dict(CONFIGS[name]), tmp_path)
    assert _digests(tmp_path / summary["config_hash"]) == GOLDEN[name]
