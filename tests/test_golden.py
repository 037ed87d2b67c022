"""Golden output hashes: every byte a small run writes, pinned by sha256.

One config per algorithm (passive, active, retrain, discard) and one per
stream kind (sc-quadratic, convex-qg, assumption2-segments), at T = 300, run
through ``run_experiment`` exactly as the CLI does.  The passive config also
runs the Monte-Carlo check, so ``cert.json`` pins the MC estimates too.  Two
more retrain configs pin the replay paths: adaptive rates with an explicit
schedule whose second index precedes the first and whose third precedes the
second deletion time, and ``adversarial-early`` (``u_i = i``).  The Newton
variant ``active2`` has one config, and one more ``active`` config runs that
explicit schedule with ``strict_schedule: false``, so two of its deletions lie
outside the certified shape.

The hashes were taken with numpy 2.4.6 on scipy-openblas (OpenBLAS 0.3.31,
Haswell kernels).  Outputs are 17-significant-digit decimals of float64
results, so another BLAS build or numpy release may legitimately move a last
digit; re-pin only after checking that the difference is reassociation, and
say so in CHANGES.md.  Every noise draw, a run's and Monte-Carlo's alike,
comes from numpy's own normal sampler (``Generator.standard_normal``), whose
bits a numpy release may change: then the noisy runs' traces, regrets and
summaries and the MC estimates in ``cert.json`` move together.
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
    "retrain-adaptive-explicit": _config(
        algorithm="retrain", rate={"kind": "adaptive"},
        schedule={"kind": "explicit", "entries": [[100, 120], [40, 160], [150, 230]]},
    ),
    "retrain-adversarial-early": _config(
        algorithm="retrain",
        schedule={"kind": "adversarial-early", "k": 3, "spacing": 75, "first_time": 75},
    ),
    "active2-sc": _config(algorithm="active2"),
    "active-loose-shape": _config(
        algorithm="active",
        schedule={"kind": "explicit", "entries": [[100, 120], [40, 160], [150, 230]]},
        active={"strict_schedule": False},
    ),
}

GOLDEN = {
    "active-loose-shape": {
        "0/cert.json":
            "f49af5db246490820d5e5dc89ddc70fbe78182c2219bb15a46fb2411bdc32eb8",
        "0/regret.json":
            "42ef47754484b0aeaddbf6e4d0db797af85fa04488a9e823963198b4edca3709",
        "0/regret_curve.csv":
            "1b1d591b5420aebdee15906f9a231602d5139b377011bc783500ad698ce9e631",
        "0/run.json":
            "31a0e4c5a3617431aedff57744aabee89d325e906323c844f7400a81d8f00ae9",
        "0/trace.csv":
            "ac2af3ade6a9c3a5237ef484b002b2ce498dd5a60e76f99ddeefe65c22fc1546",
        "summary.json":
            "08c5f4195fd9a81709ad8c96690f4a2a9ef1d6f31f5c04c5b84d79a94c11719c",
    },
    "active2-sc": {
        "0/cert.json":
            "2568d60357a2724b7380eade6c23aaa8f4e9dad95ac83d0cb0162d21b82f2c8f",
        "0/regret.json":
            "93e88ac58f4b56c75dabff2c24a857814fcea9200c7c0acab4670b82fb15d101",
        "0/regret_curve.csv":
            "86fd887f94a116f6651908829b43a72a615879a4bc7101acc7fc692ac6a9c41a",
        "0/run.json":
            "81234ae153b144c4e3f62c299c1c063496bb731458f1bdb4b03c4c8c4131363c",
        "0/trace.csv":
            "fbcbb132e2b317ec85d8591aa60c5fcd2bbeee10ce43a771667e06c00451af5b",
        "summary.json":
            "2571a65432049e705e2f3ab8068928ef3cfa74432d1fa84c68dc7305e2bc810f",
    },
    "active-assumption2": {
        "0/cert.json":
            "57bf1781c00671d05689d4d7054516292c280d2ef0c3cda17953b44ea53db9cd",
        "0/regret.json":
            "a0a744353cddc18f521ffb41a2d2c702d92af375902cdae82b4ff5c6463187c9",
        "0/regret_curve.csv":
            "a54d9c39481c2d10652cf178aad637463bbdd0114ebee0c356f8e8a3972dc04e",
        "0/run.json":
            "2b9fa87b26a9d64deaefb94aeb38affe693b73e8da542e922e20ec113acb15dc",
        "0/trace.csv":
            "cf1a44b8511121624962d3e6850711a920df86b8506af9ab4c8c8f7178e41260",
        "summary.json":
            "ecf4477c8a2843f3ad7bd77b6f4fefd98e93076dae30e706b8477d16dc2aadd5",
    },
    "active-sc": {
        "0/cert.json":
            "57bf1781c00671d05689d4d7054516292c280d2ef0c3cda17953b44ea53db9cd",
        "0/regret.json":
            "abe0fcfdbc1936611f3760771526c0ac271b5fecaa1483f097d4adbefcee6fd7",
        "0/regret_curve.csv":
            "3d41b8ffe57d4570980a2edf88ef8c19c31604bd14823e987c46c434f7786511",
        "0/run.json":
            "e9f24a9190349c2f8faa302bfb333f7fc688009e246e114a455c1ab3269433d2",
        "0/trace.csv":
            "1bf89490664d8ab2dbeb2748639bcbbafa4bbd1daac06b0178e0fd76f3471936",
        "summary.json":
            "ec932f548d9f1e9d676db428adab6deea158a32a16bae2a22921215cd2bd6c86",
    },
    "discard-sc": {
        "0/regret.json":
            "08900e232693509ad5f020d066c6e9af1d26af525b314c160c36a6bba5bb83bd",
        "0/regret_curve.csv":
            "ba32d95c6a7d7918e1be71876ae02edb1bc1ccd301b4ab741443f40594396b11",
        "0/run.json":
            "590b90cb464fa40b6e1a8f4e603641cd42f6714dd7091556cf1576dc4bfa13e7",
        "0/trace.csv":
            "da24565e606bb9b0a6d407f9b51928ce7c855a73962f268917d4c9aa2a71097a",
        "summary.json":
            "c40f24202bd27e4cf4d6f38f2dc5c019d53b191d026d8fc273418d1912a4549c",
    },
    "passive-convex-qg": {
        "0/cert.json":
            "54be7456e44c28c4151cd62f7497a944f77c09261fa63a89186fca8ed92150f3",
        "0/regret.json":
            "ebbc116a9ad90955abc8b4583c921beb8034f2ae0ac6b456aeed6251d0edb84d",
        "0/regret_curve.csv":
            "78ba0ebae9309c48d83f970de9bb044763e8d2a164a356e93ffa0602a64f7b25",
        "0/run.json":
            "5ac307d049f0e455693fdcf1b90d13d9a36a5e3911833164293e7505d9aabc66",
        "0/trace.csv":
            "87d1e6f247293b98c0ea94ae0c9e830bf0f126ffc3f56d732b3f2702f975537b",
        "summary.json":
            "760f89e865dea3be5d6215505c6c04bb6e7d3f71291953f19b9b24cfb17c0fab",
    },
    "passive-sc": {
        "0/cert.json":
            "66f36d49ac8daeb5fbededf06f984f948b0aab81b41e43645f5af6611c3dbf32",
        "0/regret.json":
            "a9de6a3ea6b41e7b8a4ef5c59dd099cf2657cfe83051bdd54ff137b85f006f22",
        "0/regret_curve.csv":
            "8d382955b48461a729ded20cc2eefa5737fb83fa9e39293d7fcfc080723fc9ec",
        "0/run.json":
            "c801fc7e95475b53735a57cd008c12001c53e2c303f01a13879863d1c3d941da",
        "0/trace.csv":
            "bba0bb8fdb6743fbab1876c7a270c891d49c9898cf7d29a873dc22540699d6ba",
        "summary.json":
            "8dd8ecfa46c42057bd44536d06c282d0e7240123df49bed57bcf3a93ecce8731",
    },
    "retrain-adaptive-explicit": {
        "0/regret.json":
            "69793c97b18bc4dc99086050a0168bf15ec705c13107649ff31ec5e2b1721bef",
        "0/regret_curve.csv":
            "3d71cdcfbb75af10abc34c19206551fde3ba21470da11d2ba619882cd71a267b",
        "0/run.json":
            "02aec99e85de20d1ec7f2629235dfda5c7f10c5a202a6027808058409525be0b",
        "0/trace.csv":
            "a92505e8a6a60b2672f7e3c5f9f28f1bc332839a2194d8e8f69bc3aef1e594ff",
        "summary.json":
            "92301dfef9d05052d3068ef68958c78d49126cada10ecaf06a249779e88bf6e0",
    },
    "retrain-adversarial-early": {
        "0/regret.json":
            "763258d4fee0fed088a823ac2e16633b25d5b143a30bdd36a0f2ba45648f1ef9",
        "0/regret_curve.csv":
            "a80d542ca91674b5efd5291f8ba6b4fee1e755f9c1109a910b7b28ac121c16e5",
        "0/run.json":
            "aecf07a6f57b335383ea9ed3a976d245ae7df167334fc197346eba82971155f2",
        "0/trace.csv":
            "20d5eed3127b8ed579fc21dbd72fb5a6bc6965f588137121b527daf8b28a5455",
        "summary.json":
            "e39e1f4517fbca9803f94fdc6f0694cda2fe7740e59d72f0ae35975cba21b1bb",
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
