"""The benchmark's workloads: one CLI command and one config per workload.

Each workload is a function of the benchmark seed ``s`` alone.  The configs
are written out here in full rather than read from ``configs/`` so that a
change to the shipped example config cannot change what the benchmark runs.
``shrink=True`` gives the small copies the smoke test runs (T=200, n=1e3).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

# configs/passive_sc.json as shipped when the benchmark was defined.
_PASSIVE_SC = {
    "dimension": 5,
    "horizon": 2000,
    "radius": 1.0,
    "stream": {"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
    "schedule": {"kind": "pattern", "k": 3, "gap": 40, "spacing": 400, "first_time": 400},
    "algorithm": "passive",
    "rate": {"kind": "sc-decreasing"},
    "unlearner": {"alpha": 2.0, "eps": 0.5, "omega": 1.2, "gamma_mode": "per-step-product"},
    "seeds": [0, 1, 2, 3],
    "mc_samples": 0,
}

# Span groups every traced run of a workload must record at least once.  A
# group that records nothing is reported as null, never as 0.
_COMMON_SPANS = ("harness.gen_stream", "harness.self", "trace.write_csv", "trace.write_summary")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # CLI sub-command
    config: dict          # experiment config, seeds already set
    operations: int       # (config, seed) runs one command performs
    spans: tuple          # span groups this workload must record


def _stream_long(seed: int, shrink: bool) -> dict:
    cfg = copy.deepcopy(_PASSIVE_SC)
    horizon, spacing = (200, 40) if shrink else (10_000, 2_000)
    cfg.update(
        horizon=horizon,
        schedule={"kind": "pattern", "k": 3, "gap": 40 if not shrink else 10,
                  "spacing": spacing, "first_time": spacing},
        seeds=[seed + i for i in range(4)],
        mc_samples=0,
    )
    return cfg


def _mc_crosscheck(seed: int, shrink: bool) -> dict:
    cfg = copy.deepcopy(_PASSIVE_SC)
    cfg.update(seeds=[seed], mc_samples=1_000 if shrink else 100_000)
    if shrink:
        cfg.update(horizon=200,
                   schedule={"kind": "pattern", "k": 3, "gap": 10, "spacing": 40, "first_time": 40})
    return cfg


def _unlearner_sweep(seed: int, shrink: bool) -> dict:
    cfg = copy.deepcopy(_PASSIVE_SC)
    horizon, k, spacing = (200, 4, 40) if shrink else (10_000, 40, 240)
    cfg.update(
        horizon=horizon,
        schedule={"kind": "pattern", "k": k, "gap": 40 if not shrink else 10,
                  "spacing": spacing, "first_time": spacing},
        algorithm="active",
        seeds=[seed],
        mc_samples=0,
        sweep={"algorithm": ["active", "retrain", "discard"]},
    )
    return cfg


def build(name: str, seed: int, shrink: bool = False) -> Workload:
    """The workload ``name`` with its inputs derived from ``seed``."""
    if name == "stream-long":
        return Workload(
            name, "run", _stream_long(seed, shrink), operations=4,
            spans=_COMMON_SPANS + (
                "passive.run_passive", "regret.regret_dynamic",
                "regret.cumulative_regret_curve", "regret.comparators",
                "certifier.ledger", "certifier.oracle", "certifier.propagate",
            ),
        )
    if name == "mc-crosscheck":
        return Workload(
            name, "certify", _mc_crosscheck(seed, shrink), operations=1,
            spans=_COMMON_SPANS + (
                "passive.run_passive", "certifier.ledger", "certifier.oracle",
                "certifier.propagate", "certifier.mc", "rng.event_normals",
            ),
        )
    if name == "unlearner-sweep":
        return Workload(
            name, "sweep", _unlearner_sweep(seed, shrink), operations=3,
            spans=_COMMON_SPANS + (
                "active.run_active", "baselines.run_retraining",
                "baselines.run_discard_restart", "regret.regret_dynamic",
                "regret.cumulative_regret_curve", "regret.comparators",
            ),
        )
    raise KeyError(name)


NAMES = ("stream-long", "mc-crosscheck", "unlearner-sweep")
