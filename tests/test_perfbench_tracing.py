"""The benchmark's per-layer spans wrap names the package still defines and calls.

``perfbench/tracing.py`` replaces each name in ``WRAPPED`` in the module that
calls it and reads its count arguments by name (``sched``, ``ordinal``,
``n``).  A renamed or removed name would otherwise surface only when the
benchmark runs with ``--trace 1``.
"""

import importlib.util
import time
from pathlib import Path

from online_unlearning import cli
from online_unlearning.harness import ExperimentConfig

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(algorithm: str) -> dict:
    return {
        "dimension": 2,
        "horizon": 40,
        "radius": 1.0,
        "stream": {"kind": "sc-quadratic", "mu": 1.0, "beta": 3.0},
        "schedule": {"kind": "explicit", "entries": [[5, 12], [14, 25]]},
        "algorithm": algorithm,
        "rate": {"kind": "sc-decreasing"},
        "unlearner": {"alpha": 2.0, "eps": 0.5, "omega": 1.2,
                      "gamma_mode": "per-step-product"},
        "seeds": [0],
        "mc_samples": 64 if algorithm == "passive" else 0,
    }


def test_every_wrapped_name_is_called_and_counted(tmp_path):
    tracing = _load_tracing()
    original = cli.run_experiment
    tracer = tracing.Tracer()
    start = time.perf_counter()
    try:
        tracer.install()
        for algorithm in ("passive", "active", "retrain", "discard"):
            cli.run_experiment(ExperimentConfig.from_dict(_config(algorithm)),
                               tmp_path / algorithm)
    finally:
        tracer.uninstall()
    assert cli.run_experiment is original

    called = {span["name"] for span in tracer.spans}
    assert set(tracing.WRAPPED.values()) <= called
    metrics = tracing.layer_metrics(tracer.spans, time.perf_counter() - start)
    for name in ("runner.steps", "certifier.ledger.rows", "certifier.propagate.steps",
                 "certifier.mc.samples", "regret.comparators.calls"):
        assert metrics[name] > 0, name
