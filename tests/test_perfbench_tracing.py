"""The benchmark's per-layer spans wrap names the package still defines and calls.

``perfbench/tracing.py`` replaces each name in ``WRAPPED`` in the module that
calls it and reads its count arguments by name (``sched``, ``ordinal``,
``n``).  A renamed or removed name would otherwise surface only when the
benchmark runs with ``--trace 1``.
"""

import importlib.util
import json
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
    for name in ("runner.steps", "certifier.propagate.steps", "certifier.mc.samples",
                 "regret.comparators.calls"):
        assert metrics[name] > 0, name
    # One row per deletion in each interval's ledger: 1 + 2 for the passive run's two.
    assert metrics["certifier.ledger.rows"] == 3


def test_one_root_span_per_point(tmp_path, capsys):
    """``run``, ``certify`` and ``sweep`` call ``cli.run_experiment`` once per point."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    grid = {**_config("active"), "sweep": {"algorithm": ["active", "retrain", "discard"]}}
    cases = (("run", _config("passive"), 1), ("certify", _config("passive"), 1),
             ("sweep", grid, 3))
    try:
        tracer.install()
        for command, raw, points in cases:
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(raw))
            before = len(tracer.spans)
            cli.main([command, "--config", str(path), "--out", str(tmp_path / command),
                      "--jobs", "1"])
            roots = [span for span in tracer.spans[before:] if span["name"] == tracing.ROOT]
            assert len(roots) == points, command
            assert all(span["parent"] is None for span in roots), command
    finally:
        tracer.uninstall()


def test_monte_carlo_reads_the_pass_through_propagate_gaussians(tmp_path):
    """Each Monte-Carlo check looks its interval up with one ``propagate_gaussians`` call."""
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    start = time.perf_counter()
    try:
        tracer.install()
        cli.run_experiment(ExperimentConfig.from_dict(_config("passive")), tmp_path,
                           certify_only=True)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    checks = [i for i, span in enumerate(spans)
              if span["name"] == "certifier.mc_divergence_check"]
    assert checks
    for i in checks:
        children = [span for span in spans
                    if span["parent"] == i and span["name"] == "certifier.propagate_gaussians"]
        assert len(children) == 1
    metrics = tracing.layer_metrics(spans, time.perf_counter() - start)
    assert metrics["certifier.propagate.calls"] == (
        metrics["certifier.oracle.attempts"] + len(checks))
