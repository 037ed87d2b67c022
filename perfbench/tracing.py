"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each wrapped name in the module its caller
resolves it from, so the program itself is unchanged.  Each call records a
span (name, start, end, parent) plus a few counts taken from the call's
arguments and result.  ``layer_metrics`` turns the spans of one traced run
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

_PKG = "online_unlearning"

# (module, attribute) -> span name.  Each entry is the name its caller resolves:
# ``cli`` binds ``run_experiment`` under its own name, ``harness`` binds the
# runners and the regret functions under its own names, and ``certifier``
# binds ``event_normals`` from ``rng``.
WRAPPED = {
    ("cli", "run_experiment"): "cli.run_experiment",
    ("harness", "gen_stream"): "harness.gen_stream",
    ("harness", "run_passive"): "passive.run_passive",
    ("harness", "run_active"): "active.run_active",
    ("harness", "run_retraining"): "baselines.run_retraining",
    ("harness", "run_discard_restart"): "baselines.run_discard_restart",
    ("harness", "regret_dynamic"): "regret.regret_dynamic",
    ("harness", "cumulative_regret_curve"): "regret.cumulative_regret_curve",
    ("harness", "certify_passive_run"): "certifier.certify_passive_run",
    ("regret", "comparators"): "regret.comparators",
    ("certifier", "analytic_bound"): "certifier.analytic_bound",
    ("certifier", "per_step_gammas"): "certifier.per_step_gammas",
    ("certifier", "exact_divergence_quadratic"): "certifier.exact_divergence_quadratic",
    ("certifier", "propagate_gaussians"): "certifier.propagate_gaussians",
    ("certifier", "mc_divergence_check"): "certifier.mc_divergence_check",
    ("certifier", "event_normals"): "rng.event_normals",
    ("trace", "RunTrace.write_csv"): "trace.write_csv",
    ("trace", "RunTrace.write_summary"): "trace.write_summary",
}

ROOT = "cli.run_experiment"
RUNNERS = ("passive.run_passive", "active.run_active",
           "baselines.run_retraining", "baselines.run_discard_restart")


def _tau(sched, ordinal: int) -> int:
    return int(sched.times[ordinal - 1])


# Counts of one call from its bound arguments and its result; ``result`` is
# None when the call raised.

def _runner_counts(args, result) -> dict:
    if result is None:
        return {}
    return {
        "steps": result.horizon + sum(result.replay_costs) + sum(result.inner_steps),
        "grad_evals": result.grad_evals,
        "projection_bound_steps": result.projection_bound_steps,
    }


def _propagate_counts(args, result) -> dict:
    # Steps requested: a refusal may stop the propagation before tau_i.
    return {"steps": _tau(args["sched"], args["ordinal"])}


def _mc_counts(args, result) -> dict:
    if result is None:
        return {}
    tau = _tau(args["sched"], args["ordinal"])
    return {"samples": args["n"], "row_steps": 2 * args["n"] * tau,
            "binding_events": result.binding_events}


def _ledger_counts(args, result) -> dict:
    if result is None:
        return {}
    return {"rows": sum(len(ledger.rows) for ledger in result.ledgers)}


_COUNTS = {name: _runner_counts for name in RUNNERS}
_COUNTS.update({
    "certifier.propagate_gaussians": _propagate_counts,
    "certifier.mc_divergence_check": _mc_counts,
    "certifier.analytic_bound": _ledger_counts,
})


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        counts = _COUNTS.get(name)
        signature = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter(), "end": None, "ok": True, "counts": {}}
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            result = None
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["ok"] = False
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if counts is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["counts"] = counts(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        for (module_name, attr), name in WRAPPED.items():
            owner = importlib.import_module(f"{_PKG}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._restore.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# Layer bucket of each span's self time.  A propagation belongs to the
# oracle or to Monte-Carlo, whichever called it.
_BUCKET = {
    ROOT: "harness.self",
    "harness.gen_stream": "harness.gen_stream",
    "regret.regret_dynamic": "regret.regret_dynamic",
    "regret.cumulative_regret_curve": "regret.cumulative_regret_curve",
    "regret.comparators": "regret.comparators",
    "certifier.certify_passive_run": "certifier.self",
    "certifier.analytic_bound": "certifier.ledger",
    "certifier.per_step_gammas": "certifier.ledger",
    "certifier.exact_divergence_quadratic": "certifier.oracle",
    "certifier.mc_divergence_check": "certifier.mc",
    "rng.event_normals": "rng.event_normals",
    "trace.write_csv": "trace.write_csv",
    "trace.write_summary": "trace.write_summary",
    **{name: name for name in RUNNERS},
}
BUCKETS = tuple(dict.fromkeys(_BUCKET.values())) + ("cli.self",)


def _bucket(spans: list[dict], index: int) -> str:
    span = spans[index]
    if span["name"] == "certifier.propagate_gaussians":
        parent = span["parent"]
        if parent is not None and spans[parent]["name"] == "certifier.mc_divergence_check":
            return "certifier.mc"
        return "certifier.oracle"
    return _BUCKET[span["name"]]


def self_times(spans: list[dict], wall_s: float) -> dict:
    """Self time per layer bucket; ``cli.self`` is the wall time outside every root span."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = dict.fromkeys(BUCKETS, 0.0)
    roots = 0.0
    for i, span in enumerate(spans):
        duration = span["end"] - span["start"]
        out[_bucket(spans, i)] += duration - child_time[i]
        if span["parent"] is None:
            roots += duration
    out["cli.self"] = wall_s - roots
    return out


def _sum(spans, name, key) -> int:
    return sum(s["counts"].get(key, 0) for s in spans if s["name"] == name)


def _calls(spans, name) -> int:
    return sum(1 for s in spans if s["name"] == name)


def layer_metrics(spans: list[dict], wall_s: float) -> dict:
    """Per-layer values of one traced run (seconds, counts, rates)."""
    selfs = self_times(spans, wall_s)
    runner_s = sum(selfs[name] for name in RUNNERS)
    runner_steps = sum(_sum(spans, name, "steps") for name in RUNNERS)
    oracle = [s for s in spans if s["name"] == "certifier.exact_divergence_quadratic"]
    answered = sum(1 for s in oracle if s["ok"])
    row_steps = _sum(spans, "certifier.mc_divergence_check", "row_steps")
    out = {f"{bucket}.s": value for bucket, value in selfs.items()}
    out.update({
        "harness.gen_stream.calls": _calls(spans, "harness.gen_stream"),
        "runner.steps": runner_steps,
        "runner.us_per_step": 1e6 * runner_s / runner_steps if runner_steps else 0.0,
        "runner.grad_evals": sum(_sum(spans, name, "grad_evals") for name in RUNNERS),
        "runner.projection_bound_steps": sum(
            _sum(spans, name, "projection_bound_steps") for name in RUNNERS),
        "regret.comparators.calls": _calls(spans, "regret.comparators"),
        "certifier.ledger.rows": _sum(spans, "certifier.analytic_bound", "rows"),
        "certifier.oracle.attempts": len(oracle),
        "certifier.oracle.answered": answered,
        "certifier.oracle.coverage": answered / len(oracle) if oracle else 0.0,
        "certifier.propagate.calls": _calls(spans, "certifier.propagate_gaussians"),
        "certifier.propagate.steps": _sum(spans, "certifier.propagate_gaussians", "steps"),
        "certifier.mc.samples": _sum(spans, "certifier.mc_divergence_check", "samples"),
        "certifier.mc.row_steps_per_s": (
            row_steps / (selfs["certifier.mc"] + selfs["rng.event_normals"])
            if row_steps else 0.0),
        "certifier.mc.binding_events": _sum(
            spans, "certifier.mc_divergence_check", "binding_events"),
        "rng.event_normals.calls": _calls(spans, "rng.event_normals"),
    })
    return out


def recorded_groups(spans: list[dict]) -> set:
    """Span groups (as workloads declare them) that recorded at least one call."""
    groups = set()
    for i, span in enumerate(spans):
        groups.add(_bucket(spans, i))
        if span["name"] == "certifier.propagate_gaussians":
            groups.add("certifier.propagate")
    return groups
