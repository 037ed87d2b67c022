"""Run traces: per-step outputs, noise events, and their CSV/JSON forms."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np

from .core import decode_vector, encode_vector

__all__ = ["NoiseEvent", "RunTrace", "load_summary"]

EVENT_LEARN = "learn"
EVENT_UNLEARN = "unlearn"
EVENT_SKIP = "skip"

_CSV_COLUMNS = ("t", "z", "eta", "loss", "event", "sigma")


@dataclass(frozen=True, eq=False)
class NoiseEvent:
    """Gaussian injection at deletion time ``time`` for the ``ordinal``-th request."""

    ordinal: int
    time: int
    index: int
    gap: int
    delta: float
    decay: float
    sigma: float
    xi: np.ndarray

    def to_dict(self) -> dict:
        return {
            "i": self.ordinal,
            "t": self.time,
            "u": self.index,
            "gap": self.gap,
            "delta": self.delta,
            "decay": self.decay,
            "sigma": self.sigma,
            "xi": encode_vector(self.xi),
        }


@dataclass(eq=False)
class RunTrace:
    """Everything a run emits: outputs ``z_1..z_T``, losses, rates, noise events.

    ``events[t-1]`` is one of ``learn`` / ``unlearn`` / ``skip``.  Outputs at
    unlearn steps are the noisy emitted points (they may lie outside the
    domain; the next step projects back).
    """

    algorithm: str
    seed: int
    outputs: np.ndarray
    losses: np.ndarray
    rates: np.ndarray
    events: Tuple[str, ...]
    noise_events: Tuple[NoiseEvent, ...] = ()
    p_history: np.ndarray | None = None
    grad_evals: int = 0
    inner_steps: Tuple[int, ...] = ()
    i1_per_deletion: Tuple[int, ...] = ()
    i2: int | None = None
    replay_costs: Tuple[int, ...] = ()
    projection_bound_steps: int = 0
    certifiable: bool = True
    warnings: Tuple[str, ...] = ()
    config: dict = field(default_factory=dict)

    @property
    def horizon(self) -> int:
        return self.outputs.shape[0]

    @property
    def dim(self) -> int:
        return self.outputs.shape[1]

    def output_at(self, t: int) -> np.ndarray:
        return self.outputs[t - 1]

    def total_loss(self) -> float:
        return float(np.sum(self.losses))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            sigmas = {event.time: event.sigma for event in self.noise_events}
            for t in range(1, self.horizon + 1):
                writer.writerow(
                    [
                        t,
                        encode_vector(self.outputs[t - 1]),
                        "%.17g" % self.rates[t - 1],
                        "%.17g" % self.losses[t - 1],
                        self.events[t - 1],
                        "%.17g" % sigmas[t] if t in sigmas else "",
                    ]
                )

    def summary(self) -> dict:
        out = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "horizon": self.horizon,
            "dim": self.dim,
            "config": self.config,
            "total_loss": self.total_loss(),
            "grad_evals": self.grad_evals,
            "noise_events": [event.to_dict() for event in self.noise_events],
            "projection_bound_steps": self.projection_bound_steps,
            "certifiable": self.certifiable,
            "warnings": list(self.warnings),
        }
        if self.p_history is not None:
            out["p_history"] = [float(p) for p in self.p_history]
        if self.inner_steps:
            out["inner_steps"] = list(self.inner_steps)
            out["inner_steps_total"] = int(sum(self.inner_steps))
        if self.i1_per_deletion:
            out["i1_per_deletion"] = list(self.i1_per_deletion)
        if self.i2 is not None:
            out["i2"] = self.i2
        if self.replay_costs:
            out["replay_costs"] = list(self.replay_costs)
        return out

    def write_summary(self, path: str | Path) -> None:
        with open(path, "w") as handle:
            json.dump(self.summary(), handle, sort_keys=True, indent=2)
            handle.write("\n")


def load_summary(path: str | Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


def load_trace_outputs(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back (outputs, rates, losses) from a trace CSV; exact round-trip."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            rows.append((decode_vector(row["z"]), float(row["eta"]), float(row["loss"])))
    outputs = np.stack([r[0] for r in rows])
    rates = np.array([r[1] for r in rows])
    losses = np.array([r[2] for r in rows])
    return outputs, rates, losses
