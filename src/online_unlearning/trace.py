"""Run traces: per-step outputs, noise events, and their CSV/JSON forms."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Tuple

import numpy as np

from .core import _VECTOR_FMT, decode_vector, encode_vector

__all__ = ["NoiseEvent", "RunTrace", "write_json"]

EVENT_LEARN = "learn"
EVENT_UNLEARN = "unlearn"
EVENT_SKIP = "skip"

_CSV_COLUMNS = ("t", "z", "eta", "loss", "event", "sigma")
_CSV_CHUNK = 256  # rows per write


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

    ``grad_evals`` and ``replay_costs`` count the oracle calls of the
    algorithm as specified, not the simulator's arithmetic: retraining is
    charged a full replay from ``t = 1`` per deletion (``tau_i`` in
    ``replay_costs``, every live slot of the retained prefix in
    ``grad_evals``) though it recomputes only ``u_i..tau_i``, and the active
    unlearner ``n`` per inner step on an average of ``n`` losses though
    quadratics evaluate it in closed form.  ``projection_bound_steps``, by
    contrast, counts the projections the simulator computed that bound,
    replayed steps included.
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
        """One row per step, as ``csv.writer`` lays it out: no field needs quoting.

        Rows are formatted by one ``%`` each and written in chunks, so the
        whole file is never held in memory.
        """
        row = "%d," + ";".join([_VECTOR_FMT] * self.dim) + ",%.17g,%.17g,%s,%s\r\n"
        sigmas = {event.time: "%.17g" % event.sigma for event in self.noise_events}
        with open(path, "w", newline="") as handle:
            handle.write(",".join(_CSV_COLUMNS) + "\r\n")
            for lo in range(0, self.horizon, _CSV_CHUNK):
                hi = min(lo + _CSV_CHUNK, self.horizon)
                handle.write("".join([
                    row % (t, *z, eta, loss, event, sigmas.get(t, ""))
                    for t, z, eta, loss, event in zip(
                        range(lo + 1, hi + 1),
                        self.outputs[lo:hi].tolist(),
                        self.rates[lo:hi].tolist(),
                        self.losses[lo:hi].tolist(),
                        self.events[lo:hi],
                    )
                ]))

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
        write_json(path, self.summary())


def write_json(path: str | Path, obj) -> None:
    """Every JSON output file: sorted keys, two-space indent, final newline.

    A NaN or infinite number raises ``ValueError``: JSON has no token for it.
    """
    with open(path, "w") as handle:
        json.dump(obj, handle, sort_keys=True, indent=2, allow_nan=False)
        handle.write("\n")


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
