"""Correctness gate and output hashing for one CLI command's output tree.

One operation is one (config, seed) run.  An operation fails when the
command exits non-zero, its summary does not pass, an interval breaks
``exact <= analytic <= budget``, or (where Monte-Carlo is required) the
estimate is missing or further than ``MC_SIGMAS`` standard errors from the
exact value.  The standard error is the estimator's own,
``2 * sqrt(alpha * exact / n)``, evaluated at the exact value.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

TOL = 1e-9          # the certifier's own tolerance on exact <= analytic
MC_SIGMAS = 4.0


def mc_sigma(alpha: float, exact: float, n: int) -> float:
    """Standard error of the bias-corrected Monte-Carlo estimate at ``exact``."""
    return 2.0 * math.sqrt(alpha * exact / n)


def _check_intervals(cert: list, config: dict, where: str) -> list[str]:
    alpha = float(config["unlearner"]["alpha"])
    n = int(config.get("mc_samples", 0))
    problems = []
    compared = 0
    for entry in cert:
        exact, analytic, budget = entry["exact_divergence"], entry["analytic_bound"], entry["budget"]
        span = entry["interval"]
        if not entry["pass"]:
            problems.append(f"{where}: interval {span} does not pass")
        if exact is None:
            continue
        if not exact <= analytic + TOL:
            problems.append(f"{where}: interval {span} exact {exact} > analytic {analytic}")
        if not analytic <= budget + TOL:
            problems.append(f"{where}: interval {span} analytic {analytic} > budget {budget}")
        if n > 0:
            estimate = entry["mc_estimate"]
            if estimate is None:
                problems.append(f"{where}: interval {span} has no Monte-Carlo estimate")
                continue
            sigma = mc_sigma(alpha, exact, n)
            if not abs(estimate - exact) <= MC_SIGMAS * sigma:
                problems.append(
                    f"{where}: interval {span} Monte-Carlo {estimate} is "
                    f"{abs(estimate - exact) / sigma:.2f} sigma from exact {exact}")
            compared += 1
    if n > 0 and compared == 0:
        problems.append(f"{where}: no interval was cross-checked by Monte-Carlo")
    return problems


def _check_seed(seed_dir: Path, entry: dict, config: dict, where: str) -> list[str]:
    problems = []
    for name in ("trace.csv", "run.json"):
        if not (seed_dir / name).is_file():
            problems.append(f"{where}: {name} missing")
    if entry["regret_pass"] is False:
        problems.append(f"{where}: regret bound not met")
    if entry["cert"] is not None:
        if not entry["cert"]["all_pass"]:
            problems.append(f"{where}: certificate does not pass")
        cert_path = seed_dir / "cert.json"
        if not cert_path.is_file():
            problems.append(f"{where}: cert.json missing")
        else:
            problems += _check_intervals(json.loads(cert_path.read_text()), config, where)
    return problems


def check_outputs(out_dir: Path, exit_code: int, points: int, operations: int) -> tuple[int, list[str]]:
    """(failed operations, problems) for one command's output tree.

    ``points`` is the number of configs the command runs (sweep points) and
    ``operations`` the number of (config, seed) runs it should produce.
    """
    problems = [] if exit_code == 0 else [f"command exited with code {exit_code}"]
    failed_ops = 0
    seen = 0
    summaries = sorted(out_dir.glob("*/summary.json"))
    if len(summaries) != points:
        problems.append(f"expected {points} summaries, found {len(summaries)}")
    for summary_path in summaries:
        base = summary_path.parent
        summary = json.loads(summary_path.read_text())
        config = json.loads((base / "config.json").read_text())
        if not summary["all_pass"]:
            problems.append(f"{base.name}: all_pass is false")
        for entry in summary["per_seed"]:
            seen += 1
            seed_problems = _check_seed(base / str(entry["seed"]), entry, config,
                                        f"{base.name}/{entry['seed']}")
            problems += seed_problems
            failed_ops += bool(seed_problems)
    if seen != operations:
        problems.append(f"expected {operations} operations, found {seen}")
    if problems and failed_ops == 0:
        failed_ops = operations   # a command-level failure fails every operation
    return min(failed_ops, operations), problems


def tree_digests(out_dir: Path) -> dict:
    """sha256 of every file under ``out_dir``, keyed by its relative path."""
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def combined_digest(digests: dict) -> str:
    """One sha256 over every (path, digest) pair, in path order."""
    lines = "".join(f"{path} {digest}\n" for path, digest in sorted(digests.items()))
    return hashlib.sha256(lines.encode()).hexdigest()
