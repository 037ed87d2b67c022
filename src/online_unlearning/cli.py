"""Command-line entry points: run, sweep, certify, regret-report.

``run`` and ``sweep`` are one command: both run every point of the config's
``sweep`` grid, and ``certify`` runs the same grid without regret reports.
Exit code 0 means every printed pass flag is true; a config the tool refuses
exits 2 with ``error: ...``.  Outputs are plain CSV/JSON under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from .errors import (GeneratorError, InvalidConfigError, InvalidScheduleError,
                     NonContractiveStepError, NotStronglyConvexError, NumericError)
from .harness import (
    ExperimentConfig,
    SeedInputs,
    config_hash,
    recompute_regret,
    run_experiment,
    sweep_points,
)

__all__ = ["main"]

# Errors a config or its file can raise; anything else is a bug and keeps its traceback.
_REFUSALS = (InvalidConfigError, InvalidScheduleError, GeneratorError, NonContractiveStepError,
             NotStronglyConvexError, NumericError, FileNotFoundError, json.JSONDecodeError)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--out", default="out", help="output root directory")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated seed override, e.g. 0,1,2")
    parser.add_argument("--jobs", type=int, default=1,
                        help="concurrent seeds / sweep points")


def _load(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seeds:
        seeds = [int(s) for s in args.seeds.split(",") if s]
        cfg = ExperimentConfig.from_dict({**cfg.raw, "seeds": seeds})
    return cfg


def _cmd_run(args, certify_only: bool = False) -> int:
    """``run``, ``sweep`` and (with ``certify_only``) ``certify``: one line per grid point.

    Points run in turn share each seed's generated inputs (``SeedInputs``).
    """
    points = sweep_points(_load(args))
    run = partial(run_experiment, out_root=args.out, certify_only=certify_only)
    if args.jobs > 1 and len(points) > 1:
        # One process per point; each point runs its seeds in turn.
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            summaries = list(pool.map(run, points))
    else:
        inputs = SeedInputs(points)
        summaries = [run(p, jobs=args.jobs, inputs=inputs) for p in points]
    ok = True
    for summary in summaries:
        if certify_only:
            passed = all(r["cert"]["all_pass"] for r in summary["per_seed"] if r["cert"])
            line = {"config_hash": summary["config_hash"], "cert_pass": passed}
        else:
            passed = summary["all_pass"]
            line = {key: summary[key] for key in ("config_hash", "mean_regret", "all_pass")}
        print(json.dumps(line))
        ok = ok and passed
    return 0 if ok else 1


def _cmd_regret_report(args) -> int:
    """Recompute regret from stored traces and check it against the stored reports.

    One line per stored seed of every grid point, as ``run`` wrote them.
    """
    ok = True
    for point in sweep_points(_load(args)):
        digest = config_hash(point)
        base = Path(args.out) / digest
        seed_dirs = sorted((p for p in base.glob("*") if (p / "trace.csv").exists()),
                           key=lambda p: p.name)
        if not seed_dirs:
            print(f"no stored traces under {base}", file=sys.stderr)
            ok = False
        for seed_dir in seed_dirs:
            result = recompute_regret(point, args.out, int(seed_dir.name))
            print(json.dumps({"config_hash": digest, **result}))
            ok = ok and result["matches"]
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="online-unlearning",
        description="Streamed learning with deletion requests: run, certify, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("run", _cmd_run),
        ("sweep", _cmd_run),
        ("certify", partial(_cmd_run, certify_only=True)),
        ("regret-report", _cmd_regret_report),
    ):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _REFUSALS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
