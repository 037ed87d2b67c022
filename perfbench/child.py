"""One timed operation in a fresh interpreter: set up, then run the CLI once.

    python3 perfbench/child.py --t0 <monotonic> --record rec.json \
        --config cfg.json [--command run --out DIR [--trace]]

``--t0`` is ``time.monotonic()`` taken by the parent just before it started
this process, so ``setup_s`` covers interpreter start, ``import
online_unlearning.cli`` and loading the config.  Without ``--command`` only
the set-up is measured.  The record is a JSON object written to ``--record``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    here = Path(__file__).resolve().parent

    t_import = time.monotonic()
    import online_unlearning.cli as cli
    from online_unlearning.harness import ExperimentConfig

    t_config = time.monotonic()
    ExperimentConfig.from_file(args.config)
    t_ready = time.monotonic()

    package = Path(cli.__file__).resolve()
    if here.parent / "src" not in package.parents:
        raise SystemExit(f"imported {package}, not the package under {here.parent / 'src'}")

    record = {
        "setup_s": t_ready - args.t0,
        "setup.import_s": t_config - t_import,
        "setup.config_s": t_ready - t_config,
    }
    if args.command:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(here))
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        code = cli.main([args.command, "--config", args.config, "--out", args.out,
                         "--jobs", "1"])
        wall1, cpu1 = time.perf_counter(), _cpu_s()
        record.update(
            exit_code=code,
            wall_s=wall1 - wall0,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            record["spans"] = tracer.spans
    with open(args.record, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
