"""Benchmark: time the package's CLI end to end and per layer.

    python3 perfbench/run.py --workload stream-long --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout (``src/online_unlearning`` must be
there).  Every operation runs in a fresh interpreter with one BLAS thread.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.
``--workload all`` runs every workload in turn.  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit code
is non-zero when any operation fails the correctness gate.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5           # set-up-only interpreters per run, after one warm-up
CHILD_TIMEOUT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    """Unit of every per-layer metric, in report order."""
    units = {"setup.import_s": "s", "setup.config_s": "s"}
    units.update({f"{bucket}.s": "s" for bucket in tracing.BUCKETS})
    units.update({
        "harness.gen_stream.calls": "count",
        "runner.steps": "count",
        "runner.us_per_step": "us",
        "runner.grad_evals": "count",
        "runner.projection_bound_steps": "count",
        "regret.comparators.calls": "count",
        "certifier.ledger.rows": "count",
        "certifier.oracle.attempts": "count",
        "certifier.oracle.answered": "count",
        "certifier.oracle.coverage": "ratio",
        "certifier.propagate.calls": "count",
        "certifier.propagate.steps": "count",
        "certifier.mc.samples": "count",
        "certifier.mc.row_steps_per_s": "1/s",
        "certifier.mc.binding_events": "count",
        "rng.event_normals.calls": "count",
        "trace.bytes_written": "B",
        "tracing_overhead_s": "s",
    })
    return units


def machine_record() -> dict:
    cpu = "unknown"
    ram_mb = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                ram_mb = int(line.split()[1]) // 1024
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": ram_mb,
        "threads": {var: "1" for var in THREAD_VARS},
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "jsonschema")},
    }


class Runner:
    """Starts the child interpreters of one benchmark run, one at a time."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{var: "1" for var in THREAD_VARS})
        self._count = 0

    def child(self, config: Path, command: str | None = None,
              trace: bool = False) -> tuple[dict | None, Path | None, str]:
        """(record or None on a crash, output directory, error text)."""
        self._count += 1
        record_path = self.work / f"record-{self._count}.json"
        argv = [sys.executable, str(HERE / "child.py"),
                "--record", str(record_path), "--config", str(config)]
        out = None
        if command:
            out = self.work / f"out-{self._count}"
            argv += ["--command", command, "--out", str(out)] + (["--trace"] if trace else [])
        argv += ["--t0", repr(time.monotonic())]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, out, f"timed out after {CHILD_TIMEOUT_S} s"
        if proc.returncode != 0 or not record_path.is_file():
            return None, out, proc.stderr.strip()[-2000:]
        record = json.loads(record_path.read_text())
        record_path.unlink()
        return record, out, ""


def _median(values: list) -> float:
    return float(statistics.median(values))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 shrink: bool = False) -> dict:
    """Measure one workload; returns its result with metrics, failures and digests."""
    sys.path.insert(0, str(ROOT / "src"))
    from online_unlearning.harness import ExperimentConfig, sweep_points

    load = workloads.build(name, seed, shrink)
    cfg = ExperimentConfig.from_dict(load.config)          # schema check before timing
    points = len(sweep_points(cfg))
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    problems: list[str] = []
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(load.config, indent=2) + "\n")
        runner = Runner(work)

        setups, imports, configs = [], [], []
        for i in range(SETUP_RUNS + 1):
            record, _, err = runner.child(config_path)
            if record is None:
                raise SystemExit(f"set-up failed: {err}")
            if i > 0:                                       # the first one is the warm-up
                setups.append(record["setup_s"])
                imports.append(record["setup.import_s"])
                configs.append(record["setup.config_s"])

        # At least two untraced operations, so that byte determinism is
        # checked, or one untraced and one traced; at most a few tries more.
        ops = {False: [], True: []}                         # traced? -> records
        want = {False: 1, True: 1} if trace else {False: 2, True: 0}

        def short() -> bool:
            return any(len(ops[k]) < want[k] for k in ops)

        attempted = failed = tries = 0
        reference = None
        start = time.monotonic()
        while time.monotonic() - start < seconds or (short() and tries < 6):
            tries += 1
            traced = trace and len(ops[True]) < len(ops[False])
            record, out, err = runner.child(config_path, load.command, traced)
            attempted += load.operations
            if record is None:
                failed += load.operations
                problems.append(f"operation crashed: {err}")
                shutil.rmtree(out, ignore_errors=True)
                continue
            bad, found = gate.check_outputs(out, record["exit_code"], points, load.operations)
            digests = gate.tree_digests(out)
            record["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
            shutil.rmtree(out)
            if reference is None:
                reference = digests
            elif digests != reference:
                changed = sorted(p for p in set(digests) | set(reference)
                                 if digests.get(p) != reference.get(p))
                found.append(f"output bytes differ from the first run: {changed[:5]}")
                bad = load.operations
            failed += bad
            problems += found
            ops[traced].append(record)
            setups.append(record["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = ops[False]
    summary = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "attempted": attempted, "failed": failed, "problems": problems,
        "digest": gate.combined_digest(reference or {}),
        "files": reference or {},
        "samples": {key: [r[key] for r in untraced]
                    for key in ("wall_s", "cpu_s", "peak_rss_mb")} | {"setup_s": setups},
    }
    if short():
        summary["metrics"] = {}
        return summary
    if not trace:
        summary["metrics"] = {
            "wall_s": _median([r["wall_s"] for r in untraced]),
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
        return summary

    per_op = [tracing.layer_metrics(r["spans"], r["wall_s"]) for r in ops[True]]
    metrics = {"setup.import_s": _median(imports), "setup.config_s": _median(configs)}
    for key in per_op[0]:
        metrics[key] = _median([m[key] for m in per_op])
    metrics["trace.bytes_written"] = _median([r["bytes_written"] for r in untraced])
    metrics["tracing_overhead_s"] = (_median([r["wall_s"] for r in ops[True]])
                                     - _median([r["wall_s"] for r in untraced]))
    recorded = set.intersection(*(tracing.recorded_groups(r["spans"]) for r in ops[True]))
    for group in load.spans:
        if group not in recorded:
            print(f"warning: {name}: no call recorded for {group}; reporting null",
                  file=sys.stderr)
            for key in metrics:
                if key.startswith(group + "."):
                    metrics[key] = None
    summary["metrics"] = metrics
    summary["traced_wall_s"] = _median([r["wall_s"] for r in ops[True]])
    return summary


def _report_lines(result: dict, units: dict) -> list[str]:
    name = result["workload"]
    lines = [f"{name}: {result['attempted']} operations, {result['failed']} failed, "
             f"fail_rate {result['failed'] / result['attempted']:.4f} ratio"]
    samples = result["samples"]
    for key, value in result["metrics"].items():
        shown = "null" if value is None else f"{value:.6g}"
        extra = ""
        if key in samples:
            extra = f"  (median of {len(samples[key])})"
        lines.append(f"{name}: {key} {shown} {units[key]}{extra}")
    if result["trace"]:
        top = sorted(((v, k) for k, v in result["metrics"].items()
                      if k.endswith(".s") and v is not None), reverse=True)[:4]
        share = ", ".join(f"{k} {v / result['traced_wall_s']:.0%}" for v, k in top)
        lines.append(f"{name}: largest self times: {share}")
    lines.append(f"{name}: output digest sha256 {result['digest']} "
                 f"({len(result['files'])} files)")
    lines += [f"{name}: FAIL {problem}" for problem in result["problems"]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "online_unlearning" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    machine = machine_record()
    print("machine: " + json.dumps(machine, sort_keys=True))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result["machine"] = machine
        results.append(result)
        for line in _report_lines(result, units):
            print(line)
        record = ROOT / ".perfbench" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")

    prefix = len(names) > 1
    metrics = {
        (f"{r['workload']}.{key}" if prefix else key): {"value": value, "unit": units[key]}
        for r in results for key, value in r["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
