"""Smoke test of the benchmark itself, on shrunken copies of its workloads.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at T=200 (n=1e3 for
Monte-Carlo), checks that every metric named in BENCHMARK.json is reported
with its unit, and checks that the correctness gate rejects doctored
certificates.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import gate
import workloads


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL {message}")
    print(f"smoke: ok {message}")


def check_metrics(spec: dict) -> None:
    for trace, key, units in ((0, "end_to_end", run.END_TO_END_UNITS),
                              (1, "per_layer", run.per_layer_units())):
        for name in workloads.NAMES:
            result = run.run_workload(name, seed=3, seconds=0, trace=bool(trace), shrink=True)
            check(result["failed"] == 0 and not result["problems"],
                  f"{name} trace={trace}: no failures {result['problems'][:3]}")
            wrong = [m["name"] for m in spec[key]
                     if m["name"] not in result["metrics"] or units[m["name"]] != m["unit"]]
            check(not wrong, f"{name} trace={trace}: every {key} metric reported "
                             f"with its unit {wrong}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            check(not extra, f"{name} trace={trace}: no metric outside BENCHMARK.json {extra}")


def check_gate() -> None:
    load = workloads.build("mc-crosscheck", seed=0, shrink=True)
    scratch = run.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(load.config))
        record, out, err = run.Runner(work).child(config, load.command)
        check(record is not None, f"shrunken mc-crosscheck runs {err}")
        failed, problems = gate.check_outputs(out, record["exit_code"], 1, 1)
        check(failed == 0 and not problems, f"untouched outputs pass {problems}")
        cert_path = next(out.glob("*/*/cert.json"))
        original = json.loads(cert_path.read_text())
        exact_at = next(i for i, e in enumerate(original) if e["exact_divergence"] is not None)

        def doctored(field: str, value: float) -> tuple[int, list]:
            cert = json.loads(json.dumps(original))
            cert[exact_at][field] = value
            cert_path.write_text(json.dumps(cert))
            return gate.check_outputs(out, 0, 1, 1)

        entry = original[exact_at]
        failed, problems = doctored("exact_divergence", 2.0 * entry["analytic_bound"] + 1e-6)
        check(failed == 1 and any("> analytic" in p for p in problems),
              "a cert.json with exact > analytic fails")
        sigma = gate.mc_sigma(load.config["unlearner"]["alpha"], entry["exact_divergence"],
                              load.config["mc_samples"])
        failed, problems = doctored("mc_estimate", entry["exact_divergence"] + 5.0 * sigma)
        check(failed == 1 and any("sigma from exact" in p for p in problems),
              "a Monte-Carlo estimate 5 sigma off fails")
        failed, _ = doctored("mc_estimate", entry["exact_divergence"] + 3.0 * sigma)
        check(failed == 0, "a Monte-Carlo estimate 3 sigma off passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_gate()
    check_metrics(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
