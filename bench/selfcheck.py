#!/usr/bin/env python3
"""Smoke-sized self-check of the benchmark.

    python3 bench/selfcheck.py

Runs every workload of BENCHMARK.json on tiny inputs, untraced and traced,
and checks that each run exits 0, that its last line carries exactly the
metrics BENCHMARK.json names with their units, and that the correctness
gate ran.  Also checks that bench/layers.json maps every per-layer metric.
Exits 1 on the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(cond, message):
    if not cond:
        sys.exit(f"selfcheck: {message}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((ROOT / "bench" / "layers.json").read_text())
    mapped = [m["name"] for m in layers["metrics"]]
    check(sorted(mapped) == sorted(m["name"] for m in spec["per_layer"]),
          "bench/layers.json and BENCHMARK.json per_layer name different metrics")

    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
                   workload["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace),
                   "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
            where = f"{workload['name']} --trace {trace}"
            check(out.returncode == 0, f"{where} exited {out.returncode}:\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{where}: metrics/units differ from BENCHMARK.json {key}")
            check(all(isinstance(m["value"], float) for m in result["metrics"].values()),
                  f"{where}: a metric value is not a number")
            check(result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"],
                  f"{where}: gate did not run ({result['attempted']} attempted)")
            check(result["correct"] == (result["failed"] == 0), f"{where}: correct flag")
            print(f"selfcheck: {where}: {len(got)} metrics, "
                  f"{result['failed']}/{result['attempted']} ops failed")
    print("selfcheck: ok")


if __name__ == "__main__":
    main()
