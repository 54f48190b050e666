"""The benchmark's own test: counts that do not depend on the machine repeat exactly.

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice with tracing on and the same seed, and fails
unless both runs check out correct and agree exactly on every count:
records per op and status, quadrature evaluations by kind, Monte-Carlo
samples, exact points, checks, and the calls into each layer.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}\n{proc.stderr}")
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return report, result


def _counts(report: dict, result: dict) -> dict:
    counts = {"counters": report["counters"], "trace_counters": report["trace_counters"]}
    counts["metrics"] = {k: v["value"] for k, v in result["metrics"].items()
                         if v["unit"] in ("count", "eps")}
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = 0
    for workload in ("batch-closed", "batch-numeric", "verify-exact"):
        first, second = (_run(workload, args.seed) for _ in range(2))
        a, b = _counts(*first), _counts(*second)
        correct = first[1]["correct"] and second[1]["correct"]
        same = a == b
        failures += not (correct and same)
        print(f"{workload}: correct={correct} counts_repeat={same} "
              f"({sum(len(v) for v in a.values())} counts)")
        if not same:
            for key in a:
                for name in sorted(set(a[key]) | set(b[key])):
                    if a[key].get(name) != b[key].get(name):
                        print(f"  {key}.{name}: {a[key].get(name)} != {b[key].get(name)}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
