"""Steadiness check: two sets of runs of the same code, compared.

    python3 bench/steady.py [--first-seed 1]

Runs ``bench/run.py`` (untraced) five times per set on every workload of
BENCHMARK.json, each run with its own seed counting up from --first-seed,
alternating the two sets run by run.  For every end-to-end metric and
workload it prints the median of each set, how far the second median lies
from the first, the spread over all runs (distance between the first and
third quartile as a share of the median) and the metric's bound from
BENCHMARK.json, and the failed share of each set.
All results go to .bench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 5  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900, check=True, cwd=ROOT,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    seed = args.first_seed
    for workload in (w["name"] for w in spec["workloads"]):
        sets = ([], [])
        for _ in range(RUNS):
            for s in sets:
                result = run_once(workload, seed, spec["run_seconds"])
                s.append({"seed": seed, **result})
                print(f"{workload} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f" failed {result['failed']}/{result['attempted']}"
                    + ("" if result["correct"] else " INCORRECT"), flush=True)
                seed += 1
        results[workload] = sets

    print(f"\n{'workload':16} {'metric':12} {'median 1':>10} {'median 2':>10} "
          f"{'shift':>7} {'spread':>7} {'bound':>6}")
    for workload, sets in results.items():
        for metric, bound in bounds.items():
            a = [r["metrics"][metric]["value"] for r in sets[0]]
            b = [r["metrics"][metric]["value"] for r in sets[1]]
            m1, m2 = statistics.median(a), statistics.median(b)
            print(f"{workload:16} {metric:12} {m1:10.4f} {m2:10.4f} "
                  f"{(m2 - m1) / m1:+7.1%} {spread(a + b):7.1%} {bound:6.0%}")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s) for s in sets]
        correct = all(r["correct"] for s in sets for r in s)
        print(f"{workload:16} failed share {shares[0]:.4f} / {shares[1]:.4f}; "
              f"correct in every run: {correct}")

    out = ROOT / ".bench_out" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nruns written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
