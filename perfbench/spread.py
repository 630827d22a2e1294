#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

Usage:
  python3 perfbench/spread.py --workload NAME [--seeds 1 2 3 ...]
                              [--seconds S] [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles(values, n=4)) as a share
of that median, next to the metric's bound from BENCHMARK.json. A spread
above a third of its bound means the benchmark is not steady enough to
resolve a change of that size on this machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: {result['failed']} failed operations", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}"
                                           for n, m in result["metrics"].items()
                                           if bounds.get(n) is not None), file=sys.stderr)

    print(f"{'metric':34} {'median':>14} {'unit':>11} {'iqr/median':>10} {'bound':>6}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        flag = "  > bound/3" if bound is not None and spread > bound / 3 else ""
        print(f"{name:34} {median:14.6g} {units[name]:>11} {spread:10.4f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
