#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
simulator library and the perfbench binary under .bench_build/ (Release);
later runs only rebuild what changed. The binary's human-readable report and
host/build fingerprint go to stdout; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. A JSON record with the
fingerprint and every sample, and with --trace 1 the span dump, are written
to .bench_build/perfbench-results/.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RESULTS_DIR = ROOT / ".bench_build" / "perfbench-results"
WORKLOADS = ("fig7_engine", "fig8_graph", "fig7_hostile_batched")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build() -> Path:
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no simulator sources next to {BENCH_DIR}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return BUILD_DIR / "perfbench"


def git_sha() -> str:
    """HEAD of the repository, or "unknown" outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def parse_result(line: str) -> dict:
    result = json.loads(line)
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        raise ValueError("result line has the wrong keys")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (not a measurement)")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--record", str(RESULTS_DIR / f"{stem}.json")]
    if args.trace:
        cmd += ["--spans", str(RESULTS_DIR / f"{stem}-spans.json")]
    if args.tiny:
        cmd.append("--tiny")
    # The bench_util.h environment knobs would change the workloads.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPLICER_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    try:
        if proc.returncode != 0 or not lines:
            raise ValueError(f"perfbench exited with code {proc.returncode}")
        parse_result(lines[-1])
    except ValueError as err:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no valid result: {err}", file=sys.stderr)
        return 3
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
