#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes (seconds, no timing claims).

Usage: python3 perfbench/smoke_test.py

For every workload, untraced and traced, it checks that run.py exits 0 and
ends with a result line holding exactly correct/attempted/failed/metrics;
that no operation failed; that every end-to-end (untraced) or per-layer
(traced) metric BENCHMARK.json names is emitted with its unit; that the
output checks ran on every run_scheme call; that the record carries the
fingerprint; and that the span dump parses, with every span inside its
parent. Last, it checks that run.py fails without a result in a directory
that holds only BENCHMARK.json and perfbench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".bench_build" / "perfbench-results"
FINGERPRINT_KEYS = {"cpu_model", "nproc", "compiler", "build_type", "git_sha", "workload",
                    "seed", "passes", "trace"}
SCHEMES = 6


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=900)


def check_spans(path: Path) -> None:
    spans = json.loads(path.read_text())["spans"]
    assert spans, "no spans recorded"
    for i, span in enumerate(spans):
        assert span["id"] == i and span["start_ns"] <= span["end_ns"], span
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] <= span["end_ns"] <= parent["end_ns"], span


def check_workload(spec: dict, workload: str) -> float:
    """Runs both invocations; returns the traced/untraced payments_per_s ratio."""
    per_second = {}
    for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, proc.stderr
        for metric in expected:
            got = result["metrics"].get(metric["name"])
            assert got is not None, f"{workload}: {metric['name']} missing"
            assert got["unit"] == metric["unit"], f"{workload}: {metric['name']} unit {got['unit']}"
            assert isinstance(got["value"], (int, float)), metric["name"]

        stem = f"{workload}-seed7-trace{trace}-tiny"
        record = json.loads((RESULTS / f"{stem}.json").read_text())
        assert set(record["fingerprint"]) == FINGERPRINT_KEYS, record["fingerprint"]
        passes = record["fingerprint"]["passes"]
        assert passes == len(record["pass_ms"]) >= 1
        assert len(record["setup_s"]) == 5 * (passes + 1)
        # One outcome run, the warm-up pass and every timed pass went
        # through the checks; the traced run adds its set-up replay.
        assert result["attempted"] == 1 + SCHEMES * (passes + 1) + trace, result["attempted"]
        if trace:
            check_spans(RESULTS / f"{stem}-spans.json")
            per_second["traced"] = result["metrics"]["traced.payments_per_s"]["value"]
        else:
            per_second["untraced"] = result["metrics"]["payments_per_s"]["value"]
    return per_second["traced"] / per_second["untraced"]


def check_fails_without_sources(spec: dict) -> None:
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "fig7_engine", 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without the simulator sources"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without sources"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        ratio = check_workload(spec, workload)
        print(f"{workload}: ok (tiny traced/untraced payments_per_s = {ratio:.3f})")
    check_fails_without_sources(spec)
    print("without sources: fails with no result, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
