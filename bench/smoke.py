#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at tiny size.

    python3 bench/smoke.py

Runs every workload untraced and traced at a population of 5,000 with 10
draws or 1 replicate per chunk, and checks that each run exits cleanly, that
its last line has the result keys and the metrics BENCHMARK.json lists, that
every metric the benchmark defines is printed with its unit, that the output
checks pass, and that the traced run gives the same output digests as the
untraced one on the chunks both ran (the wrappers change no result).  pytest collects only
``tests/``, so this stays out of the Tier-1 run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import E2E_UNITS, ROOT, SPEC_FILE, WORKLOADS
from spans import LAYER_METRICS

TINY = ("--population", "5000", "--seconds", "1")
TINY_CHUNK = {"resample": 10}  # draws; the studies run 1 replicate


def run(workload: str, trace: int):
    size = TINY_CHUNK.get(workload, 1)
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--trace", str(trace), "--size", str(size), *TINY]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    return lines, json.loads(lines[-1]), detail


def check_run(workload, trace, lines, result, listed) -> list:
    where = f"{workload} trace {trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct {result['correct']}, attempted {result['attempted']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != listed:
        problems.append(f"{where}: result metrics {got} differ from BENCHMARK.json {listed}")
    defined = E2E_UNITS if trace == 0 else {k: v[0] for k, v in LAYER_METRICS.items()}
    for name, unit in defined.items():
        if not any(line.startswith(f"  {name} ") and line.endswith(f" {unit}") for line in lines):
            problems.append(f"{where}: {name} not printed with unit {unit}")
    return problems


def main() -> int:
    spec = json.loads(SPEC_FILE.read_text())
    listed = {0: {e["name"]: e["unit"] for e in spec["end_to_end"]},
              1: {e["name"]: e["unit"] for e in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        digests = []
        for trace in (0, 1):
            lines, result, detail = run(workload, trace)
            problems += check_run(workload, trace, lines, result, listed[trace])
            digests.append(detail["digests"])
            if trace:
                digests.append(detail["untraced_digests"])
        traced_chunks = len(digests[1])
        digests[0] = digests[0][:traced_chunks]  # the untraced run times the whole cycle
        if any(d != digests[0] for d in digests):
            problems.append(f"{workload}: output digests differ across runs and passes {digests}")
        print(f"{workload}: digests {digests[0]}", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
