"""Smoke test of the benchmark itself: every workload at a tiny shape.

Run from the root of a checkout; it takes a few seconds per workload:

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it checks that
- an untraced run prints every end-to-end metric with its unit, and a
  traced run every per-layer metric, with all checks passing;
- tracing leaves the outputs (reports, metrics.json, checkpoint) unchanged;
- two traced runs with one seed give identical counts;
- another seed changes the inputs but not the metric names.
It also checks that the benchmark fails, without a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import workloads as wl

RUN = Path(__file__).resolve().parent / "run.py"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Per-layer metrics that count work rather than time it.
COUNT_SUFFIXES = ("calls_per_request", ".calls", "_share_per_request",
                  "sentences_selected_per_call", "covered_keyword_share")


def run(workload: str, seed: int, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "30", "--trace", str(trace), "--shape", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def parse(completed: subprocess.CompletedProcess, problems: list[str], label: str) -> dict:
    if completed.returncode != 0:
        problems.append(f"{label}: exit {completed.returncode}: {completed.stderr[-500:]}")
        return {"context": {}, "digest": {}, "result": {"metrics": {}}}
    lines = [json.loads(line) for line in completed.stdout.strip().splitlines()[-3:]]
    context, digest, result = lines[0]["context"], lines[1]["digest"], lines[2]
    if set(result) != RESULT_KEYS:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result["attempted"] < 1:
        problems.append(f"{label}: checks failed: {completed.stderr[-500:]}")
    return {"context": context, "digest": digest, "result": result}


def check_metrics(metrics: dict, declared: list[dict], label: str, problems: list[str],
                  nonzero: bool) -> None:
    for entry in declared:
        got = metrics.get(entry["name"])
        if got is None:
            problems.append(f"{label}: metric {entry['name']} missing")
        elif got["unit"] != entry["unit"]:
            problems.append(f"{label}: {entry['name']} unit {got['unit']}, expected {entry['unit']}")
        elif not math.isfinite(got["value"]) or (nonzero and got["value"] == 0):
            problems.append(f"{label}: {entry['name']} reads {got['value']}")


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []

    for entry in bench["workloads"]:
        name = entry["name"]
        if name not in wl.WORKLOADS or wl.WORKLOADS[name].why != entry["why"]:
            problems.append(f"{name}: BENCHMARK.json and workloads.py disagree")
            continue
        plain = parse(run(name, 1, 0, root), problems, f"{name} seed 1")
        traced = parse(run(name, 1, 1, root), problems, f"{name} seed 1 traced")
        again = parse(run(name, 1, 1, root), problems, f"{name} seed 1 traced again")
        other = parse(run(name, 2, 0, root), problems, f"{name} seed 2")

        check_metrics(plain["result"]["metrics"], bench["end_to_end"], name, problems, True)
        check_metrics(traced["result"]["metrics"], bench["per_layer"], name, problems, False)
        if plain["digest"].get("outputs") != traced["digest"].get("outputs"):
            problems.append(f"{name}: tracing changed the outputs")
        for metric, value in traced["result"]["metrics"].items():
            if metric.endswith(COUNT_SUFFIXES) and again["result"]["metrics"].get(metric) != value:
                problems.append(f"{name}: count {metric} differs between two traced runs")
        if other["digest"].get("inputs") == plain["digest"].get("inputs"):
            problems.append(f"{name}: seed 2 made the same inputs as seed 1")
        if set(other["result"]["metrics"]) != set(plain["result"]["metrics"]):
            problems.append(f"{name}: seed 2 reports other metric names")
        counts = {m: v["value"] for m, v in traced["result"]["metrics"].items()
                  if m.endswith("calls_per_request")}
        print(f"{name}: {len(plain['result']['metrics'])} end-to-end and "
              f"{len(traced['result']['metrics'])} per-layer metrics; counts {counts}")

    # Without the program's sources the benchmark must fail and print no result.
    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [*bench["command"], "--workload", bench["workloads"][0]["name"], "--seed", "1",
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if completed.returncode == 0 or '"metrics"' in completed.stdout:
            problems.append("benchmark did not fail in a directory without the program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
