"""Measure the benchmark's own steadiness and record the baseline.

Runs every workload on ``--seeds`` seeds, in ``--sets`` sets with disjoint
seeds, plus one traced run per workload, and writes ``baseline.json``: each
run's metrics, and per end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (interquartile distance
over the median) and, between sets, how far the later median is worse than
the first.  Run from the repository root:

    python3 perfbench/baseline.py --sets 2 --seeds 10
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "elapsed_s": time.monotonic() - start,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs: list[dict]) -> dict:
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        out[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "spread_within_third_of_bound": spread <= m["bound"] / 3}
    return out


def worse_by(metric: dict, first: float, later: float) -> float:
    change = (later - first) / first
    return change if metric["better"] == "lower" else -change


def hardware() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "machine": platform.machine(),
            "python": platform.python_version()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    names = [w["name"] for w in SPEC["workloads"]]
    record = {"hardware": hardware(), "run_seconds": SPEC["run_seconds"], "sets": [], "traced": {}}

    def save():
        (BENCH / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")

    for k in range(args.sets):
        seeds = range(1 + 100 * k, 1 + 100 * k + args.seeds)
        current = {}
        record["sets"].append({"seeds": list(seeds), "workloads": current})
        for name in names:
            runs = []
            current[name] = {"runs": runs}
            for seed in seeds:
                runs.append(run_once(name, seed, 0))
                save()
            current[name]["summary"] = summary(runs)
            print(name, json.dumps(current[name]["summary"]), flush=True)
    if len(record["sets"]) > 1:
        first = record["sets"][0]["workloads"]
        record["worse_by_vs_first_set"] = {
            name: {
                m["name"]: [
                    worse_by(m, first[name]["summary"][m["name"]]["median"],
                             later["workloads"][name]["summary"][m["name"]]["median"])
                    for later in record["sets"][1:]
                ]
                for m in SPEC["end_to_end"]
            }
            for name in names
        }
    for name in names:
        record["traced"][name] = run_once(name, 1000, 1)
        save()
    save()


if __name__ == "__main__":
    main()
