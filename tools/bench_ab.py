"""End-to-end A/B runs of a parent commit and this checkout on one
perfbench workload, written as the ``ab`` section of a BENCH_<tag>.json file.

    python tools/bench_ab.py --parent DIR --workload W --out BENCH_<tag>.json
        [--pairs N] [--seconds S] [--seed K]

Each tree runs its own ``perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` as a fresh process: ``DIR``, a checkout of the parent
commit, under the label ``parent``, and this checkout under ``change``.  A
pair is one run of each label at the same seed, ``K + i`` for pair ``i``.
The label that runs first alternates from pair to pair, the parent first in
even pairs, so drift of the machine's speed during the A/B hits both labels
alike instead of reading as a difference.

``ab[W]`` of ``--out`` is written with:

* ``run``: the workload, pairs, seconds per run, first seed, interpreter and
  CPU count, and ``wall_s``, the length of the whole A/B;
* ``pairs``: per pair its seed, the label that ran first, and per label the
  run's ``correct``, ``attempted``, ``failed`` and the value of each metric
  from the last line ``run.py`` prints, or ``error`` for a run that exited
  non-zero or printed no result;
* ``metrics``: per end-to-end metric of ``BENCHMARK.json`` that both labels
  reported, the direction that is better, each label's median, the
  change/parent ratio of the medians, the parent's quartiles, and
  ``change_wins``, the number of pairs in which the change was better, out
  of ``compared``, the pairs in which both labels reported it;
* ``correct``: whether every run of both labels completed and was correct.

Every other key of the file is kept, so the A/B of each workload goes in
after ``tools/bench_layers.py``, which writes its ``rows`` into a fresh
file.
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

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {metric["name"]: metric["better"] for metric in BENCHMARK["end_to_end"]}
LABELS = ("parent", "change")


def run_tree(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``tree``'s own benchmark, summarized as ``pairs`` records
    it, or ``{"error": reason}``."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                              timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired as exc:
        return {"error": f"timed out after {exc.timeout:.0f} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        return {"correct": result["correct"], "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {name: metric["value"] for name, metric in result["metrics"].items()}}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return {"error": f"malformed output: {exc!r}"}


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(pairs: list[dict]) -> dict:
    """The ``metrics`` entry of the pairs' end-to-end metrics."""
    summary = {}
    for name, better in BETTER.items():
        values = {label: [pair[label]["metrics"][name] for pair in pairs
                          if name in pair[label].get("metrics", {})] for label in LABELS}
        if not all(values.values()):
            continue
        both = [(pair["parent"]["metrics"][name], pair["change"]["metrics"][name]) for pair in pairs
                if all(name in pair[label].get("metrics", {}) for label in LABELS)]
        parent, change = (statistics.median(values[label]) for label in LABELS)
        q1, q3 = _quartiles(values["parent"])
        summary[name] = {
            "better": better,
            "parent_median": parent,
            "change_median": change,
            "ratio": change / parent,
            "parent_q1": q1,
            "parent_q3": q3,
            "change_wins": sum(c > p if better == "higher" else c < p for p, c in both),
            "compared": len(both),
        }
    return summary


def compare(trees: dict[str, Path], workload: str, pairs: int, seconds: float, seed: int,
            run=run_tree) -> dict:
    """The ``ab`` entry of ``workload``: ``pairs`` pairs of ``run`` calls,
    one per label of ``trees``, in alternating order."""
    start = time.monotonic()
    records = []
    for i in range(pairs):
        order = LABELS if i % 2 == 0 else LABELS[::-1]
        record = {"seed": seed + i, "first": order[0]}
        for label in order:
            record[label] = run(trees[label], workload, seed + i, seconds)
        records.append(record)
    return {
        "run": {"workload": workload, "pairs": pairs, "seconds": seconds, "seed": seed,
                "python": platform.python_version(), "cpus": os.cpu_count(),
                "wall_s": time.monotonic() - start},
        "pairs": records,
        "metrics": summarize(records),
        "correct": all(record[label].get("correct") is True for record in records for label in LABELS),
    }


def write(out: Path, workload: str, ab: dict) -> None:
    """Put ``ab`` under ``ab[workload]`` of ``out``, keeping the rest."""
    bench = json.loads(out.read_text()) if out.exists() else {}
    bench.setdefault("ab", {})[workload] = ab
    out.write_text(json.dumps(bench, indent=1) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<tag>.json file to write into")
    parser.add_argument("--pairs", type=int, default=10, help="runs per label (default 10)")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of each run (default BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair (default 1)")
    args = parser.parse_args()
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    trees = {"parent": args.parent.resolve(), "change": ROOT}
    ab = compare(trees, args.workload, args.pairs, args.seconds, args.seed)
    write(args.out, args.workload, ab)
    for name, metric in ab["metrics"].items():
        print(f"{args.workload} {name}: {metric['parent_median']:.6g} -> {metric['change_median']:.6g}"
              f" (change better in {metric['change_wins']}/{metric['compared']})")
    print(f"correct: {ab['correct']}")


if __name__ == "__main__":
    main()
