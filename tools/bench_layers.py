"""Per-layer timings of the verify path, as rows of a BENCH_<tag>.json file.

    python tools/bench_layers.py --label NAME --out BENCH_<tag>.json [--src DIR] [--repeats N]

Every row is timed in fresh interpreter processes that import ``isopair``
from ``--src`` (default: this checkout's ``src``), so a checkout of another
commit is measured by the same script.  The rows:

* ``verify.<anchor>``: each anchor of ``run_verification(36)``, in the order
  and cache state a cold ``isopair verify --budget 36`` process meets them.
  The time of an anchor runs from the end of the previous anchor to its own
  ``AnchorResult``, read by wrapping ``verification._result``, which
  ``run_verification`` calls once per anchor right after its check;
* ``theta.theta11_<kernel>`` of L1 at budgets 24 and 36;
* ``discrepancy.delta_<route>`` at budgets 24 and 36, and the psi route
  alone at budgets 40, 80 and 160;
* ``discrepancy.certify_warm``: the median time of one ``certify`` call at
  budget 40 over 200 fixed points, after one untimed warm-up call.

The theta, delta and certify rows each run in their own process.  Each row
reports the median and quartiles of ``--repeats`` processes.  Rows already
in ``--out`` under another label are kept, so the rows of two commits sit
side by side; rows under ``--label`` are replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERIFY_BUDGET = 36
BUDGETS = (24, 36)
PSI_BUDGETS = (40, 80, 160)
CERTIFY_BUDGET = 40
CERTIFY_POINTS = 200


def _anchor_times() -> list[dict]:
    from isopair import verification

    rows = []
    wrapped = verification._result
    mark = time.perf_counter()

    def timed(name, witness):
        nonlocal mark
        rows.append({"layer": f"verify.{name}", "budget": VERIFY_BUDGET,
                     "seconds": time.perf_counter() - mark})
        out = wrapped(name, witness)
        mark = time.perf_counter()
        return out

    verification._result = timed
    verification.run_verification(VERIFY_BUDGET)
    return rows


def _theta_time(kernel: str, budget: int) -> list[dict]:
    from isopair import Kernel, build_family, theta11

    lattice = build_family().L1
    start = time.perf_counter()
    theta11(lattice, budget, Kernel(kernel))
    return [{"layer": f"theta.theta11_{kernel}", "budget": budget,
             "seconds": time.perf_counter() - start}]


def _delta_time(route: str, budget: int) -> list[dict]:
    from isopair import Route, build_family, delta_series

    build_family()
    start = time.perf_counter()
    delta_series(budget, Route(route))
    return [{"layer": f"discrepancy.delta_{route}", "budget": budget,
             "seconds": time.perf_counter() - start}]


def _certify_time() -> list[dict]:
    from isopair import ParamPoint, certify

    rng = random.Random(0)  # the same points for every commit
    points = []
    while len(points) < CERTIFY_POINTS + 1:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)}
        if len(values) == 4:
            points.append(ParamPoint(*values))
    certify(points[0], CERTIFY_BUDGET)
    seconds = []
    for point in points[1:]:
        start = time.perf_counter()
        certify(point, CERTIFY_BUDGET)
        seconds.append(time.perf_counter() - start)
    return [{"layer": "discrepancy.certify_warm", "budget": CERTIFY_BUDGET,
             "seconds": statistics.median(seconds)}]


def _jobs() -> list[list[str]]:
    jobs = [["anchors"]]
    for budget in BUDGETS:
        jobs += [["theta", kernel, str(budget)] for kernel in ("defining", "pairwise")]
        jobs += [["delta", route, str(budget)] for route in ("theta", "psi")]
    jobs += [["delta", "psi", str(budget)] for budget in PSI_BUDGETS]
    return jobs + [["certify"]]


def _child(job: list[str]) -> list[dict]:
    if job[0] == "anchors":
        return _anchor_times()
    if job[0] == "certify":
        return _certify_time()
    kind, name, budget = job
    return (_theta_time if kind == "theta" else _delta_time)(name, int(budget))


def _run(src: Path, job: list[str]) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", *job],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout)


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(src: Path, label: str, repeats: int) -> list[dict]:
    runs: dict[tuple[str, int], list[float]] = {}
    for _ in range(repeats):
        for job in _jobs():
            for row in _run(src, job):
                runs.setdefault((row["layer"], row["budget"]), []).append(row["seconds"])
    rows = []
    for (layer, budget), xs in runs.items():
        q1, median, q3 = _quartiles(xs)
        rows.append({"label": label, "layer": layer, "budget": budget, "median_s": median,
                     "q1_s": q1, "q3_s": q3, "runs_s": xs})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of the measured commit, e.g. parent or change")
    parser.add_argument("--out", type=Path, help="BENCH_<tag>.json file to update")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package sources to import")
    parser.add_argument("--repeats", type=int, default=7, help="fresh processes per row")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(_child(args.child), sys.stdout)
        return
    if not args.label or not args.out:
        parser.error("--label and --out are required")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    rows = [row for row in bench.get("rows", []) if row["label"] != args.label]
    rows += measure(args.src.resolve(), args.label, args.repeats)
    bench = {
        "script": "tools/bench_layers.py",
        "machine": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "rows": rows,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")


if __name__ == "__main__":
    main()
