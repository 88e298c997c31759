"""Per-layer timings of a parent commit and this checkout, as rows of a
BENCH_<tag>.json file.

    python tools/bench_layers.py --parent DIR --out BENCH_<tag>.json [--repeats N]

Every row is timed in fresh interpreter processes that import ``isopair``
from ``DIR/src`` (label ``parent``, a checkout of the parent commit) or from
this checkout's ``src`` (label ``change``), so both commits are measured by
the same script.  For each repeat and each row the two labels run back to
back, in alternating order, so drift of the machine's speed during the run
hits both labels alike instead of reading as a difference.  The rows:

* ``verify.<anchor>``: each anchor of ``run_verification(36)``, in the order
  and cache state a cold ``isopair verify --budget 36`` process meets them.
  An anchor's time is the call ``verification._result(name, check)`` that
  runs its check; the job wraps ``_result`` to time each call.  The
  cyclic garbage collector is off in this job from before it calibrates and
  imports ``isopair``: with it on, each anchor row absorbs whichever collection
  happens to fall inside it, so an anchor whose code did not change reads
  slower when the modules imported at start-up change (``verify.code
  census`` read 7.7 -> 9.0 ms in ``BENCH_pr11.json`` that way);
* ``theta.theta11_<kernel>`` of L1 at budgets 24 and 36;
* ``discrepancy.delta_<route>`` at budgets 24 and 36, and the psi route
  alone at budgets 40, 80 and 160.  The labelled shell and the class series
  are cleared before each call, so every call does the work of a first
  call instead of reading the psi route's caches;
* ``discrepancy.certify_first`` at budgets 40 and 80: the first
  ``certify`` call at the budget in a fresh process, after
  ``build_family``; it pays every one-time cost of the budget (the labelled
  shell, the class series and the leading data with its checks);
* ``discrepancy.certify_warm`` at budgets 40 and 80: the median time of one
  ``certify`` call at the budget over 200 fixed points, after that first
  call;
* ``qarith.collapse`` at budgets 40 and 80: the median time of collapsing
  the psi-route discrepancy series at the same 200 points, sorted as
  ``certify`` sorts them;
* ``qarith.param_point``: the median time of building a ``ParamPoint`` from
  the four Fractions of each of the same 200 points, the step a caller pays
  before each ``certify`` call and ``certify_warm`` leaves out;
* ``cli.import``: ``import isopair.cli``, timed inside a fresh
  ``python -c`` process that imports nothing else first, so the standard
  library modules the CLI needs count too;
* ``cli.certify_process`` and ``cli.verify_process``: the wall time of a
  whole ``python -m isopair certify --params 1 7 13 19 --format json`` or
  ``python -m isopair verify --budget 36 --format json`` process,
  interpreter start included;
* ``null.fixed_work``: the median time of a fixed workload of integer and
  dict arithmetic that reads nothing of either source, timed in a child as
  the theta and delta rows are.  Both labels run the same code, so the
  ratio of their medians is this file's noise floor: a per-layer
  difference inside it is not resolved.

The theta, delta and null rows time the median of ``CALLS`` calls within
one process, so that a row is not one call's millisecond-scale noise.  The
anchor and ``certify_first`` rows measure one-time costs (the code census
and the caches a budget fills), which a second call in the same process
would not pay, so they stay one call per fresh process.  Each job runs in
its own process; each row reports, per label, the median and quartiles of
``--repeats`` processes.  ``--out`` is written afresh.

On a shared machine the speed drifts by up to a fifth within seconds, so
every timing is also rescaled to a reference speed with
``perfbench/calibrate.py``.  The theta, delta and null rows calibrate
between their calls and scale each call by ``scale(before, after)`` of the
calibrations on either side of it before taking the median
(``_median_row``), so a call is rescaled by the speed of the stretch it ran
in.  Every other child job runs its calibration workload before and after
its timed work and scales each of its rows by ``scale(before, after)``, and
``_run`` does the same around the ``cli.import``, ``cli.certify_process``
and ``cli.verify_process`` processes it starts.  A row keeps its raw
``median_s``, ``q1_s``, ``q3_s`` and ``runs_s`` and adds the calibrated
``calibrated_median_s``, ``calibrated_q1_s`` and ``calibrated_q3_s``.

Child processes load the package from cached bytecode, as an installed
package is loaded: they run without ``PYTHONDONTWRITEBYTECODE``, and each
source gets one untimed ``import isopair.cli, isopair.verification`` before
any row is timed, which writes the cache.  Otherwise the start-up rows would
time compiling the sources.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
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
_spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
_calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_calibration)
calibrate, scale = _calibration.calibrate, _calibration.scale
VERIFY_BUDGET = 36
BUDGETS = (24, 36)
PSI_BUDGETS = (40, 80, 160)
CERTIFY_BUDGETS = (40, 80)
CERTIFY_POINTS = 200
COLLAPSE_BUDGETS = (40, 80)
CALLS = 9
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); import isopair.cli; "
    "print(time.perf_counter() - start)"
)
CERTIFY_ARGV = ("-m", "isopair", "certify", "--params", "1", "7", "13", "19", "--format", "json")
VERIFY_ARGV = ("-m", "isopair", "verify", "--budget", str(VERIFY_BUDGET), "--format", "json")
# whole-process rows: layer, the budget the process runs at, argv
PROCESSES = {
    "certify_process": ("cli.certify_process", 40, CERTIFY_ARGV),  # the CLI's default budget
    "verify_process": ("cli.verify_process", VERIFY_BUDGET, VERIFY_ARGV),
}
NULL_ROUNDS = 20000


def _anchor_times() -> list[dict]:
    from isopair import verification

    rows = []
    wrapped = verification._result

    def timed(name, check):
        start = time.perf_counter()
        out = wrapped(name, check)
        rows.append({"layer": f"verify.{name}", "budget": VERIFY_BUDGET,
                     "seconds": time.perf_counter() - start})
        return out

    verification._result = timed
    verification.run_verification(VERIFY_BUDGET)
    return rows


def _median_row(layer: str, budget: int | None, call, before=lambda: None) -> dict:
    """A row of the median of ``CALLS`` calls, raw and calibrated.  The
    speed is calibrated between calls, as ``perfbench/run.py``'s
    ``Speed.step`` calibrates between operations, and each call is scaled by
    the calibrations on either side of it before the median is taken."""
    seconds, calibrated = [], []
    last = calibrate()
    for _ in range(CALLS):
        before()
        start = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - start)
        after = calibrate()
        calibrated.append(seconds[-1] * scale(last, after))
        last = after
    return {"layer": layer, "budget": budget, "seconds": statistics.median(seconds),
            "calibrated_s": statistics.median(calibrated)}


def _theta_time(kernel: str, budget: int) -> list[dict]:
    from isopair import Kernel, build_family, theta11

    lattice = build_family().L1
    return [_median_row(f"theta.theta11_{kernel}", budget,
                        lambda: theta11(lattice, budget, Kernel(kernel)))]


def _delta_time(route: str, budget: int) -> list[dict]:
    from isopair import Route, build_family, delta_series
    from isopair import discrepancy

    def clear():
        discrepancy._labelled_shell.cache_clear()
        discrepancy.class_pair_series.cache_clear()

    build_family()
    return [_median_row(f"discrepancy.delta_{route}", budget,
                        lambda: delta_series(budget, Route(route)), clear)]


def _values() -> list[tuple[Fraction, ...]]:
    rng = random.Random(0)  # the same points for every commit
    points = []
    while len(points) < CERTIFY_POINTS + 1:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)}
        if len(values) == 4:
            points.append(tuple(values))
    return points


def _points():
    from isopair import ParamPoint

    return [ParamPoint(*values) for values in _values()]


def _certify_time(budget: int) -> list[dict]:
    from isopair import build_family, certify

    points = _points()
    build_family()
    start = time.perf_counter()
    certify(points[0], budget)
    first = time.perf_counter() - start
    seconds = []
    for point in points[1:]:
        start = time.perf_counter()
        certify(point, budget)
        seconds.append(time.perf_counter() - start)
    return [{"layer": "discrepancy.certify_first", "budget": budget, "seconds": first},
            {"layer": "discrepancy.certify_warm", "budget": budget,
             "seconds": statistics.median(seconds)}]


def _collapse_time(budget: int) -> list[dict]:
    from isopair import ParamPoint, delta_series

    series = delta_series(budget)
    points = [ParamPoint(*sorted(values)) for values in _values()]
    series.collapse(points[0])
    seconds = []
    for point in points[1:]:
        start = time.perf_counter()
        series.collapse(point)
        seconds.append(time.perf_counter() - start)
    return [{"layer": "qarith.collapse", "budget": budget,
             "seconds": statistics.median(seconds)}]


def _param_point_time() -> list[dict]:
    from isopair import ParamPoint

    points = _values()
    ParamPoint(*points[0])
    seconds = []
    for values in points[1:]:
        start = time.perf_counter()
        ParamPoint(*values)
        seconds.append(time.perf_counter() - start)
    return [{"layer": "qarith.param_point", "budget": None,
             "seconds": statistics.median(seconds)}]


def _null_time() -> list[dict]:
    def work():
        acc: dict[int, int] = {}
        for i in range(NULL_ROUNDS):
            acc[i % 97] = acc.get(i % 97, 0) + i * i
        return acc

    return [_median_row("null.fixed_work", None, work)]


def _jobs() -> list[list[str]]:
    jobs = [["anchors"]]
    for budget in BUDGETS:
        jobs += [["theta", kernel, str(budget)] for kernel in ("defining", "pairwise")]
        jobs += [["delta", route, str(budget)] for route in ("theta", "psi")]
    jobs += [["delta", "psi", str(budget)] for budget in PSI_BUDGETS]
    jobs += [["collapse", str(budget)] for budget in COLLAPSE_BUDGETS]
    jobs += [["param_point"]]
    jobs += [["certify", str(budget)] for budget in CERTIFY_BUDGETS]
    return jobs + [["null"], ["import"], *([name] for name in PROCESSES)]


def _calibrated(rows: list[dict], before: float) -> list[dict]:
    """The rows with ``calibrated_s`` scaled by the calibrations around the
    whole job, except where a row calibrated its calls itself."""
    factor = scale(before, calibrate())
    return [{"calibrated_s": row["seconds"] * factor, **row} for row in rows]


def _child(job: list[str]) -> list[dict]:
    kind, *args = job
    if kind == "anchors":
        gc.disable()  # before calibrating and importing: no anchor absorbs a collection
    before = calibrate()
    if kind == "anchors":
        rows = _anchor_times()
    elif kind == "certify":
        rows = _certify_time(int(args[0]))
    elif kind == "collapse":
        rows = _collapse_time(int(args[0]))
    elif kind == "param_point":
        rows = _param_point_time()
    elif kind == "null":
        rows = _null_time()
    else:
        name, budget = args
        rows = (_theta_time if kind == "theta" else _delta_time)(name, int(budget))
    return _calibrated(rows, before)


def _env(src: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _python(src: Path, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, *argv],
        env=_env(src), capture_output=True, text=True, timeout=300, check=True,
    )
    return proc.stdout


def _run(src: Path, job: list[str]) -> list[dict]:
    if job[0] != "import" and job[0] not in PROCESSES:
        return json.loads(_python(src, __file__, "--child", *job))
    before = calibrate()
    if job == ["import"]:
        seconds = float(_python(src, "-c", IMPORT_PROBE))
        row = {"layer": "cli.import", "budget": None, "seconds": seconds}
    else:
        layer, budget, argv = PROCESSES[job[0]]
        start = time.perf_counter()
        _python(src, *argv)
        row = {"layer": layer, "budget": budget, "seconds": time.perf_counter() - start}
    return _calibrated([row], before)


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def measure(sources: dict[str, Path], repeats: int) -> list[dict]:
    runs: dict[tuple[str, str, int | None], list[float]] = {}
    calibrated: dict[tuple[str, str, int | None], list[float]] = {}
    labels = list(sources)
    for src in sources.values():  # untimed: writes the bytecode cache
        _python(src, "-c", "import isopair.cli, isopair.verification")
    for repeat in range(repeats):
        for job in _jobs():
            for label in labels if repeat % 2 == 0 else labels[::-1]:
                for row in _run(sources[label], job):
                    key = (label, row["layer"], row["budget"])
                    runs.setdefault(key, []).append(row["seconds"])
                    calibrated.setdefault(key, []).append(row["calibrated_s"])
    rows = []
    for (label, layer, budget), xs in sorted(runs.items(), key=lambda item: item[0][1:]):
        q1, median, q3 = _quartiles(xs)
        c1, c2, c3 = _quartiles(calibrated[label, layer, budget])
        rows.append({"label": label, "layer": layer, "budget": budget, "median_s": median,
                     "q1_s": q1, "q3_s": q3, "runs_s": xs, "calibrated_median_s": c2,
                     "calibrated_q1_s": c1, "calibrated_q3_s": c3})
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", type=Path, help="BENCH_<tag>.json file to write")
    parser.add_argument("--repeats", type=int, default=7, help="fresh processes per row and label")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(_child(args.child), sys.stdout)
        return
    if not args.parent or not args.out:
        parser.error("--parent and --out are required")
    if not (args.parent / "src" / "isopair").is_dir():
        parser.error(f"{args.parent} has no src/isopair")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    sources = {"parent": (args.parent / "src").resolve(), "change": ROOT / "src"}
    rows = measure(sources, args.repeats)
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
