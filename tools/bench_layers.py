"""Per-layer timings of a parent commit and this checkout, as rows of a
BENCH_<tag>.json file.

    python tools/bench_layers.py --parent DIR --out BENCH_<tag>.json [--repeats N]

Every row is timed in fresh interpreter processes that import ``isopair``
from ``DIR/src`` (label ``parent``, a checkout of the parent commit) or from
this checkout's ``src`` (label ``change``), so both commits are measured by
the same script.  Each job runs in a child process of its own.  For each
repeat and each job the two labels run back to back, in alternating order,
so drift of the machine's speed during the run hits both labels alike
instead of reading as a difference.

Every row is timed one way, by ``_rows``.  A job runs a *pass* ``CALLS``
times, so that a row is not one pass's millisecond-scale noise, and runs
the calibration workload of ``perfbench/calibrate.py`` before the first
pass and after each one.  A pass returns ``(layer, seconds)`` samples, and
each sample is rescaled to a reference machine speed by ``scale(before,
after)`` of the calibrations on either side of its own pass, so it is
rescaled by the speed of the stretch it ran in (on a shared machine the
speed drifts by up to a fifth within seconds).  A job's row for a layer is
the median of its raw samples and the median of its calibrated ones over
all passes.  The rows, and what one pass is:

* ``verify.<anchor>``: each anchor of ``run_verification(36)``, in the order
  and cache state a cold ``isopair verify --budget 36`` process meets them.
  A pass is one ``run_verification`` call, which times each call
  ``verification._result(name, check)`` that runs an anchor's check.  The
  anchors measure one-time costs, so every cache a ``verify`` process fills
  is cleared before each pass (``_clear_caches`` of ``lattices``, ``codes``
  and ``discrepancy``: the lattice family, the code census and its echelon
  pairs, and C1 and C2; ``discrepancy`` defines none, but a ``--parent``
  checkout may).  The cyclic garbage
  collector is off in this job from before it calibrates and imports
  ``isopair``: with it on, each anchor row absorbs whichever collection
  happens to fall inside it, so an anchor whose code did not change reads
  slower when the modules imported at start-up change (``verify.code
  census`` did in ``BENCH_pr11.json``);
* ``theta.theta11_<kernel>`` of L1 at budgets 24 and 36: one call;
* ``discrepancy.delta_<route>`` at budgets 24 and 36, and the psi route
  alone at budgets 40, 80 and 160: one call.  Each cache that
  ``discrepancy`` defines (``_clear_caches``; none here) is cleared before
  each pass, so every call does the work of a first call;
* ``lattices.scan_L1`` at budgets 36 and 80 and ``lattices.scan_L2`` at
  budget 36: one ``Lattice.vectors`` call, which scans afresh;
* ``lattices.label``: ``coset_label`` of every vector of L1's budget-80
  shell;
* ``discrepancy.certify_first`` at budgets 40, 80 and 160: one ``certify``
  call as the first in the process, after ``build_family``.  The caches
  of ``discrepancy`` are cleared before each pass, as for the discrepancy
  rows, so every call pays what a first call pays.  ``certify`` reads the
  stated leading entry, so that is only the call itself, the same at every
  budget and on either route;
* ``discrepancy.certify_warm`` at budgets 40, 80 and 160: one ``certify``
  call at the budget at each of 200 fixed points, after that first call;
  these random points hold no tie;
* ``discrepancy.certify_warm_tie`` at budgets 40, 80 and 160: the same at
  each of 200 fixed tie points (``_tie_values``), where both leading rows
  collapse to one exponent and the certificate has two terms;
* ``qarith.collapse`` at budgets 40 and 80: collapsing the psi-route
  discrepancy series at each of the same 200 points, sorted as ``certify``
  sorts them;
* ``qarith.param_point``: building a ``ParamPoint`` from the four Fractions
  of each of the same 200 points, the step a caller pays before each
  ``certify`` call and ``certify_warm`` leaves out;
* ``null.fixed_work``: one call of a fixed workload of integer and dict
  arithmetic that reads nothing of either source.  Both labels run the same
  code, so the ratio of their medians is this file's noise floor: a
  per-layer difference inside it is not resolved.

Each row reports, per label, the median and quartiles over the
``--repeats`` child processes of the job's medians: raw ``median_s``,
``q1_s``, ``q3_s`` and ``runs_s``, and calibrated ``calibrated_median_s``,
``calibrated_q1_s`` and ``calibrated_q3_s``.  ``--out`` is written afresh.

Child processes load the package from cached bytecode, as an installed
package is loaded: they run without ``PYTHONDONTWRITEBYTECODE``, and each
source gets one untimed ``import isopair.cli, isopair.verification`` before
any row is timed, which writes the cache.

No row times a whole process.  A fresh ``isopair certify``, ``verify
--budget 36`` or ``delta --budget 80`` process is timed by perfbench's
certify-cold, verify-cold and delta-b80 workloads (``perfbench/run.py``),
interpreter start and imports included.
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
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("calibrate", ROOT / "perfbench" / "calibrate.py")
_calibration = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_calibration)
calibrate, scale = _calibration.calibrate, _calibration.scale
VERIFY_BUDGET = 36
BUDGETS = (24, 36)
PSI_BUDGETS = (40, 80, 160)
CERTIFY_BUDGETS = (40, 80, 160)
CERTIFY_POINTS = 200
COLLAPSE_BUDGETS = (40, 80)
SCANS = (("L1", 36), ("L1", 80), ("L2", 36))  # lattice, budget
LABEL_BUDGET = 80
CALLS = 9
NULL_ROUNDS = 20000


def _rows(budget: int | None, run_pass, before=lambda: None) -> list[dict]:
    """One row per layer, in first-seen order, of the median raw and
    calibrated seconds of the samples of ``CALLS`` calls of ``run_pass``.
    A pass returns ``(layer, seconds)`` samples.  The speed is calibrated
    between passes, as ``perfbench/run.py``'s ``Speed.step`` calibrates
    between operations, and each sample is scaled by ``scale`` of the
    calibrations on either side of its own pass.  ``before`` runs, untimed,
    ahead of each pass."""
    seconds: dict[str, list[float]] = {}
    calibrated: dict[str, list[float]] = {}
    last = calibrate()
    for _ in range(CALLS):
        before()
        samples = run_pass()
        after = calibrate()
        factor = scale(last, after)
        last = after
        for layer, sample in samples:
            seconds.setdefault(layer, []).append(sample)
            calibrated.setdefault(layer, []).append(sample * factor)
    return [{"layer": layer, "budget": budget, "seconds": statistics.median(xs),
             "calibrated_s": statistics.median(calibrated[layer])} for layer, xs in seconds.items()]


def _timed(layer: str, call, calls=((),)):
    """A pass that times ``call(*args)`` once for each ``args`` in ``calls``."""
    def run_pass():
        samples = []
        for args in calls:
            start = time.perf_counter()
            call(*args)
            samples.append((layer, time.perf_counter() - start))
        return samples
    return run_pass


def _anchor_rows() -> list[dict]:
    gc.disable()  # before calibrating and importing: no anchor absorbs a collection
    from isopair import verification

    wrapped = verification._result
    samples = []

    def timed(name, check):
        start = time.perf_counter()
        out = wrapped(name, check)
        samples.append((f"verify.{name}", time.perf_counter() - start))
        return out

    def run_pass():
        samples.clear()
        verification.run_verification(VERIFY_BUDGET)
        return samples

    verification._result = timed
    return _rows(VERIFY_BUDGET, run_pass,
                 before=partial(_clear_caches, "lattices", "codes", "discrepancy"))


def _theta_rows(kernel: str, budget: int) -> list[dict]:
    from isopair import Kernel, build_family, theta11

    lattice = build_family().L1
    return _rows(budget, _timed(f"theta.theta11_{kernel}", theta11,
                                [(lattice, budget, Kernel(kernel))]))


def _clear_caches(*names: str) -> None:
    """Empty every cache that an ``isopair`` module of ``names`` defines:
    each of its functions with a ``cache_clear`` whose ``__module__`` is that
    module, so ``discrepancy``'s imported ``build_family`` is kept.  The
    caches are found, not named, so the parent's are cleared as this
    checkout's are whichever caches either defines."""
    for name in names:
        module = importlib.import_module(f"isopair.{name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                value.cache_clear()


def _delta_rows(route: str, budget: int) -> list[dict]:
    from isopair import Route, build_family, delta_series

    build_family()
    return _rows(budget, _timed(f"discrepancy.delta_{route}", delta_series,
                                [(budget, Route(route))]),
                 before=partial(_clear_caches, "discrepancy"))


def _scan_rows(name: str, budget: int) -> list[dict]:
    from isopair import build_family

    lattice = getattr(build_family(), name)
    return _rows(budget, _timed(f"lattices.scan_{name}", lattice.vectors, [(budget,)]))


def _label_rows() -> list[dict]:
    from isopair import build_family, coset_label

    shell = build_family().L1.vectors(LABEL_BUDGET)

    def label_all():
        for v in shell:
            coset_label(v)

    return _rows(LABEL_BUDGET, _timed("lattices.label", label_all))


def _values() -> list[tuple[Fraction, ...]]:
    rng = random.Random(0)  # the same points for every commit
    points = []
    while len(points) < CERTIFY_POINTS + 1:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)}
        if len(values) == 4:
            points.append(tuple(values))
    return points


def _tie_values() -> list[tuple[Fraction, ...]]:
    """``CERTIFY_POINTS`` fixed tie points in a drawn order: sorted, each is
    ``a < b < c < d`` with ``5b + d = 15a + 3c``, where the keys of the two
    leading exponents (10, 10, 2, 2) and (25, 5, 5, 1) are equal."""
    rng = random.Random(1)  # the same points for every commit
    points = []
    while len(points) < CERTIFY_POINTS:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(3)}
        if len(values) < 3:
            continue
        a, b, c = sorted(values)
        d = 15 * a + 3 * c - 5 * b
        if d > c:
            point = [a, b, c, d]
            rng.shuffle(point)
            points.append(tuple(point))
    return points


def _certify_rows(budget: int) -> list[dict]:
    from isopair import ParamPoint, build_family, certify

    first, *points = [ParamPoint(*values) for values in _values()]
    ties = [ParamPoint(*values) for values in _tie_values()]
    build_family()
    return (_rows(budget, _timed("discrepancy.certify_first", certify, [(first, budget)]),
                  before=partial(_clear_caches, "discrepancy"))
            + _rows(budget, _timed("discrepancy.certify_warm", certify,
                                   [(point, budget) for point in points]))
            + _rows(budget, _timed("discrepancy.certify_warm_tie", certify,
                                   [(point, budget) for point in ties])))


def _collapse_rows(budget: int) -> list[dict]:
    from isopair import ParamPoint, delta_series

    series = delta_series(budget)
    first, *points = [ParamPoint(*sorted(values)) for values in _values()]
    series.collapse(first)
    return _rows(budget, _timed("qarith.collapse", series.collapse, [(point,) for point in points]))


def _param_point_rows() -> list[dict]:
    from isopair import ParamPoint

    first, *points = _values()
    ParamPoint(*first)
    return _rows(None, _timed("qarith.param_point", ParamPoint, points))


def _null_rows() -> list[dict]:
    def work():
        acc: dict[int, int] = {}
        for i in range(NULL_ROUNDS):
            acc[i % 97] = acc.get(i % 97, 0) + i * i
        return acc

    return _rows(None, _timed("null.fixed_work", work))


# job kind: the function that times it and the arguments of its jobs, in
# the order they run
JOBS = {
    "anchors": (_anchor_rows, [()]),
    "theta": (_theta_rows, [(kernel, budget) for budget in BUDGETS
                            for kernel in ("defining", "pairwise")]),
    "delta": (_delta_rows, [(route, budget) for budget in BUDGETS for route in ("theta", "psi")]
              + [("psi", budget) for budget in PSI_BUDGETS]),
    "collapse": (_collapse_rows, [(budget,) for budget in COLLAPSE_BUDGETS]),
    "param_point": (_param_point_rows, [()]),
    "scan": (_scan_rows, SCANS),
    "label": (_label_rows, [()]),
    "certify": (_certify_rows, [(budget,) for budget in CERTIFY_BUDGETS]),
    "null": (_null_rows, [()]),
}


def _jobs() -> list[list[str]]:
    return [[kind, *map(str, args)] for kind, (_, argsets) in JOBS.items() for args in argsets]


def _child(job: list[str]) -> list[dict]:
    kind, *args = job
    rows, _ = JOBS[kind]
    return rows(*(int(arg) if arg.isdigit() else arg for arg in args))


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
                for row in json.loads(_python(sources[label], __file__, "--child", *job)):
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
