"""The isopair benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; it runs the package from ``src`` and needs no
install.  Load model: closed loop, one client, one operation at a time; at
most two processes are live, ``run.py`` and one ``isopair`` or worker
process.  Workloads (points come from ``points.stream(seed)``):

* ``certify-cold``  a fresh ``isopair certify --params P --format json``
  process per operation, at an unsorted point;
* ``delta-b80``     a fresh ``isopair delta --params P --budget 80`` process,
  at a sorted point, so the closed form gives the leading term;
* ``certify-batch`` one warm in-process ``certify`` call in a worker whose
  set-up (import, ``build_family``, a first certify) filled the caches;
* ``verify-cold``   a fresh ``isopair verify --budget 36`` process.

Every output is checked against ``oracle.py``, which does not use the code
path under test.  Times are rescaled to a reference machine speed by
``calibrate.py``, run between operations on the same CPU, so that the shared
machine's drifting speed does not read as a change of the program; the raw
medians are printed beside them.

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
gives the per-layer metrics: for a third of the time untraced operations
alternate with traced copies of them (the ratio of their medians is the
tracing overhead), then a layer sweep alternates with a traced ``verify``,
each in a fresh worker so no cache carries over.  Spans are written to
``perfbench/out/trace-<workload>-seed<N>.json``; ``layers.json`` says which
end-to-end metric each per-layer metric should move.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The benchmark's own tests: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
import points
from calibrate import calibrate, scale
from tracing import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
PY = sys.executable
SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10  # op_tail_s is the highest percentile with this many samples above it

# a fixed hash seed keeps dict and set layouts, and so peak memory, alike from
# run to run; cold processes load the package from cached bytecode, as an
# installed one would
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
CHILD_ENV.pop("PYTHONDONTWRITEBYTECODE", None)


class BenchError(Exception):
    pass


@dataclass
class Proc:
    t_spawn: float
    wall: float
    code: int
    out: str
    err: str
    rss_kb: int


def spawn(argv: list[str]) -> Proc:
    """Run one child to completion; wall time covers fork to exit."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t_spawn
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    return Proc(t_spawn, wall, proc.returncode, out, "".join(err), usage.ru_maxrss)


def worker(*args) -> list[str]:
    return [PY, str(BENCH / "worker.py"), *map(str, args)]


def payload_of(proc: Proc):
    """The child's JSON output and None, or None and a failure reason."""
    if proc.code != 0:
        return None, f"exit {proc.code}: {proc.err.strip()[-300:]}"
    try:
        return json.loads(proc.out), None
    except json.JSONDecodeError as exc:
        return None, f"malformed JSON: {exc}"


def checked(check, *args) -> str | None:
    try:
        return check(*args)
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


class Speed:
    """Calibrations between operations: ``step()`` calibrates again and
    returns the scale for the stretch since the previous calibration."""

    def __init__(self):
        self.last = calibrate()

    def step(self) -> float:
        after = calibrate()
        factor, self.last = scale(self.last, after), after
        return factor


@dataclass
class Tally:
    """Operations of one run: latencies, failures, peak memory, spans."""

    walls: list[float] = field(default_factory=list)  # reference seconds
    raw: list[float] = field(default_factory=list)  # seconds as measured
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    rss_kb: int = 0
    spans: list[dict] = field(default_factory=list)
    counts: list[dict] = field(default_factory=list)

    def record(self, wall: float | None, factor: float, reason: str | None, rss_kb: int) -> None:
        self.attempted += 1
        if wall is not None:
            self.walls.append(wall * factor)
            self.raw.append(wall)
        if reason:
            self.failures.append(reason)
        self.rss_kb = max(self.rss_kb, rss_kb)

    def add_spans(self, proc: Proc, payload: dict, factor: float) -> None:
        """Keep a worker's spans with run-wide operation ids and its speed
        scale, plus the span from spawning it to its first statement."""
        spans = payload.get("spans", [])
        base = 1 + max((s["op"] for s in self.spans), default=-1)
        for s in spans:
            s["op"] += base
        spans.append({"id": len(spans), "name": "cli.interpreter", "op": base,
                      "parent": None, "start": proc.t_spawn, "end": payload["t0"]})
        for s in spans:
            s["scale"] = factor
        self.spans.extend(spans)


@dataclass(frozen=True)
class Workload:
    name: str
    budget: int  # of the layer sweep in a traced run
    shuffle: bool  # hand points out unsorted
    argv: object = None  # point -> isopair CLI arguments (cold workloads)
    check: object = None  # (payload, point) -> failure reason or None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify-cold", 40, True,
                 lambda p: ["certify", "--params", *points.as_args(p), "--format", "json"],
                 oracle.check_certificate),
        Workload("delta-b80", 80, False,
                 lambda p: ["delta", "--params", *points.as_args(p), "--budget", "80",
                            "--format", "json"],
                 lambda out, p: oracle.check_delta(out, p, oracle.reference(), 80)),
        Workload("certify-batch", 40, True),
        Workload("verify-cold", 36, True,
                 lambda p: ["verify", "--budget", "36", "--format", "json"],
                 lambda out, p: oracle.check_verify(out)),
    )
}


def setup_time(w: Workload, seed: int) -> float:
    """Median over SETUP_SAMPLES fresh processes of the set-up: for
    certify-batch import, build_family and the first certify in a worker,
    otherwise a whole ``python -c "import isopair.cli"`` process."""
    spawn([PY, "-c", "import isopair.cli"])  # untimed: writes the bytecode cache
    speed, samples = Speed(), []
    for _ in range(SETUP_SAMPLES):
        if w.name == "certify-batch":
            payload, reason = payload_of(spawn(worker("setup", "--seed", seed)))
            if payload is None:
                raise BenchError(f"set-up failed: {reason}")
            value = payload["setup_s"]
        else:
            value = spawn([PY, "-c", "import isopair.cli"]).wall
        samples.append(value * speed.step())
    return statistics.median(samples)


def run_cold(w: Workload, stream, seconds: float, tally: Tally, traced: Tally | None = None) -> None:
    """Closed loop of fresh processes for ``seconds``.  Given a ``traced``
    tally, every other operation is a traced copy, and there is at least one."""
    start, speed = time.monotonic(), Speed()
    while True:
        on = traced is not None and tally.attempted > traced.attempted
        into = traced if on else tally
        point = next(stream)
        if on and w.name == "verify-cold":
            proc = spawn(worker("verify"))
        elif on:
            proc = spawn(worker("op", "--cli", json.dumps(w.argv(point))))
        else:
            proc = spawn([PY, "-m", "isopair", *w.argv(point)])
        factor = speed.step()
        payload, reason = payload_of(proc)
        if payload is not None and on:
            into.add_spans(proc, payload, factor)
            payload = payload["output"]
        if payload is not None:
            reason = checked(w.check, payload, point)
        into.record(proc.wall, factor, reason, proc.rss_kb)
        if time.monotonic() - start >= seconds and (traced is None or traced.attempted):
            return


def run_batch(seed: int, seconds: float, tally: Tally, traced: Tally | None = None) -> None:
    """One warm worker certifying fresh points for ``seconds``.  Given a
    ``traced`` tally, every other call is traced."""
    proc = spawn(worker("batch", "--seed", seed, "--seconds", seconds, "--trace", int(traced is not None)))
    payload, reason = payload_of(proc)
    if payload is None:
        tally.record(None, 1.0, reason, proc.rss_kb)
        return
    if traced is not None:
        traced.add_spans(proc, payload, statistics.median(payload["scales"]))
    for wall, factor, on in zip(payload["walls"], payload["scales"], payload["traced"]):
        (traced if on else tally).record(wall, factor, None, proc.rss_kb)
    tally.failures += payload["failures"]


def sweep(w: Workload, point, tally: Tally, speed: Speed) -> None:
    """The layer sweep in one fresh worker, then a traced verify in another."""
    proc = spawn(worker("sweep", "--budget", w.budget, "--params", *points.as_args(point)))
    factor = speed.step()
    payload, reason = payload_of(proc)
    if payload is not None:
        tally.add_spans(proc, payload, factor)
        tally.counts.append(payload["counts"])
        reason = checked(check_sweep, payload["output"], point, w.budget)
    tally.record(None, factor, reason, proc.rss_kb)
    proc = spawn(worker("verify"))
    factor = speed.step()
    payload, reason = payload_of(proc)
    if payload is not None:
        tally.add_spans(proc, payload, factor)
        reason = checked(oracle.check_verify, payload["output"])
    tally.record(None, factor, reason, proc.rss_kb)


def check_sweep(out: dict, point, budget: int) -> str | None:
    for cert in (out["certificate"], out["cli_certificate"]):
        reason = oracle.check_certificate(cert, point)
        if reason:
            return reason
    reference = oracle.reference()
    collapsed = [(Fraction(x), Fraction(c)) for x, c in out["collapsed"]]
    if collapsed != oracle.collapse(oracle.truncate(reference, budget), point):
        return "collapsed series differs from the reference"
    if out["codes"] != [130, 8, 16]:
        return f"codes census {out['codes']}"
    if not out["relations_ok"]:
        return "class relations failed"
    theta = {tuple(e): {tuple(m): Fraction(c) for m, c in poly} for e, poly in out["route_theta"]}
    if theta != oracle.truncate(reference, 24):
        return "theta route at budget 24 differs from the reference"
    return None


def tail(walls: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples
    above it, or None when that percentile would be below the median."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    return 100 * (n - TAIL_BEYOND) / n, sorted(walls)[n - TAIL_BEYOND - 1]


def end_to_end(w: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    setup_s = setup_time(w, seed)
    tally = Tally()
    if w.name == "certify-batch":
        run_batch(seed, seconds, tally)
    else:
        run_cold(w, points.stream(seed, w.shuffle), seconds, tally)
    if not tally.walls:
        raise BenchError("no operation completed: " + "; ".join(tally.failures[:3]))
    ok = tally.attempted - len(tally.failures)
    metrics = {
        "op_p50_s": (statistics.median(tally.walls), "s"),
        "ops_per_s": (ok / sum(tally.walls), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (tally.rss_kb * 1024 / 1e6, "MB"),
    }
    return tally, metrics


SPAN_METRICS = (
    "cli.interpreter", "cli.import", "cli.main", "lattices.build_family", "lattices.scan",
    "lattices.label", "lattices.psi", "discrepancy.delta", "discrepancy.min_table",
    "discrepancy.certify_warm", "discrepancy.relations", "discrepancy.route_theta",
    "qarith.collapse", "theta.rep_series", "theta.theta11_pairwise",
    "theta.theta11_defining", "codes.subspaces", "codes.selfdual", "codes.graph",
    "verification.run",
)
COUNT_METRICS = {  # metric: (key in the sweep's counts, unit)
    "lattices.shell_size": ("shell_size", "count"),
    "lattices.shell_vs_predicted": ("shell_vs_predicted", "ratio"),
    "discrepancy.pairs_visited": ("pairs_visited", "count"),
    "discrepancy.pairs_in_budget": ("pairs_in_budget", "count"),
    "discrepancy.pairs_useful_ratio": ("pairs_useful_ratio", "ratio"),
    "discrepancy.series_terms": ("series_terms", "count"),
    "qarith.collapsed_terms": ("collapsed_terms", "count"),
}


def traced(w: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    plain, tally = Tally(), Tally()
    if w.name == "certify-batch":
        run_batch(seed, seconds / 3, plain, tally)
    else:
        spawn([PY, "-c", "import isopair.cli"])  # untimed: writes the bytecode cache
        run_cold(w, points.stream(seed, w.shuffle), seconds / 3, plain, tally)
    if not (plain.walls and tally.walls):
        raise BenchError("no operation completed: " + "; ".join((plain.failures + tally.failures)[:3]))
    overhead = statistics.median(tally.walls) / statistics.median(plain.walls)
    stream = points.stream(seed + 1, w.shuffle)
    start, speed = time.monotonic(), Speed()
    while True:
        sweep(w, next(stream), tally, speed)
        if time.monotonic() - start >= 2 * seconds / 3:
            break
    if not tally.counts:
        raise BenchError("no layer sweep completed: " + "; ".join(tally.failures[:3]))

    selfs = self_times(tally.spans)
    by_name: dict[str, list[float]] = {}
    for s in tally.spans:
        s["self_s"] = selfs[(s["op"], s["id"])] * s["scale"]
        by_name.setdefault(s["name"], []).append(s["self_s"])
    metrics = {f"{name}_s": (statistics.median(by_name[name]), "s") for name in SPAN_METRICS}
    for metric, (key, unit) in COUNT_METRICS.items():
        metrics[metric] = (statistics.median(c[key] for c in tally.counts), unit)
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": w.name,
        "seed": seed,
        "sweep_budget": w.budget,
        "untraced_op_p50_s": statistics.median(plain.walls),
        "traced_op_p50_s": statistics.median(tally.walls),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans": tally.spans,
    }
    (OUT / f"trace-{w.name}-seed{seed}.json").write_text(json.dumps(record) + "\n")
    tally.attempted += plain.attempted
    tally.failures += plain.failures
    return tally, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="isopair benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "isopair" / "__init__.py").is_file():
        print(f"no isopair sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so calibrations and
    # operations meet the same contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    w = WORKLOADS[args.workload]
    try:
        tally, metrics = (traced if args.trace else end_to_end)(w, args.seed, args.seconds)
    except BenchError as exc:
        print(f"{w.name}: {exc}", file=sys.stderr)
        return 1

    failed = len(tally.failures)
    print(f"{w.name} seed {args.seed} trace {args.trace}: {tally.attempted} operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:.6g} {unit}")
    if not args.trace:
        n = len(tally.walls)
        t = tail(tally.walls)
        if t:
            print(f"  {'op_tail_s':32} {t[1]:.6g} s  (p{t[0]:.1f}, n={n})")
        else:
            print(f"  {'op_tail_s':32} omitted: {n} samples, too few for a tail")
        print(f"  {'raw op_p50_s':32} {statistics.median(tally.raw):.6g} s  (as measured)")
    print(f"  {'fail_ratio':32} {failed / tally.attempted:.6g}  ({failed}/{tally.attempted})")
    for reason in tally.failures[:5]:
        print(f"  failure: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
