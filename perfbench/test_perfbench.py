"""Tests of the benchmark's own pieces.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import oracle
import points
import run
from tracing import self_times

BENCH = Path(__file__).resolve().parent


def test_oracle_at_the_integral_example():
    assert oracle.leading_term((1, 7, 13, 19)) == (144, -1008, 2)


def test_oracle_at_a_tie_point():
    assert points.is_tie((14, 1, 3, 2))
    assert oracle.leading_term((14, 1, 3, 2)) == (64, -228, 2)


def test_stored_reference_leads_with_the_closed_form():
    budget, series = oracle.load_reference()
    assert budget == 80 and len(series) == 210
    point = [Fraction(x) for x in (1, 7, 13, 19)]
    assert oracle.collapse(series, point)[0] == (144, -1008)


def test_generator_is_deterministic_per_seed():
    def take(seed, n=40, shuffle=True):
        stream = points.stream(seed, shuffle)
        return [next(stream) for _ in range(n)]

    assert take(5) == take(5)
    assert take(5) != take(6)
    for i, p in enumerate(take(7)):
        assert len(set(p)) == 4 and list(p) != sorted(p)
        assert all(0 < x.numerator <= 400 and x.denominator <= 20 for x in p)
        assert points.is_tie(p) == (i % points.TIE_EVERY == 0)
    assert all(list(p) == sorted(p) for p in take(7, shuffle=False))


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "op": 3, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "op": 3, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "op": 3, "parent": 1, "start": 2.0, "end": 3.0},
        {"id": 3, "op": 3, "parent": 0, "start": 6.0, "end": 7.5},
        {"id": 0, "op": 4, "parent": None, "start": 0.0, "end": 2.0},
    ]
    assert self_times(spans) == {(3, 0): 5.5, (3, 1): 2.0, (3, 2): 1.0, (3, 3): 1.5, (4, 0): 2.0}


def test_corrupted_reference_fails_every_operation(monkeypatch):
    budget = 40
    reference = oracle.truncate(oracle.load_reference()[1], budget)
    corrupted = {e: {m: 2 * c for m, c in poly.items()} for e, poly in reference.items()}
    for ref, expected in ((reference, 0.0), (corrupted, 1.0)):
        w = run.Workload(
            "delta-b40", budget, False,
            lambda p: ["delta", "--params", *points.as_args(p), "--budget", str(budget),
                       "--format", "json"],
            lambda out, p, ref=ref: oracle.check_delta(out, p, ref, budget),
        )
        tally = run.Tally()
        run.run_cold(w, points.stream(1, shuffle=False), 0.5, tally)
        assert tally.attempted >= 1
        assert len(tally.failures) / tally.attempted == expected


def test_run_prints_the_contract_line():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify-batch", "--seed", "1",
         "--seconds", "0.5", "--trace", "0"],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_layer_map_covers_every_per_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    for entry in layers.values():
        for move in entry["should_move"] + entry["should_not_move"]:
            assert move["workload"] in workloads and move["metric"] in metrics


def test_traced_run_reports_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "certify-cold", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec["per_layer"]}
    trace = json.loads((BENCH / "out" / "trace-certify-cold-seed1.json").read_text())
    assert {"cli.interpreter", "lattices.scan", "verification.run"} <= {s["name"] for s in trace["spans"]}
    assert all(s["self_s"] >= 0 for s in trace["spans"])
