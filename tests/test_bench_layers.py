"""``tools/bench_layers.py`` times every row one way, ``_rows``: the median
of timed passes, each sample scaled by the calibrations on either side of
its own pass.  The tool's docstring lists its rows and what one pass of each
job is; these tests check that each job gives its rows, calibrated and in
order, and that the jobs that time one-time costs clear their caches before
every pass.  Every job kind is one entry of the tool's ``JOBS`` table, which
both lists the jobs and runs a child's job."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isopair
from isopair import run_verification
from isopair.discrepancy import MIN_PAIR_BUDGET

ROOT = Path(__file__).resolve().parent.parent
# the children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_layers.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _child_rows(*job: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--child", *job],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout)


def test_anchor_job_times_every_anchor_in_order():
    rows = _child_rows("anchors")
    anchors = [result.anchor for result in run_verification(MIN_PAIR_BUDGET)]
    assert len(anchors) == 16
    assert [row["layer"] for row in rows] == [f"verify.{anchor}" for anchor in anchors]
    for row in rows:
        assert row["budget"] == MIN_PAIR_BUDGET
        assert row["seconds"] > 0 and row["calibrated_s"] > 0


def test_param_point_job_gives_one_calibrated_row():
    (row,) = _child_rows("param_point")
    assert row["layer"] == "qarith.param_point" and row["budget"] is None
    assert row["seconds"] > 0 and row["calibrated_s"] > 0


def test_null_job_gives_one_calibrated_row():
    (row,) = _child_rows("null")
    assert row["layer"] == "null.fixed_work" and row["budget"] is None
    assert row["seconds"] > 0 and row["calibrated_s"] > 0


def test_every_job_kind_is_one_entry_of_the_job_table(bench):
    assert {job[0] for job in bench._jobs()} == set(bench.JOBS)


def test_rows_scale_each_sample_by_its_own_pass(bench, monkeypatch):
    log = []
    calibrations = iter([1.0, 2.0, 3.0, 4.0])

    def calibrate():
        log.append("calibrate")
        return next(calibrations)

    def run_pass():
        log.append("pass")
        k = log.count("pass")
        return [("b", float(k))] + {1: [("a", 5.0)], 3: [("c", 7.0)]}.get(k, [])

    monkeypatch.setattr(bench, "calibrate", calibrate)
    # a factor that names its two calibrations: 102, 203 and 304 for the passes
    monkeypatch.setattr(bench, "scale", lambda before, after: 100 * before + after)
    monkeypatch.setattr(bench, "CALLS", 3)
    rows = bench._rows(40, run_pass, before=lambda: log.append("before"))
    assert log == ["calibrate"] + ["before", "pass", "calibrate"] * 3
    assert rows == [
        {"layer": "b", "budget": 40, "seconds": 2.0, "calibrated_s": 2.0 * 203},
        {"layer": "a", "budget": 40, "seconds": 5.0, "calibrated_s": 5.0 * 102},
        {"layer": "c", "budget": 40, "seconds": 7.0, "calibrated_s": 7.0 * 304},
    ]


@pytest.mark.parametrize(
    "job, layers",
    [(("certify", "40"), ["discrepancy.certify_first", "discrepancy.certify_warm",
                          "discrepancy.certify_warm_tie"]),
     (("collapse", "40"), ["qarith.collapse"])],
    ids=" ".join,
)
def test_per_point_jobs_give_calibrated_rows(job, layers):
    rows = _child_rows(*job)
    assert [row["layer"] for row in rows] == layers
    for row in rows:
        assert row["budget"] == 40
        assert row["seconds"] > 0 and row["calibrated_s"] > 0


def test_tie_points_are_distinct_ties_and_warm_points_hold_none(bench):
    from isopair import ParamPoint, certify

    ties = bench._tie_values()
    assert len(ties) == len(set(ties)) == bench.CERTIFY_POINTS
    for values in ties:
        a, b, c, d = sorted(values)
        assert 0 < a < b < c < d and 5 * b + d == 15 * a + 3 * c, values
        assert len(certify(ParamPoint(*values), 40).terms) == 2, values
    # the certify_warm points are random: their certificates have one term
    warm = [certify(ParamPoint(*values), 40) for values in bench._values()]
    assert all(len(cert.terms) == 1 for cert in warm)


@pytest.mark.parametrize(
    "job, layer, budget",
    [(("scan", "L1", "80"), "lattices.scan_L1", 80),
     (("scan", "L2", "36"), "lattices.scan_L2", 36),
     (("label",), "lattices.label", 80)],
    ids=["scan L1 80", "scan L2 36", "label"],
)
def test_lattice_jobs_give_one_calibrated_row(job, layer, budget):
    (row,) = _child_rows(*job)
    assert row["layer"] == layer and row["budget"] == budget
    assert row["seconds"] > 0 and row["calibrated_s"] > 0


def test_no_certify_pass_builds_an_entry(bench, monkeypatch):
    # certify reads the stated leading entry: no pass evaluates a pair
    # kernel, labels a shell or sums a series
    from isopair import discrepancy

    calls = dict.fromkeys(
        ("pair_discrepancy_vector", "delta_series", "pair_series", "coset_label"), 0
    )

    def counted(name):
        original = getattr(discrepancy, name)

        def call(*args):
            calls[name] += 1
            return original(*args)
        return call

    for name in calls:
        monkeypatch.setattr(discrepancy, name, counted(name))
    monkeypatch.setattr(bench, "calibrate", lambda: 1.0)
    monkeypatch.setattr(bench, "scale", lambda before, after: 1.0)
    bench._certify_rows(40)
    assert calls == dict.fromkeys(calls, 0)


def test_every_anchor_pass_starts_from_empty_caches(bench, monkeypatch):
    # each of the ``CALLS`` passes rebuilds the lattice family and the code
    # census with its echelon pairs (a cache that kept its entry would miss
    # only in the first pass), with the collector off
    import gc

    from isopair import codes, lattices, verification

    caches = {"family": lattices.build_family, "echelon pairs": codes._echelon_generator_pairs,
              "census": codes.selfdual_codes}
    builds, collector = [], []
    run_verification = verification.run_verification

    def counted(budget):
        before = {name: cache.cache_info().misses for name, cache in caches.items()}
        results = run_verification(budget)
        builds.append({name: cache.cache_info().misses - before[name]
                       for name, cache in caches.items()})
        collector.append(gc.isenabled())
        return results

    monkeypatch.setattr(verification, "run_verification", counted)
    monkeypatch.setattr(verification, "_result", verification._result)
    monkeypatch.setattr(bench, "calibrate", lambda: 1.0)
    monkeypatch.setattr(bench, "scale", lambda before, after: 1.0)
    try:
        rows = bench._anchor_rows()
    finally:
        gc.enable()
    assert [row["layer"] for row in rows] == [
        f"verify.{result.anchor}" for result in run_verification(MIN_PAIR_BUDGET)]
    assert builds == [dict.fromkeys(caches, 1)] * bench.CALLS
    assert collector == [False] * bench.CALLS
