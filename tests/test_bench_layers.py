"""``tools/bench_layers.py`` times each verification anchor by wrapping
``verification._result``, the call that runs an anchor's check; its anchors
job must keep producing one calibrated row per anchor, in the order
``run_verification`` runs them.  Its ``param_point`` job times building a
``ParamPoint``, which no other row covers, and its ``null`` job times a
fixed workload that gives the file's noise floor."""

import json
import os
import subprocess
import sys
from pathlib import Path

import isopair
from isopair import run_verification
from isopair.discrepancy import MIN_PAIR_BUDGET

ROOT = Path(__file__).resolve().parent.parent
# the children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]


def _child_rows(*job: str) -> list[dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_layers.py"), "--child", *job],
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
