"""``tools/bench_layers.py`` times each verification anchor by wrapping
``verification._result``, the call that runs an anchor's check; its anchors
job must keep producing one calibrated row per anchor, in the order
``run_verification`` runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

from isopair import run_verification
from isopair.discrepancy import MIN_PAIR_BUDGET

ROOT = Path(__file__).resolve().parent.parent


def test_anchor_job_times_every_anchor_in_order():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_layers.py"), "--child", "anchors"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120, check=True,
    )
    rows = json.loads(proc.stdout)
    anchors = [result.anchor for result in run_verification(MIN_PAIR_BUDGET)]
    assert len(anchors) == 16
    assert [row["layer"] for row in rows] == [f"verify.{anchor}" for anchor in anchors]
    for row in rows:
        assert row["budget"] == MIN_PAIR_BUDGET
        assert row["seconds"] > 0 and row["calibrated_s"] > 0
