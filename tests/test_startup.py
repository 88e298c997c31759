"""What a cold command pays.

Each CLI command runs as a fresh process, so ``import isopair.cli`` and
building the parser are paid on every call.  The import loads only what
``certify`` and ``delta`` execute: the records need no ``dataclasses``
(whose import pulls in ``inspect``), type names come from
``collections.abc`` rather than ``typing``, ``csv`` is imported by the csv
output branch, ``verification`` by ``verify`` and the code census ``codes``
by ``verify`` and ``codes``; each is also imported by the first access to a
name the package exports from it.  ``main`` builds
the parser of the named command only; ``tests/test_cli.py::TestParser``
pins that, and that its output is the full parser's.  A cold ``verify``
sums only the class series its anchors read, each once, and spans its
codes in straight-line F_3 arithmetic, C1 and C2 once for all matching
calls.  Each command labels L1's shell once per budget it sums, and a
process keeps no shell or series after the call that built it: of the
discrepancy layer only the leading entries are cached.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isopair

# children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]

# modules are compared against those loaded before the import, since the
# interpreter's site set-up may load some of them already
PROBE = """
import json, sys
before = set(sys.modules)
import isopair.cli
added = sorted(set(sys.modules) - before)
import isopair
names = {}
exec("from isopair import *", names)
print(json.dumps({
    "added": added,
    "star_missing": sorted(set(isopair.__all__) - set(names)),
    "lazy": {
        name: names[name] is getattr(isopair, name)
            is getattr(sys.modules[f"isopair.{module}"], name)
        for module, exported in LAZY.items() for name in exported
    },
}))
"""

# the names the package exports from a module it imports on first access
LAZY = {
    "codes": ("K4", "K4Element", "TernaryCode", "intersection_graph", "matching_element",
              "orbit_partition", "selfdual_codes", "two_dim_subspaces"),
    "verification": ("AnchorResult", "run_verification"),
}

NOT_AT_START = (
    "dataclasses", "inspect", "typing", "csv", "random", "isopair.codes", "isopair.verification",
)


VERIFY_PROBE = """
from isopair import discrepancy, run_verification
budgets = []
pair_series = discrepancy.pair_series
def counted(*args):
    budgets.append(args[2])
    return pair_series(*args)
discrepancy.pair_series = counted
assert all(result.ok for result in run_verification(36))
print(sorted(budgets))
"""

# the budgets of the L1 shells a command labels, with argv ``ARGV``, or
# 1,000 warm certifies in one process when ``ARGV`` is empty
LABEL_PROBE = """
import contextlib, io, json
from isopair import ParamPoint, certify, discrepancy
from isopair.cli import main
budgets = []
labelled_shell = discrepancy._labelled_shell
def counted(budget):
    budgets.append(budget)
    return labelled_shell(budget)
discrepancy._labelled_shell = counted
with contextlib.redirect_stdout(io.StringIO()):
    if ARGV:
        assert main(ARGV) == 0
    else:
        for d in range(19, 1019):
            certify(ParamPoint(1, 7, 13, d), 40)
print(json.dumps(budgets))
"""

RETENTION_PROBE = """
import gc
from isopair import FormalQSeries, ParamPoint, certify, run_verification
for budget in range(40, 181, 20):
    certify(ParamPoint(1, 7, 13, 19), budget)
assert all(result.ok for result in run_verification(36))
gc.collect()
print(sum(type(obj) is FormalQSeries for obj in gc.get_objects()))
"""


def _fresh(code: str) -> str:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout


@pytest.fixture(scope="module")
def probe() -> dict:
    return json.loads(_fresh(f"LAZY = {LAZY!r}\n{PROBE}"))


def test_cli_import_loads_only_what_certify_runs(probe):
    assert "isopair.discrepancy" in probe["added"]
    assert [name for name in NOT_AT_START if name in probe["added"]] == []


def test_lazy_exports_still_resolve(probe):
    # each of the ten names is its module's object, by attribute and by
    # ``from isopair import *``
    assert probe["star_missing"] == []
    assert probe["lazy"] == dict.fromkeys(LAZY["codes"] + LAZY["verification"], True)


def test_verify_sums_twelve_class_series():
    # the six distinct positive class pairs at budget 24 and at 36, each
    # once; no anchor reads the 81 ordered label pairs
    assert json.loads(_fresh(VERIFY_PROBE)) == [24] * 6 + [36] * 6


@pytest.mark.parametrize(
    "argv, budgets",
    [
        (["certify", "--params", "1", "7", "13", "19"], [36]),
        (["certify", "--params", "1", "7", "13", "19", "--budget", "160"], [36]),
        (["certify", "--params", "1", "7", "13", "19", "--route", "theta"], []),
        (["delta", "--params", "1", "7", "13", "19", "--budget", "80"], [80]),
        (["verify", "--budget", "36"], [24, 36]),
        ([], [36]),
    ],
    ids=["certify", "certify-160", "certify-theta", "delta-80", "verify-36", "warm-certifies"],
)
def test_each_command_labels_each_shell_once(argv, budgets):
    # a certify labels the budget-36 shell of the psi entry at any budget,
    # and a warm batch labels nothing after that; no caller labels a shell
    # per class pair
    assert json.loads(_fresh(f"ARGV = {argv!r}\n{LABEL_PROBE}")) == budgets


def test_no_series_outlives_its_use():
    # certify at eight budgets and a verify: the one discrepancy cache keeps
    # the leading entries, which hold no series
    assert int(_fresh(RETENTION_PROBE)) == 0


def test_verification_does_not_import_random():
    # read from the source: the interpreter's site set-up may load random
    tree = ast.parse((SRC / "isopair" / "verification.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "random" not in imported


def test_unknown_attribute_is_refused():
    with pytest.raises(AttributeError, match="no_such_name"):
        isopair.no_such_name
