"""Byte-exact CLI outputs: every case of ``cli_golden.CASES`` must record
exactly the exit code, stdout and stderr kept in ``data/cli_golden.json``,
called in-process through ``main`` and run as a ``python -m isopair``
process, which ends through ``cli.run``; the theta-route ``certify`` cases
also in a process where ``theta11`` raises, as that route reads the one
leading entry.

They pin the CLI's observable behaviour so that refactoring below it cannot
change a byte.  ``PYTHONPATH=src python tests/cli_golden.py`` prints freshly
recorded outputs as JSON.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isopair
from cli_golden import CASES, record

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
# children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]


def _expected() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv):
    assert record(argv) == _expected()[argv]


def _ran(argv, *python_args) -> dict:
    """The record of ``argv`` from a ``python *python_args`` process."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, *python_args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=60)
    return {"argv": list(argv), "exit": proc.returncode,
            "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_process_output_is_byte_identical(argv):
    assert _ran(argv, "-m", "isopair", *argv) == _expected()[argv]


# a ``python -m isopair`` process in which ``theta11`` raises
NO_THETA11 = """
import runpy, sys
from isopair import discrepancy, theta

def theta11(*args):
    raise RuntimeError("theta11 was called")

discrepancy.theta11 = theta.theta11 = theta11
sys.argv = ["isopair", *ARGV]
runpy.run_module("isopair", run_name="__main__", alter_sys=True)
"""


THETA_CERTIFY = [argv for argv in CASES if argv[:3] == ("certify", "--route", "theta")]


@pytest.mark.parametrize("argv", THETA_CERTIFY, ids=" ".join)
def test_theta_route_certify_computes_no_theta11(argv):
    # the route selects no series: a theta-route certify reads the one
    # stated leading entry
    assert _ran(argv, "-c", f"ARGV = {list(argv)!r}\n{NO_THETA11}") == _expected()[argv]


def test_every_case_is_recorded():
    assert sorted(_expected()) == sorted(CASES)
