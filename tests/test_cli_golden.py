"""Byte-exact CLI outputs: every case of ``cli_golden.CASES`` must record
exactly the exit code, stdout and stderr kept in ``data/cli_golden.json``,
called in-process through ``main`` and run as a ``python -m isopair``
process, which ends through ``cli.run``.

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


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_process_output_is_byte_identical(argv):
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "isopair", *argv], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, timeout=60)
    ran = {"argv": list(argv), "exit": proc.returncode,
           "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}
    assert ran == _expected()[argv]


def test_every_case_is_recorded():
    assert sorted(_expected()) == sorted(CASES)
