"""Byte-exact CLI outputs: every case of ``cli_golden.CASES`` must record
exactly the exit code, stdout and stderr kept in ``data/cli_golden.json``.

They pin the CLI's observable behaviour so that refactoring below it cannot
change a byte.  ``PYTHONPATH=src python tests/cli_golden.py`` prints freshly
recorded outputs as JSON.
"""

import json
from pathlib import Path

import pytest

from cli_golden import CASES, record

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


def _expected() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv):
    assert record(argv) == _expected()[argv]


def test_every_case_is_recorded():
    assert sorted(_expected()) == sorted(CASES)
