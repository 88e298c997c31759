"""Byte-exact CLI outputs: exit code, stdout and stderr of every subcommand in
every format at fixed arguments, plus the documented error exits.

The expected outputs live in ``data/cli_golden.json``.  They pin the CLI's
observable behaviour so that refactoring below it cannot change a byte.
``python tests/test_cli_golden.py`` prints freshly recorded outputs as JSON.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from isopair.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

_PARAMS = ("--params", "19", "7/2", "1", "13")
_COMMANDS = (
    ("codes", "list"),
    ("codes", "graph"),
    ("pair", "show"),
    ("spectrum", "--lattice", "L2", *_PARAMS, "--budget", "12"),
    ("isospectral", *_PARAMS, "--budget", "24"),
    ("invariant", "--lattice", "L2", "--kernel", "defining", *_PARAMS, "--budget", "24"),
    ("delta", "--route", "theta", *_PARAMS, "--budget", "24"),
    ("certify", "--route", "theta", *_PARAMS, "--budget", "36"),
    ("verify", "--budget", "36"),
)
CASES = [
    (*command, "--format", fmt) for command in _COMMANDS for fmt in ("text", "json", "csv")
] + [
    ("certify", "--params", "1", "1", "2", "3"),
    ("certify", "--params", "1", "1", "2", "3", "--format", "json"),
    ("certify", "--params", "1.5", "2", "3", "4"),
    ("certify", "--params", "1.5", "2", "3", "4", "--format", "json"),
    ("delta", "--params", "1", "7", "13", "19", "--budget", "-1"),
    ("delta", "--params", "1", "7", "13", "19", "--budget", "-1", "--format", "json"),
]


def record(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _expected() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_byte_identical(argv):
    assert record(argv) == _expected()[argv]


def test_every_case_is_recorded():
    assert sorted(_expected()) == sorted(CASES)


if __name__ == "__main__":
    json.dump([record(argv) for argv in CASES], sys.stdout, indent=1)
    sys.stdout.write("\n")
