"""The CLI's golden cases and their recorder: exit code, stdout and stderr of
every subcommand in every format at fixed arguments, plus the documented
error exits.  ``tests/test_cli_golden.py`` compares them with
``data/cli_golden.json``.

This module imports no test framework, so the recorder runs on any supported
interpreter: ``PYTHONPATH=src python tests/cli_golden.py`` prints freshly
recorded outputs as JSON, in the format of ``data/cli_golden.json``.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from isopair.cli import main

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


if __name__ == "__main__":
    json.dump([record(argv) for argv in CASES], sys.stdout, indent=1)
    sys.stdout.write("\n")
