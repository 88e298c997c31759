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
process keeps no shell or series after the call that built it: the
discrepancy layer caches nothing, and ``certify`` reads the stated leading
entry.

A cold command pays no interpreter teardown: the console script and
``python -m isopair`` end through ``cli.run``, which runs the ``atexit``
callbacks, flushes stdout and stderr and leaves by ``os._exit``.  The tests
below run each exit in a fresh process and compare it with ``sys.exit(main())``:
the status and output of every exit code, the skipped teardown, the
callbacks' output, and the two cases that still end by ``sys.exit``, a
failed flush (reported by the interpreter with status 120, as before) and
an attached profiler (whose table is still printed).
"""

import ast
import atexit
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import isopair
from isopair import cli

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


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def _fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=60, check=True,
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


def test_verify_sums_six_class_series():
    # the six distinct positive class pairs at budget 24, each once, for
    # ``route equivalence``; no anchor reads the 81 ordered label pairs, and
    # ``leading coefficients`` reads none
    assert json.loads(_fresh(VERIFY_PROBE)) == [24] * 6


@pytest.mark.parametrize(
    "argv, budgets",
    [
        (["certify", "--params", "1", "7", "13", "19"], []),
        (["certify", "--params", "1", "7", "13", "19", "--budget", "160"], []),
        (["certify", "--params", "1", "7", "13", "19", "--route", "theta"], []),
        (["delta", "--params", "1", "7", "13", "19", "--budget", "80"], [80]),
        (["verify", "--budget", "36"], [24]),
        ([], []),
    ],
    ids=["certify", "certify-160", "certify-theta", "delta-80", "verify-36", "warm-certifies"],
)
def test_each_command_labels_each_shell_once(argv, budgets):
    # certify reads the stated leading entry, so it labels no shell at any
    # budget, on either route, and nor does a warm batch; no caller labels
    # a shell per class pair
    assert json.loads(_fresh(f"ARGV = {argv!r}\n{LABEL_PROBE}")) == budgets


def test_no_series_outlives_its_use():
    # certify at eight budgets and a verify: the discrepancy layer caches
    # nothing, and the stated leading entry holds no series
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


CERTIFY = ("certify", "--params", "1", "7", "13", "19")

# the console script's target, called as the generated script calls it
SCRIPT_TARGET = re.search(r'^isopair = "(.+):(.+)"$',
                          (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(), re.MULTILINE)
ENTRIES = {
    "python -m isopair": ["-m", "isopair"],
    "console script": ["-c", "import sys; from {0} import {1}; sys.exit({1}())".format(*SCRIPT_TARGET.groups())],
    "sys.exit(main())": ["-c", "import sys; from isopair.cli import main; sys.exit(main())"],
}

# a module global whose finalizer writes to stderr when the interpreter
# tears the process down
TEARDOWN_PROBE = """
import os, sys
class Noisy:
    def __del__(self, write=os.write):
        write(2, b"torn down\\n")
noisy = Noisy()
"""


def _process(*args: str, env=None, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env or _env(), stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=60)


def test_console_script_is_run():
    assert SCRIPT_TARGET.groups() == ("isopair.cli", "run")


@pytest.mark.parametrize("entry", ["python -m isopair", "console script"])
@pytest.mark.parametrize(
    "params, code",
    [(("1", "7", "13", "19"), 0), (("1.5", "2", "3", "4"), 1), (("1", "1", "2", "3"), 2)],
    ids=["non-isometric", "error", "inconclusive"],
)
def test_exit_status_and_output_come_through(entry, params, code):
    proc = _process(*ENTRIES[entry], "certify", "--params", *params)
    expected = _process(*ENTRIES["sys.exit(main())"], "certify", "--params", *params)
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == (expected.stdout, expected.stderr)


@pytest.mark.parametrize("end", ["run()", "runpy.run_module('isopair', run_name='__main__')"],
                         ids=["run", "python -m isopair"])
def test_run_skips_the_interpreter_teardown(end):
    torn, kept = (_process("-c", f"{TEARDOWN_PROBE}\nimport runpy\nfrom isopair.cli import main, run\n{last}",
                           *CERTIFY)
                  for last in ("sys.exit(main())", end))
    assert (torn.returncode, torn.stderr) == (0, "torn down\n")
    assert (kept.returncode, kept.stdout, kept.stderr) == (0, torn.stdout, "")


def test_atexit_callbacks_run_and_their_output_is_flushed():
    code = "import atexit\natexit.register(print, 'callback ran')\nfrom isopair.cli import run\nrun()"
    proc = _process("-c", code, *CERTIFY)
    assert proc.returncode == 0
    assert proc.stdout.endswith("verdict: NonIsometric\ncallback ran\n")


def test_profiler_still_prints_its_table():
    proc = _process("-m", "cProfile", "-m", "isopair", *CERTIFY)
    assert proc.returncode == 0
    assert "verdict: NonIsometric\n" in proc.stdout
    assert "function calls" in proc.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_write_is_reported_as_before(unbuffered):
    # buffered, the write fails in the flush at exit; unbuffered, in main
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    def ended(entry):
        with open("/dev/full", "w") as full:
            return _process(*ENTRIES[entry], *CERTIFY, env=env, stdout=full)

    proc, expected = ended("python -m isopair"), ended("sys.exit(main())")
    assert (proc.returncode, proc.stderr) == (expected.returncode, expected.stderr)
    if unbuffered:
        assert proc.returncode == 1
    else:
        assert proc.returncode == 120
        assert proc.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")


class _Stream:
    def __init__(self, name, events, error=None):
        self.name, self.events, self.error = name, events, error

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.error:
            raise self.error


@pytest.fixture
def ending(monkeypatch):
    """``run`` with ``main`` returning 2, every step it takes logged and no
    tracer or profiler attached; ``os._exit`` raises ``_Exited``.  The
    streams are swapped in by the test itself, as pytest's capture sets
    them again after fixtures are set up."""
    events = []

    def _exit(code):
        events.append(f"_exit {code}")
        raise _Exited

    monkeypatch.setattr(cli, "main", lambda: 2)
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: events.append("atexit"))
    monkeypatch.setattr(os, "_exit", _exit)
    monkeypatch.setattr(sys, "gettrace", lambda: None)
    monkeypatch.setattr(sys, "getprofile", lambda: None)
    monkeypatch.setattr(sys, "monitoring", SimpleNamespace(get_tool=lambda tool: None), raising=False)
    return events


class _Exited(Exception):
    pass


def _streams(monkeypatch, stdout, stderr) -> None:
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)


def test_run_flushes_before_it_exits(ending, monkeypatch):
    _streams(monkeypatch, _Stream("stdout", ending), _Stream("stderr", ending))
    with pytest.raises(_Exited):
        cli.run()
    assert ending == ["atexit", "flush stdout", "flush stderr", "_exit 2"]


def test_run_skips_a_missing_stream(ending, monkeypatch):
    _streams(monkeypatch, None, _Stream("stderr", ending))
    with pytest.raises(_Exited):
        cli.run()
    assert ending == ["atexit", "flush stderr", "_exit 2"]


def test_failed_flush_ends_by_sys_exit(ending, monkeypatch):
    full = OSError(28, "No space left on device")
    _streams(monkeypatch, _Stream("stdout", ending, full), _Stream("stderr", ending))
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 2
    assert ending == ["atexit", "flush stdout"]


@pytest.mark.parametrize("hook", ["gettrace", "getprofile", "monitoring"])
def test_tracer_or_profiler_ends_by_sys_exit(ending, monkeypatch, hook):
    if hook == "monitoring":
        # cProfile's tool id from Python 3.12 on
        monkeypatch.setattr(sys.monitoring, "get_tool", lambda tool: "cProfile" if tool == 2 else None)
    else:
        monkeypatch.setattr(sys, hook, lambda: print)
    with pytest.raises(SystemExit) as exited:
        cli.run()
    assert exited.value.code == 2
    assert ending == []
