"""``isopair certify --batch``: one process certifies a point per line.

Each line of its output is the compact json of the certificate that
``certify --params ... --format json`` prints for that line's point, so the
output of a batch over the point stream of ``cert_digests`` hashes to the
digests kept in ``data/cert_digests.json``.  A bad line writes its 1-based
number and its error, and the run goes on.  A reader that closes the pipe
ends the run: one ``error:`` line on stderr, exit 1.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isopair
from isopair.cli import main

from cert_digests import CONFIGS, config_id, points
from conftest import COPRIME

# children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]
BATCH = ("certify", "--batch", "-", "--format", "json")
PINNED = json.loads((Path(__file__).parent / "data" / "cert_digests.json").read_text())


def _process(*argv: str, stdin: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "isopair", *argv], input=stdin.encode(),
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, timeout=120)


def _lines(coords) -> str:
    return "".join(" ".join(map(str, point)) + "\n" for point in coords)


def _run(capsys, monkeypatch, *argv, stdin=""):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _compact(out: str) -> str:
    return json.dumps(json.loads(out), separators=(",", ":"))


@pytest.mark.parametrize("budget, route", CONFIGS, ids=[config_id(*c) for c in CONFIGS])
def test_a_batch_process_gives_the_pinned_digests(budget, route):
    # one process per config over the whole stream, read from stdin as
    # ``-``; its repeated values make some certificates inconclusive, and no
    # line is bad
    proc = _process(*BATCH, "--budget", str(budget), "--route", route.value,
                    stdin=_lines(points()))
    assert (proc.returncode, proc.stderr) == (2, b"")
    pinned = PINNED["digests"][config_id(budget, route)]["json"]
    assert hashlib.sha256(proc.stdout).hexdigest() == pinned


@pytest.mark.parametrize("route", ["psi", "theta"])
@pytest.mark.parametrize(
    "params, terms",
    [(("1", "7", "13", "19"), 2), (("1", "1", "2", "3"), 0), (("13/4", "1/7", "5/11", "2/9"), 1),
     (("13/3", "2/3", "34/3", "7/3"), 2), (tuple(map(str, COPRIME)), 1),
     (("1.5", "2", "3", "4"), None)],
    ids=["integral-tie", "repeated", "cross-route", "tie", "coprime", "float"],
)
def test_each_line_is_the_single_point_output(capsys, monkeypatch, params, terms, route):
    # (2, 7, 13, 34)/3 ties, 5b + d = 15a + 3c, as (1, 7, 13, 19) does; a
    # bad point's single-point error is the line's error
    single_code, single, _ = _run(capsys, monkeypatch, "certify", "--params", *params,
                                  "--format", "json", "--route", route)
    code, out, err = _run(capsys, monkeypatch, *BATCH, "--route", route,
                          stdin=" ".join(params) + "\n")
    assert (code, err) == (single_code, "")
    if single_code == 1:
        assert json.loads(out) == {"line": 1} | json.loads(single)
    else:
        assert out == _compact(single) + "\n"
        assert len(json.loads(out)["terms"]) == terms


def test_a_bad_line_in_the_middle_is_reported_and_the_run_goes_on(capsys, monkeypatch):
    good = ["1 7 13 19", "3/4 1/2 5 9"]
    bad = ["1 7 13", "1 2 x 4", "", "0 1 2 3", "1 2 3 4 5", "1/0 2 3 4"]
    code, out, err = _run(capsys, monkeypatch, *BATCH, stdin="\n".join([good[0], *bad, good[1]]))
    assert (code, err) == (1, "")
    lines = [json.loads(line) for line in out.splitlines()]
    assert len(lines) == len(bad) + 2
    assert [entry["line"] for entry in lines[1:-1]] == list(range(2, len(bad) + 2))
    assert [len(entry) for entry in lines[1:-1]] == [2] * len(bad)
    assert lines[1]["error"] == "expected four rationals, got 3 fields"
    assert lines[3]["error"] == "expected four rationals, got 0 fields"
    assert lines[4]["error"].startswith("parameters must be positive")
    for entry, params in ((lines[0], good[0]), (lines[-1], good[1])):
        assert entry["params"] == params.split() and entry["verdict"] == "NonIsometric"


def test_exit_status_puts_a_bad_line_before_an_inconclusive_one(capsys, monkeypatch):
    assert _run(capsys, monkeypatch, *BATCH, stdin="1 7 13 19\n")[0] == 0
    assert _run(capsys, monkeypatch, *BATCH, stdin="1 7 13 19\n1 1 2 3\n")[0] == 2
    assert _run(capsys, monkeypatch, *BATCH, stdin="1 1 2 3\nx\n1 7 13 19\n")[0] == 1


def test_empty_input_writes_nothing(capsys, monkeypatch):
    assert _run(capsys, monkeypatch, *BATCH) == (0, "", "")


def test_out_writes_the_lines_to_a_file(capsys, monkeypatch, tmp_path):
    source, target = tmp_path / "points.txt", tmp_path / "certs.jsonl"
    source.write_text("1 7 13 19\n1 1 2 3\n", encoding="utf-8")
    code, out, err = _run(capsys, monkeypatch, "certify", "--batch", str(source),
                          "--format", "json", "--out", str(target))
    assert (code, out, err) == (2, "", "")
    from_stdin = _run(capsys, monkeypatch, *BATCH, stdin=source.read_text())[1]
    assert target.read_text(encoding="utf-8") == from_stdin
    assert [json.loads(line)["verdict"] for line in from_stdin.splitlines()] == [
        "NonIsometric", "Inconclusive"]


def test_each_line_is_written_before_the_next_is_read(monkeypatch):
    out = io.StringIO()

    def lines():
        for n in range(5):
            assert out.getvalue().count("\n") == n
            yield "1 7 13 19\n"

    monkeypatch.setattr(sys, "stdin", lines())
    monkeypatch.setattr(sys, "stdout", out)
    assert main(list(BATCH)) == 0
    assert out.getvalue().count("\n") == 5


class _Unread:
    def __iter__(self):
        raise AssertionError("a line was read")


@pytest.mark.parametrize("fmt", [None, "text", "csv"])
def test_only_json_is_accepted(capsys, monkeypatch, fmt):
    monkeypatch.setattr(sys, "stdin", _Unread())
    argv = ["certify", "--batch", "-"] + (["--format", fmt] if fmt else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("usage: isopair certify")
    assert captured.err.endswith(
        f"isopair certify: error: argument --batch: needs --format json, not {fmt or 'text'}\n")


def test_a_refused_budget_is_refused_before_any_line(capsys, monkeypatch):
    single = _run(capsys, monkeypatch, "certify", "--params", "1", "7", "13", "19",
                  "--format", "json", "--budget", "35")
    monkeypatch.setattr(sys, "stdin", _Unread())
    code = main([*BATCH, "--budget", "35"])
    assert (code, *capsys.readouterr()) == single
    assert single[0] == 1 and "budget >= 36" in single[1]


@pytest.mark.parametrize(
    "argv",
    [["certify", "--format", "json"],
     ["certify", "--batch", "-", "--params", "1", "7", "13", "19", "--format", "json"]],
    ids=["neither", "both"],
)
def test_exactly_one_of_params_and_batch(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "stdin", _Unread())
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert "--params" in captured.err.splitlines()[-1]
    assert "--batch" in captured.err.splitlines()[-1]


def test_a_reader_that_closes_the_pipe_ends_the_batch_with_one_error_line(tmp_path):
    # the reader takes one line and closes its end, long before the whole
    # stream's certificates could fit in the pipe: the batch writes no more
    # to stdout and exits 1 with one error line, and neither the error path
    # nor the flush at exit meets the closed pipe again
    source = tmp_path / "points.txt"
    source.write_text(_lines(points()), encoding="utf-8")
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.Popen(
        [sys.executable, "-m", "isopair", "certify", "--batch", str(source), "--format", "json"],
        env=dict(os.environ, PYTHONPATH=path), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert json.loads(first)["params"] == [str(x) for x in points()[0]]
    assert code == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err == "error: [Errno 32] Broken pipe\n"
