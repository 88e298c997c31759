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
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import isopair
from isopair.cli import main

from cert_digests import CONFIGS, config_id, points
from conftest import COPRIME

# children import the tree this process imported, as ``PYTHONPATH`` chose it
SRC = Path(isopair.__file__).resolve().parents[1]
BATCH = ("certify", "--batch", "-", "--format", "json")
PINNED = json.loads((Path(__file__).parent / "data" / "cert_digests.json").read_text())


def _process(*argv: str, stdin: str | bytes) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    data = stdin.encode() if isinstance(stdin, str) else stdin
    return subprocess.run([sys.executable, "-m", "isopair", *argv], input=data,
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


def _batch_file(path: Path) -> tuple[int, list[dict]]:
    """An in-process batch over the file at ``path``, with its records."""
    target = path.with_suffix(".jsonl")
    code = main(["certify", "--batch", str(path), "--format", "json", "--out", str(target)])
    return code, [json.loads(line) for line in target.read_text(encoding="utf-8").splitlines()]


def _decode_error(line: bytes) -> str:
    try:
        line.decode("utf-8")
    except UnicodeDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{line!r} decodes")


def test_a_line_that_is_not_utf8_is_that_lines_error(tmp_path):
    # the bad byte lies far past the first chunk the reader decodes, and
    # every other line, before it and after it, is certified
    lines = [" ".join(map(str, p)).encode() for p in combinations(range(1, 19), 4)][:2000]
    lines[1500] = b"1 2 3 \xff4"
    source = tmp_path / "points.txt"
    source.write_bytes(b"\n".join(lines) + b"\n")
    code, records = _batch_file(source)
    assert code == 1
    assert len(records) == 2000
    assert records[1500] == {"line": 1501, "error": _decode_error(lines[1500])}
    assert "can't decode byte 0xff in position 6" in records[1500]["error"]
    assert all(r["verdict"] == "NonIsometric" for r in records[:1500] + records[1501:])


def test_stdin_that_is_not_utf8_gives_one_error_line():
    # the process reads its own stdin, and the line's error is the codec's
    good = b"1 7 13 19\n"
    proc = _process(*BATCH, stdin=good * 600 + b"\xfe 2 3 4\n" + good)
    assert (proc.returncode, proc.stderr) == (1, b"")
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 602
    assert records[600] == {"line": 601, "error": _decode_error(b"\xfe 2 3 4")}
    assert records[599] == records[601]


def test_a_batch_leaves_stdin_open(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(b"1 7 13 19\n"), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(list(BATCH)) == 0
    assert not stdin.buffer.closed
    assert json.loads(capsys.readouterr().out)["verdict"] == "NonIsometric"


# (y, 2y, 3y, 3y + z) with z < 11y leads at (10, 10, 2, 2) alone, with the
# value -12 (b - a)(d - c) = -12 y z: 12 * 10**4298 has 4300 digits, Python's
# default limit, and 12 * 10**4299 has 4301
Y = 10**2149
AT_THE_LIMIT, PAST_THE_LIMIT = ((Y, 2 * Y, 3 * Y, 3 * Y + z) for z in (Y, 10 * Y))


def test_a_certificate_value_at_the_digit_limit_is_printed(capsys, monkeypatch):
    assert sys.get_int_max_str_digits() == 4300
    code, out, err = _run(capsys, monkeypatch, "certify", "--params", *map(str, AT_THE_LIMIT),
                          "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["total"] == str(-12 * Y * Y)
    assert len(str(12 * Y * Y)) == 4300


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_certificate_value_past_the_digit_limit_refuses_the_point(capsys, monkeypatch, fmt):
    code, out, err = _run(capsys, monkeypatch, "certify", "--params", *map(str, PAST_THE_LIMIT),
                          "--format", fmt)
    message = json.loads(out)["error"] if fmt == "json" else err.removeprefix("error: ")
    assert code == 1
    assert message.startswith("a certificate value exceeds 4300 digits")


def test_the_digit_limit_refuses_only_its_line_in_a_batch(capsys, monkeypatch):
    lines = [AT_THE_LIMIT, PAST_THE_LIMIT, (1, 2, 3, "1" * 4300), (1, 2, 3, "1" * 4301), COPRIME]
    code, out, err = _run(capsys, monkeypatch, *BATCH, stdin=_lines(lines))
    assert (code, err) == (1, "")
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 5
    assert [r.get("line") for r in records] == [None, 2, None, 4, None]
    assert records[0]["total"] == str(-12 * Y * Y)
    assert records[1]["error"].startswith("a certificate value exceeds 4300 digits")
    # a 4300-digit parameter is read: (1, 2, 3, d) leads at (25, 5, 5, 1),
    # whose value -96 a (c - b) is short
    assert (records[2]["params"][3], records[2]["total"]) == ("1" * 4300, "-96")
    # a longer parameter is refused when it is read, with Python's own message
    assert "4300" in records[3]["error"] and "integer string conversion" in records[3]["error"]
    assert records[4]["verdict"] == "NonIsometric"


# the line kinds of the contract: a certificate, an inconclusive one, or an error
_LINES = {
    "good": st.sampled_from([b"1 7 13 19", b"3/4 1/2 5 9", b"2 3 5 7", b"13/4 1/7 5/11 2/9",
                             b" 4 3\t2 1 "]),
    "inconclusive": st.sampled_from([b"1 1 2 3", b"2/2 1 3 4", b"5 5 5 5"]),
    "bad": st.sampled_from([b"", b"1 7 13", b"1 2 x 4", b"1.5 2 3 4", b"0 1 2 3", b"1 2 3 4 5",
                            b"1/0 2 3 4", b"-1 2 3 4", "1 2 3 \u0664".encode(), b"1 2 3 4\xff",
                            b"\xff", b"1 2 3 " + b"9" * 4301]),
}


@given(st.lists(st.sampled_from(sorted(_LINES)).flatmap(
    lambda kind: st.tuples(st.just(kind), _LINES[kind])), max_size=12))
def test_each_input_line_gives_one_record_and_the_exit_rule_holds(lines):
    with tempfile.TemporaryDirectory() as folder:
        source = Path(folder) / "points.txt"
        source.write_bytes(b"".join(line + b"\n" for _, line in lines))
        code, records = _batch_file(source)
    kinds = [kind for kind, _ in lines]
    assert len(records) == len(lines)
    for n, (kind, record) in enumerate(zip(kinds, records), 1):
        if kind == "bad":
            assert record.keys() == {"line", "error"} and record["line"] == n
        else:
            assert record["verdict"] == ("NonIsometric" if kind == "good" else "Inconclusive")
    assert code == (1 if "bad" in kinds else 2 if "inconclusive" in kinds else 0)
