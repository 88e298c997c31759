import argparse
import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isopair import cli
from isopair.cli import main
from isopair.verification import SCHIEMANN_TERM

from conftest import CANCELLING_TIE, ZERO_SECOND_ROW


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCodes:
    def test_list_text(self, capsys):
        code, out, _ = run(capsys, "codes", "list")
        assert code == 0
        assert out.count("C") >= 8 and "C1" in out

    def test_list_csv(self, capsys):
        code, out, _ = run(capsys, "codes", "list", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["code", "generator1", "generator2"]
        assert len(rows) == 9  # header + 8 codes

    def test_graph_json(self, capsys):
        code, out, _ = run(capsys, "codes", "graph", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["edges"] == 16
        assert payload["bipartite"] is True
        assert payload["parts"] == [["C1", "C3", "C5", "C7"], ["C2", "C4", "C6", "C8"]]


class TestPair:
    def test_show_json(self, capsys):
        code, out, _ = run(capsys, "pair", "show", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = [entry["lattice"] for entry in payload["lattices"]]
        assert names == ["L", "L1", "L2", "L12", "M"]
        for entry in payload["lattices"]:
            assert len(entry["generators"]) == 4
            assert len(entry["hnf"]) == 4
        assert payload["indices"]["[L:L1]"] == 9


class TestSpectrum:
    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--lattice", "L1", "--params", "1", "7", "13", "19",
            "--budget", "12", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["exponent", "coefficient"]
        assert rows[1] == ["0", "1"]
        assert rows[2] == ["48", "2"]

    def test_rational_params(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--params", "1/2", "7/2", "13/2", "19/2",
            "--budget", "12", "--format", "csv",
        )
        assert code == 0
        assert "24,2" in out  # exponents are halved exactly

    def test_isospectral(self, capsys):
        code, out, _ = run(
            capsys, "isospectral", "--params", "1", "7", "13", "19", "--budget", "24",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["equal"] is True


class TestInvariantAndDelta:
    def test_invariant_runs(self, capsys):
        code, out, _ = run(
            capsys, "invariant", "--lattice", "L1", "--params", "1", "7", "13", "19",
            "--budget", "24", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["series"], "expected a nonempty collapsed series"

    def test_invariant_kernels_agree(self, capsys):
        _, out1, _ = run(
            capsys, "invariant", "--kernel", "pairwise", "--params", "1", "2", "3", "4",
            "--budget", "24", "--format", "csv",
        )
        _, out2, _ = run(
            capsys, "invariant", "--kernel", "defining", "--params", "1", "2", "3", "4",
            "--budget", "24", "--format", "csv",
        )
        assert out1 == out2

    def test_delta_leading_row(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--params", "1", "7", "13", "19", "--budget", "24",
            "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1] == ["144", "-432"]  # budget 24 sees only the first bold pair

    def test_delta_routes_agree(self, capsys):
        _, out1, _ = run(
            capsys, "delta", "--route", "psi", "--params", "1", "2", "3", "4",
            "--budget", "24", "--format", "csv",
        )
        _, out2, _ = run(
            capsys, "delta", "--route", "theta", "--params", "1", "2", "3", "4",
            "--budget", "24", "--format", "csv",
        )
        assert out1 == out2

    def test_theta_route_remainder_exits_1(self, capsys, monkeypatch):
        import isopair.discrepancy

        from test_discrepancy import _off_by_one_theta11

        monkeypatch.setattr(isopair.discrepancy, "theta11", _off_by_one_theta11)
        code, out, err = run(
            capsys, "delta", "--route", "theta", "--params", "1", "2", "3", "4",
            "--budget", "24",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "not an integer" in err


def _same_fraction(x, y) -> bool:
    return (type(x), x._numerator, x._denominator, x, hash(x), str(x)) == (
        type(y), y._numerator, y._denominator, y, hash(y), str(y))


class TestParseRational:
    """A field is built from the integer pieces of its match, and equals the
    ``Fraction`` of its text."""

    # the line grammar: an optional sign, ASCII digits (leading zeros
    # included) and an optional ``/`` with a denominator that is not zero
    fields = st.builds(
        lambda sign, num, den: sign + num + (f"/{den}" if den else ""),
        st.sampled_from(["", "+", "-"]),
        st.from_regex(r"[0-9]{1,40}", fullmatch=True) | st.integers(0, 10**4299).map(str),
        st.none() | st.from_regex(r"[1-9][0-9]{0,40}", fullmatch=True)
        | st.integers(1, 10**4299).map(str),
    )

    @given(fields)
    def test_matches_the_fraction_of_the_text(self, text):
        assert _same_fraction(cli.parse_rational(text), Fraction(text))

    @pytest.mark.parametrize(
        "text", ["", "1.5", " 1", "1 ", "1_000", "1/0", "1/-2", "1/+2", "+-1", "/2", "1/", "0x10",
                 "\u0663", "1e3", "nan", "1/2/3"])
    def test_refuses_what_is_not_the_grammar(self, text):
        with pytest.raises(cli.CliError, match="^not an exact rational: "):
            cli.parse_rational(text)

    @pytest.mark.parametrize("text", ["1" * 4301, "-" + "1" * 4301, "1/" + "1" * 4301])
    def test_refuses_a_part_past_the_digit_limit_as_fraction_does(self, text):
        with pytest.raises(ValueError) as parsed:
            cli.parse_rational(text)
        with pytest.raises(ValueError) as fraction:
            Fraction(text)
        assert str(parsed.value) == str(fraction.value)
        assert "4300" in str(parsed.value)


class TestCertify:
    def test_integral_example(self, capsys):
        code, out, _ = run(capsys, "certify", "--params", "1", "7", "13", "19")
        assert code == 0
        assert "NonIsometric" in out
        assert all(str(x) in out for x in SCHIEMANN_TERM)

    def test_inconclusive_exit_code(self, capsys):
        code, out, _ = run(capsys, "certify", "--params", "1", "1", "2", "3")
        assert code == 2
        assert "Inconclusive" in out

    def test_float_rejected(self, capsys):
        code, out, _ = run(capsys, "certify", "--params", "1.5", "2", "3", "4", "--format", "json")
        assert code == 1
        assert "error" in json.loads(out)

    @pytest.mark.parametrize("command", ["certify", "delta"])
    @pytest.mark.parametrize("digit", ["\uff13", "\u0663", "3\n"], ids=["fullwidth", "arabic-indic", "newline"])
    def test_non_ascii_digits_and_newline_rejected(self, capsys, command, digit):
        # the syntax is ASCII integers or p/q, matched in full
        argv = (command, "--params", digit, "2", "5", "7", "--budget", "36")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: not an exact rational: {digit!r} (use an integer or p/q)\n"
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 1 and err == ""
        assert json.loads(out)["error"].startswith("not an exact rational: ")

    def test_nonpositive_rejected(self, capsys):
        code, _, err = run(capsys, "certify", "--params", "0", "1", "2", "3")
        assert code == 1
        assert err == "error: parameters must be positive, got (0, 1, 2, 3)\n"

    def test_internal_consistency_failure_exits_1(self, capsys, monkeypatch):
        # an entry whose chain coefficients are zero leads nowhere
        import isopair.discrepancy

        entry = tuple(
            (e, poly, (0, u, v)) for e, poly, (_, u, v) in isopair.discrepancy.LEADING_ENTRY
        )
        monkeypatch.setattr(isopair.discrepancy, "LEADING_ENTRY", entry)
        argv = ("certify", "--params", "1", "7", "13", "19")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: internal consistency failure: ")
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 1 and err == ""
        assert json.loads(out)["error"].startswith("internal consistency failure: ")

    def test_huge_budget_gives_the_budget_40_certificate(self, capsys, monkeypatch):
        # the stated leading entry serves every budget, so a hostile budget
        # costs nothing: no pair kernel is evaluated
        import isopair.discrepancy

        kernel = isopair.discrepancy.pair_discrepancy_vector
        pairs = []

        def recorded(l, k):
            pairs.append((l, k))
            return kernel(l, k)

        monkeypatch.setattr(isopair.discrepancy, "pair_discrepancy_vector", recorded)
        argv = ("certify", "--params", "1", "7", "13", "19", "--format", "json")
        code, out, err = run(capsys, *argv, "--budget", "1000000000")
        assert code == 0 and err == ""
        huge = json.loads(out)
        code, out, err = run(capsys, *argv, "--budget", "40")
        assert code == 0 and err == ""
        expected = json.loads(out)
        assert huge.pop("budget") == 10**9 and expected.pop("budget") == 40
        assert huge == expected
        assert pairs == []

    @pytest.mark.parametrize(
        "entry, params",
        [
            (CANCELLING_TIE, ("1", "7", "13", "19")),
            (ZERO_SECOND_ROW, ("1/7", "2/9", "5/11", "13/4")),
        ],
        ids=["tie", "one-leader"],
    )
    def test_cancelling_leaders_exit_1(self, capsys, monkeypatch, entry, params):
        # the one check certify makes at every point: the leaders' sum
        import isopair.discrepancy

        monkeypatch.setattr(isopair.discrepancy, "LEADING_ENTRY", entry)
        message = (
            "internal consistency failure: "
            "collapsed series does not lead at the minimal pair exponent"
        )
        code, out, err = run(capsys, "certify", "--params", *params)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        code, out, err = run(capsys, "certify", "--params", *params, "--format", "json")
        assert code == 1 and err == ""
        assert json.loads(out)["error"] == message

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--params", "19", "7", "1", "13", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["sorted_params"] == ["1", "7", "13", "19"]
        point = [Fraction(x) for x in payload["sorted_params"]]
        total = Fraction(0)
        for term in payload["terms"]:
            value = sum(
                Fraction(c) * point[0] ** m[0] * point[1] ** m[1] * point[2] ** m[2] * point[3] ** m[3]
                for m, c in term["polynomial"]
            )
            assert value == Fraction(term["value"])
            total += value
        assert total == Fraction(payload["total"]) == SCHIEMANN_TERM[1]


class TestVerify:
    def test_all_anchors_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--budget", "36", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 16
        assert all(entry["status"] == "pass" for entry in payload)

    def test_budget_below_threshold(self, capsys):
        code, _, err = run(capsys, "verify", "--budget", "0")
        assert code == 1
        assert "36" in err

    def test_text_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--budget", "36")
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 16
        assert all(line.startswith("ok") for line in lines)


class TestPlumbing:
    def test_deterministic_output(self, capsys):
        args = ("delta", "--params", "1", "7", "13", "19", "--budget", "24", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.csv"
        code, out, _ = run(
            capsys, "spectrum", "--params", "1", "7", "13", "19", "--budget", "12",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("exponent,coefficient")

    def test_unknown_command_exits_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_params_exits_1(self, capsys):
        code, _, _ = run(capsys, "certify")
        assert code == 1


class TestParser:
    """``main`` builds only the parser of the command that ``argv[0]`` names;
    what it prints must not tell it from the parser of every command."""

    @pytest.mark.parametrize(
        "argv",
        [
            [], ["--help"], ["bogus"], ["codes"], ["codes", "bogus"], ["certify", "--help"],
            ["certify", "--params", "1", "2", "3", "5", "extra"], ["verify", "--budget", "x"],
            ["certify", "--par", "1", "2", "3", "5", "--form", "json"],
        ],
        ids=" ".join,
    )
    def test_same_output_as_every_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        one = run(capsys, *argv)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert one == run(capsys, *argv)

    def test_help_describes_the_commands_only(self, capsys):
        # the module docstring's last paragraph is for readers of the code
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "including an internal consistency failure." in out
        assert "builds only" not in out

    def test_certify_builds_two_parsers(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, _, _ = run(capsys, "certify", "--params", "1", "7", "13", "19")
        assert code == 0
        assert built == ["isopair", "isopair certify"]
