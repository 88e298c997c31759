"""Reference answers that do not come from the code path under test.

The leading term of the discrepancy at a sorted point a < b < c < d is the
paper's closed form: the minimal exponent is the smaller of
sigma(10,10,2,2) and sigma(25,5,5,1), and the leading coefficient sums
-12(b-a)(d-c) and -96a(c-b) over the exponents that reach it.  Whole
discrepancy series are checked against a stored symbolic series
(``ref_delta_b80.json``, written by ``make_reference.py`` through the theta
route), collapsed here by a few lines of ``Fraction`` arithmetic.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("ref_delta_b80.json")

LEADING = (
    ((10, 10, 2, 2), lambda a, b, c, d: -12 * (b - a) * (d - c)),
    ((25, 5, 5, 1), lambda a, b, c, d: -96 * a * (c - b)),
)

VERIFY_ANCHORS = (
    "code census",
    "code orbits",
    "intersection graph",
    "code matching",
    "basis change",
    "lattice indices",
    "common sublattice",
    "alternative generators",
    "isospectrality",
    "kernel identity",
    "class relations",
    "route equivalence",
    "class decomposition",
    "minimal vectors",
    "minimal pairs",
    "leading coefficients",
)


def sigma(exponent, point) -> Fraction:
    return sum(n * x for n, x in zip(exponent, point))


def leading_term(point) -> tuple[Fraction, Fraction, int]:
    """(minimal exponent, total leading coefficient, number of terms) of the
    discrepancy at the sorted point."""
    ordered = sorted(Fraction(x) for x in point)
    values = [sigma(e, ordered) for e, _ in LEADING]
    low = min(values)
    hits = [coeff(*ordered) for (_, coeff), v in zip(LEADING, values) if v == low]
    return low, sum(hits, Fraction(0)), len(hits)


# A symbolic series is {exponent 4-tuple: {monomial 4-tuple: Fraction}}.


def load_reference() -> tuple[int, dict]:
    """(budget, series) stored in ``ref_delta_b80.json``."""
    data = json.loads(REFERENCE_PATH.read_text())
    series = {
        tuple(e): {tuple(m): Fraction(c) for m, c in poly} for e, poly in data["terms"]
    }
    return data["budget"], series


@cache
def reference() -> dict:
    """The stored budget-80 series, read once."""
    return load_reference()[1]


def truncate(series: dict, budget: int) -> dict:
    return {e: poly for e, poly in series.items() if sum(e) <= budget}


def collapse(series: dict, point) -> list[tuple[Fraction, Fraction]]:
    """Evaluate a symbolic series at a point (as given, not sorted), merge
    equal exponents and drop zero coefficients, by ascending exponent."""
    merged: dict[Fraction, Fraction] = {}
    for e, poly in series.items():
        value = Fraction(0)
        for mono, coeff in poly.items():
            for x, power in zip(point, mono):
                coeff *= x**power
            value += coeff
        x = sigma(e, point)
        merged[x] = merged.get(x, Fraction(0)) + value
    return sorted((x, c) for x, c in merged.items() if c)


# Output checks: each returns None when the output is right, else a reason.


def check_certificate(payload: dict, point) -> str | None:
    args = [str(x) for x in point]
    if payload.get("verdict") != "NonIsometric":
        return f"verdict {payload.get('verdict')!r}"
    if payload.get("params") != args:
        return f"params echoed as {payload.get('params')}"
    if [Fraction(x) for x in payload["sorted_params"]] != sorted(Fraction(x) for x in args):
        return f"sorted_params {payload['sorted_params']}"
    if sorted(payload["permutation"]) != [0, 1, 2, 3]:
        return f"permutation {payload['permutation']}"
    low, total, nterms = leading_term(point)
    got = (Fraction(payload["min_exponent"]), Fraction(payload["total"]), len(payload["terms"]))
    if got != (low, total, nterms):
        return f"leading term {got}, expected {(low, total, nterms)}"
    if sum(Fraction(t["value"]) for t in payload["terms"]) != total:
        return "term values do not sum to the total"
    return None


def check_delta(payload: dict, point, reference: dict, budget: int) -> str | None:
    if payload.get("budget") != budget or payload.get("params") != [str(x) for x in point]:
        return f"budget/params echoed as {payload.get('budget')}, {payload.get('params')}"
    got = [(Fraction(x), Fraction(c)) for x, c in payload["series"]]
    low, total, _ = leading_term(point)
    if not got or got[0] != (low, total):
        return f"leading term {got[:1]}, closed form {(low, total)}"
    expected = collapse(truncate(reference, budget), [Fraction(x) for x in point])
    if got != expected:
        return f"series differs from the reference ({len(got)} vs {len(expected)} terms)"
    return None


def check_verify(payload: list) -> str | None:
    names = [entry.get("anchor") for entry in payload]
    if names != list(VERIFY_ANCHORS):
        return f"anchors {names}"
    failed = [entry["anchor"] for entry in payload if entry.get("status") != "pass"]
    return f"anchors failed: {failed}" if failed else None
