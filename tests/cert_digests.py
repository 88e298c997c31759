"""Pinned certificates and their recorder: SHA-256 digests of the first
``COUNT`` certificates of a seeded point stream, at budgets 40 and 80 on
both routes.  ``tests/test_cert_digests.py`` compares them with
``data/cert_digests.json``.

Each digest hashes, per certificate and in stream order, one line: the
compact JSON of ``to_json_dict()`` for the ``json`` digest and ``repr`` of
the certificate for the ``repr`` digest, so a changed byte of any
certificate, or a list where a tuple was, changes it.

This module imports no test framework, so the recorder runs on any supported
interpreter: ``PYTHONPATH=src python tests/cert_digests.py`` prints freshly
recorded digests as JSON, in the format of ``data/cert_digests.json``.
"""

import hashlib
import json
import random
import sys
from fractions import Fraction

from isopair import ParamPoint, Route, certify

SEED = 2209
COUNT = 5000
CONFIGS = ((40, Route.FROM_PSI_KERNEL), (40, Route.FROM_THETA),
           (80, Route.FROM_PSI_KERNEL), (80, Route.FROM_THETA))


def config_id(budget: int, route: Route) -> str:
    return f"{route.value}-{budget}"


def _coordinate(n: int, q: int):
    # an int where the value is whole, so the constructor's coercion runs too
    x = Fraction(n, q)
    return x.numerator if x.denominator == 1 else x


def point_stream(seed: int):
    """An endless, seed-determined sequence of coordinate 4-tuples, shuffled:
    every fourth one a tie point (5b + d = 15a + 3c once sorted, so both
    leading exponents collapse to one value), every eighth from the sixth on
    a point with a repeated value, the rest p/q with p in 1..400, q in 1..20."""
    rng = random.Random(seed)
    i = 0
    while True:
        if i % 4 == 3:
            q = rng.randint(1, 20)
            a, b, c = sorted(rng.sample(range(1, 40), 3))
            d = 15 * a + 3 * c - 5 * b
            if d <= c:
                continue
            point = [_coordinate(n, q) for n in (a, b, c, d)]
        elif i % 8 == 5:
            values = [_coordinate(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(3)]
            point = values + [rng.choice(values)]
        else:
            point = [_coordinate(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)]
        rng.shuffle(point)
        yield tuple(point)
        i += 1


def points(seed: int = SEED, count: int = COUNT) -> list[tuple]:
    stream = point_stream(seed)
    return [next(stream) for _ in range(count)]


def digests(budget: int, route: Route, coords) -> dict:
    by_json, by_repr = hashlib.sha256(), hashlib.sha256()
    for point in coords:
        cert = certify(ParamPoint(*point), budget, route)
        payload = json.dumps(cert.to_json_dict(), separators=(",", ":"))
        by_json.update(payload.encode() + b"\n")
        by_repr.update(repr(cert).encode() + b"\n")
    return {"json": by_json.hexdigest(), "repr": by_repr.hexdigest()}


def record() -> dict:
    coords = points()
    return {
        "seed": SEED,
        "count": COUNT,
        "digests": {config_id(*config): digests(*config, coords) for config in CONFIGS},
    }


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
