"""Seeded parameter points for the benchmark workloads.

Every point is four pairwise-distinct positive rationals p/q with p in
1..400 and q in 1..20.  Points are handed out unsorted, so ``certify`` runs
its permutation path.  Every ``TIE_EVERY``-th point is a tie point: once
sorted it satisfies 5b + d = 15a + 3c, so both leading exponents
(10,10,2,2) and (25,5,5,1) collapse to the same value and the certificate
has two terms.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import count

MAX_NUMERATOR = 400
MAX_DENOMINATOR = 20
TIE_EVERY = 4

Point = tuple[Fraction, Fraction, Fraction, Fraction]


def is_tie(point: Point) -> bool:
    a, b, c, d = sorted(point)
    return 5 * b + d == 15 * a + 3 * c


def _plain(rng: random.Random) -> Point:
    while True:
        values = {
            Fraction(rng.randint(1, MAX_NUMERATOR), rng.randint(1, MAX_DENOMINATOR))
            for _ in range(4)
        }
        if len(values) == 4 and not is_tie(tuple(values)):
            return tuple(sorted(values))


def _tie(rng: random.Random) -> Point:
    # numerators over one denominator q; d = 15a + 3c - 5b keeps the tie exact
    while True:
        q = rng.randint(1, MAX_DENOMINATOR)
        a, b, c = sorted(rng.sample(range(1, MAX_NUMERATOR // 15), 3))
        d = 15 * a + 3 * c - 5 * b
        if c < d <= MAX_NUMERATOR:
            return tuple(Fraction(n, q) for n in (a, b, c, d))


def stream(seed: int, shuffle: bool = True):
    """An endless, seed-determined sequence of points.

    With ``shuffle`` each point comes in a non-increasing-chain order, so that
    sorting it is never the identity; without it points come sorted.
    """
    rng = random.Random(seed)
    for i in count():
        point = _tie(rng) if i % TIE_EVERY == 0 else _plain(rng)
        if shuffle:
            order = list(point)
            while order == list(point):
                rng.shuffle(order)
            point = tuple(order)
        yield point


def as_args(point: Point) -> list[str]:
    """The point as four exact-rational command-line arguments."""
    return [str(x) for x in point]
