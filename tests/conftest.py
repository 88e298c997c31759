import random
from fractions import Fraction
from functools import lru_cache

from hypothesis import settings

from isopair import ParamPoint, build_family, inner_poly, psi
from isopair.theta import pair_series

settings.register_profile("exact", deadline=None, max_examples=100)
settings.load_profile("exact")

SCHIEMANN = ParamPoint(1, 7, 13, 19)
SMALL = ParamPoint(1, 2, 3, 4)


def random_admissible_point(rng: random.Random) -> ParamPoint:
    """A random strictly increasing positive rational 4-tuple."""
    while True:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)}
        if len(values) == 4:
            return ParamPoint(*sorted(values))


def admissible_samples(seed: int, count: int) -> list[ParamPoint]:
    rng = random.Random(seed)
    return [random_admissible_point(rng) for _ in range(count)]


def fraction_pair_sum(first, second, budget: int):
    """Reference class sum: ``<l,k>^2 - <psi l,psi k>^2`` as Fraction-valued
    polynomials over every pair of ``first`` x ``second`` within the budget
    (no prefactor), with psi computed once per vector."""
    images = {v: psi(v) for v in (*first, *second)}

    def kernel(l, k):
        ip = inner_poly(l, k)
        ipp = inner_poly(images[l], images[k])
        return ip * ip - ipp * ipp

    return pair_series(first, second, budget, kernel)


@lru_cache(maxsize=None)
def fraction_delta(budget: int):
    """Reference discrepancy: 1/8 of the Fraction-valued psi-kernel sum over
    all of L1 x L1, with no class restriction."""
    shell = build_family().L1.vectors(budget)
    return fraction_pair_sum(shell, shell, budget).scaled(Fraction(1, 8))
