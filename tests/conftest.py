import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import add

from hypothesis import settings

from isopair import (
    FormalQSeries,
    Kernel,
    ParamPoint,
    ParamPolynomial,
    build_family,
    phi,
    psi,
)
from isopair.discrepancy import _class_sum, _labelled_shell, _leading_data
from isopair.qarith import QUAD_MONOS, QUAD_SLOTS, _cleared

settings.register_profile("exact", deadline=None, max_examples=100)
settings.load_profile("exact")

UNIT_MONOS = tuple(tuple(int(u == i) for u in range(4)) for i in range(4))  # a, b, c, d


class Poly(ParamPolynomial):
    """A ``ParamPolynomial`` with the ``+``, ``-``, ``*`` and int scaling of
    the Fraction oracles, which multiply linear forms independently of the
    package's integer slot kernels."""

    def _sum(self, terms) -> "Poly":
        acc: dict = {}
        for mono, coeff in terms:  # the operands were checked when built
            acc[mono] = acc[mono] + coeff if mono in acc else coeff
        out = Poly.__new__(Poly)
        out.terms = {mono: coeff for mono, coeff in acc.items() if coeff}
        return out

    def __add__(self, other):
        return self._sum([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        if not isinstance(other, ParamPolynomial):  # a scalar
            other = Poly({(0, 0, 0, 0): other})
        return self._sum(
            (tuple(map(add, m1, m2)), c1 * c2)
            for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items()
        )

    __rmul__ = __mul__


VARIABLES = tuple(Poly({mono: 1}) for mono in UNIT_MONOS)


def mono_vector(poly: ParamPolynomial) -> list:
    """A polynomial as the vector on ``QUAD_MONOS`` that ``FormalQSeries``
    takes: a monomial outside ``QUAD_MONOS`` raises ``ValueError`` (from
    ``QUAD_MONOS.index``)."""
    vector = [0] * len(QUAD_MONOS)
    for mono, coeff in poly.terms.items():
        vector[QUAD_MONOS.index(mono)] = coeff
    return vector


def poly_series(budget: int, polys) -> FormalQSeries:
    return FormalQSeries(budget, {e: mono_vector(poly) for e, poly in polys.items()})


def add_series(*summands: FormalQSeries) -> FormalQSeries:
    """The sum of series of one budget, vector by vector: the addition the
    tests use as a tool, which the package's series view does not have."""
    budget = summands[0].budget
    acc: dict = {}
    for summand in summands:
        if summand.budget != budget:
            raise ValueError(f"budget mismatch: {budget} != {summand.budget}")
        for e, v in summand.terms.items():
            acc[e] = list(map(add, acc[e], v)) if e in acc else v
    return FormalQSeries(budget, acc)


def scale_series(series: FormalQSeries, factor) -> FormalQSeries:
    """The series times an int or Fraction; a product that is not an
    integer raises ``ValueError`` instead of being rounded."""
    factor = Fraction(factor)
    n, d = factor.numerator, factor.denominator
    for e, v in series.terms.items():
        if any(x % d for x in v):
            raise ValueError(f"coefficient at {e} times {factor} is not an integer")
    return FormalQSeries(
        series.budget, {e: [x // d * n for x in v] for e, v in series.terms.items()}
    )


def inner_poly(v, w) -> Poly:
    """The inner product as a linear polynomial in (a, b, c, d)."""
    return Poly(dict(zip(UNIT_MONOS, (x * y for x, y in zip(v, w)))))


def norm_poly(v) -> Poly:
    return inner_poly(v, v)


def random_admissible_point(rng: random.Random) -> ParamPoint:
    """A random strictly increasing positive rational 4-tuple."""
    while True:
        values = {Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)}
        if len(values) == 4:
            return ParamPoint(*sorted(values))


def admissible_samples(seed: int, count: int) -> list[ParamPoint]:
    rng = random.Random(seed)
    return [random_admissible_point(rng) for _ in range(count)]


def collapse_points(seed: int, count: int) -> list[ParamPoint]:
    """Admissible points with denominators 1..20; every fourth one is a tie
    point, 5b + d = 15a + 3c, where the two leading exponents of the
    discrepancy collapse to the same value."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = sorted({Fraction(rng.randint(1, 400), rng.randint(1, 20)) for _ in range(4)})
        if len(values) < 4:
            continue
        a, b, c, d = values
        if len(out) % 4 == 3:
            d = 15 * a + 3 * c - 5 * b
            if d <= c:
                continue
        out.append(ParamPoint(a, b, c, d))
    return out


def _fraction_sum(first, second, budget: int, kernel):
    """Sum ``kernel(l, k) * q^(phi(l) + phi(k))`` with Fraction-valued
    polynomial arithmetic over every pair of ``first`` x ``second`` within
    the budget, visiting all of them in input order."""
    acc: dict = {}
    for l in first:
        for k in second:
            e = tuple(x + y for x, y in zip(phi(l), phi(k)))
            if sum(e) <= budget:
                acc[e] = acc[e] + kernel(l, k) if e in acc else kernel(l, k)
    return poly_series(budget, acc)


def class_pair_series(label1, label2, budget: int) -> FormalQSeries:
    """The discrepancy contribution of one ordered pair of coset classes
    (no prefactor): the package's class sum over L1's shell at the budget."""
    return _class_sum(_labelled_shell(budget), label1, label2, budget)


def pair_discrepancy_kernel(l, k):
    """<l,k>^2 - <psi(l),psi(k)>^2 for vectors of L1, by Fraction-valued
    polynomial arithmetic."""
    ip = inner_poly(l, k)
    ipp = inner_poly(psi(l), psi(k))
    return ip * ip - ipp * ipp


def fraction_pair_sum(first, second, budget: int):
    """Reference class sum: ``<l,k>^2 - <psi l,psi k>^2`` as Fraction-valued
    polynomials over every pair of ``first`` x ``second`` within the budget
    (no prefactor), with psi computed once per vector."""
    images = {v: psi(v) for v in (*first, *second)}

    def kernel(l, k):
        ip = inner_poly(l, k)
        ipp = inner_poly(images[l], images[k])
        return ip * ip - ipp * ipp

    return _fraction_sum(first, second, budget, kernel)


def fraction_pairwise_kernel(l, k):
    """16<l,k>^2 - 4|l|^2|k|^2 by Fraction-valued polynomial arithmetic."""
    ip = inner_poly(l, k)
    return 16 * (ip * ip) - 4 * (norm_poly(l) * norm_poly(k))


def fraction_defining_kernel(l, k):
    """32*sum_{i<j} x_i x_j p_i p_j + sum_i (4 l_i^2 p_i - |l|^2)(4 k_i^2 p_i
    - |k|^2) by Fraction-valued polynomial arithmetic."""
    p = VARIABLES
    acc = Poly()
    for i in range(4):
        for j in range(i + 1, 4):
            acc = acc + 32 * l[i] * l[j] * k[i] * k[j] * (p[i] * p[j])
    nl, nk = norm_poly(l), norm_poly(k)
    for i in range(4):
        acc = acc + (4 * l[i] * l[i] * p[i] - nl) * (4 * k[i] * k[i] * p[i] - nk)
    return acc


FRACTION_KERNELS = {
    Kernel.PAIRWISE: fraction_pairwise_kernel,
    Kernel.DEFINING: fraction_defining_kernel,
}


def fraction_theta11(lattice, budget: int, kernel):
    """Reference invariant: the Fraction-valued kernel over every ordered
    pair of the budget shell."""
    shell = lattice.vectors(budget)
    return _fraction_sum(shell, shell, budget, FRACTION_KERNELS[kernel])


@lru_cache(maxsize=None)
def fraction_delta(budget: int):
    """Reference discrepancy: 1/8 of the Fraction-valued psi-kernel sum over
    all of L1 x L1, with no class restriction."""
    shell = build_family().L1.vectors(budget)
    return scale_series(fraction_pair_sum(shell, shell, budget), Fraction(1, 8))


def sigma(e, p) -> Fraction:
    """Evaluate an exponent vector at a point in Fractions:
    a*n0 + b*n1 + c*n2 + d*n3."""
    return p.a * e[0] + p.b * e[1] + p.c * e[2] + p.d * e[3]


# a coefficient compiled to (coefficient, s, t) triples on ``QUAD_SLOTS``
Compiled = tuple[tuple[int, int, int], ...]


def _compile(vector) -> Compiled:
    """A coefficient vector on ``QUAD_MONOS`` as the (coefficient, s, t)
    triples of its nonzero entries, ``p_s*p_t`` the entry's monomial: at the
    point cleared to ``(D, A)`` the sum of ``coefficient * A[s] * A[t]`` is
    the coefficient's value times ``D^2``."""
    return tuple((x, s, t) for (s, t), x in zip(QUAD_SLOTS, vector) if x)


def compiled_integer(compiled: Compiled, A) -> int:
    """A compiled coefficient at the point cleared to ``(D, A)``: the sum of
    ``coefficient * A[s] * A[t]`` over its triples, the value times ``D^2``."""
    return sum(coeff * A[s] * A[t] for coeff, s, t in compiled)


def integer_evaluate(poly: ParamPolynomial, D: int, A) -> int:
    """Reference integer evaluation at the point cleared to ``(D, A)``: the
    sum of ``coeff * A^mono * D^(2 - deg mono)`` over the terms, each power
    taken in full, as the integer over ``D^2``."""
    a0, a1, a2, a3 = A
    total = 0
    for (n0, n1, n2, n3), coeff in poly.terms.items():
        total += coeff * D ** (2 - n0 - n1 - n2 - n3) * a0**n0 * a1**n1 * a2**n2 * a3**n3
    return total


def evaluate(poly: ParamPolynomial, p) -> Fraction:
    """Exact substitution of a parameter point: ``integer_evaluate`` divided
    once."""
    D, A = _cleared(p)
    return Fraction(integer_evaluate(poly, D, A), D * D)


def fraction_evaluate(poly: ParamPolynomial, p) -> Fraction:
    """Reference evaluation: each term's coefficient times its powers of the
    point's coordinates, multiplied out one factor at a time in Fractions."""
    total = Fraction(0)
    for mono, coeff in poly.terms.items():
        value = coeff
        for x, power in zip(p, mono):
            for _ in range(power):
                value *= x
        total += value
    return total


def fraction_collapse(series, p):
    """Reference collapse: ``sigma(e, p)`` and the Fraction evaluation of
    ``series.coefficient(e)`` per exponent, merged and sorted."""
    merged: dict = {}
    for e in series:
        x = sigma(e, p)
        merged[x] = merged.get(x, Fraction(0)) + fraction_evaluate(series.coefficient(e), p)
    return tuple(sorted((x, c) for x, c in merged.items() if c))


# the smallest integral point with distinct values
SMALL = ParamPoint(1, 2, 3, 4)
# a point whose four coordinates have pairwise coprime denominators
COPRIME = ParamPoint(Fraction(1, 7), Fraction(2, 9), Fraction(5, 11), Fraction(13, 4))


def cancelling_tie(route):
    """``_leading_data`` with its second row's chain monomial replaced by the
    first row's, its coefficient negated: where the two rows tie, as at
    ``SCHIEMANN`` (+432 against -432), the leaders' values sum to zero."""
    first, (e, poly, _) = _leading_data(route)
    coefficient, u, v = first[2]
    return first, (e, poly, (-coefficient, u, v))


def zero_second_row(route):
    """``_leading_data`` with its second row's chain coefficient 0: where
    that row leads alone, as at ``COPRIME``, the leading value is zero."""
    first, (e, poly, (_, u, v)) = _leading_data(route)
    return first, (e, poly, (0, u, v))


def generator_normalize(w):
    """``codes.normalize`` as generator expressions over the entries: the
    oracle of the unpacked four-coordinate version."""
    w = tuple(x % 3 for x in w)
    if len(w) != 4:
        raise ValueError(f"words live in F_3^4, got {w!r}")
    return w


def generator_word_dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v)) % 3


def generator_span_pair(g1, g2) -> frozenset:
    """The words of ``TernaryCode.from_generators(g1, g2)`` as a generator
    expression over i, j and the entries."""
    g1, g2 = generator_normalize(g1), generator_normalize(g2)
    words = frozenset(
        tuple((i * a + j * b) % 3 for a, b in zip(g1, g2)) for i in range(3) for j in range(3)
    )
    if len(words) != 9:
        raise ValueError(f"{g1} and {g2} do not span a 2-dimensional subspace")
    return words


def generator_matvec(m, v) -> tuple:
    """``lattices._matvec`` as generator expressions over rows and entries."""
    return tuple(sum(m[i][k] * v[k] for k in range(4)) for i in range(4))


def walk_scan(lattice, budget: int) -> tuple:
    """``Lattice.vectors`` as the recursive walk on the normal form: the
    oracle of the unrolled ``Lattice._scan``.  Once the rows above i are
    fixed, coordinate i is the offset they leave plus a multiple of the
    pivot ``h[i][i]``, inside the interval the remaining budget allows."""
    h = lattice.hnf

    def walk(i, rest, offset, prefix):
        r, step = math.isqrt(rest), h[i][i]
        for x in range(-r + (offset[i] + r) % step, r + 1, step):
            v = prefix + (x,)
            if i == 3:
                yield v
            else:
                c = (x - offset[i]) // step
                shifted = tuple(o + c * y for o, y in zip(offset, h[i]))
                yield from walk(i + 1, rest - x * x, shifted, v)

    return tuple(walk(0, budget, (0, 0, 0, 0), ()))


def loop_contains(lattice, v) -> bool:
    """``Lattice.contains`` as a row loop over a list: the oracle of the
    unpacked triangular division, refusals and messages included."""
    rest = list(v)
    if len(rest) != 4:
        raise ValueError(f"need an integer 4-vector, got {tuple(rest)!r}")
    if any(type(x) is not int for x in rest):
        raise TypeError(f"vector entries must be integers, got {tuple(rest)!r}")
    for i, row in enumerate(lattice.hnf):
        c, r = divmod(rest[i], row[i])
        if r:
            return False
        for j in range(i + 1, 4):
            rest[j] -= c * row[j]
    return True


def generator_phi(v) -> tuple:
    """``phi`` as a generator expression over the entries, which checks
    nothing: the oracle of the unpacked version on valid vectors."""
    return tuple(x * x for x in v)


def _times(u, w) -> list:
    """The product of the linear forms u.p and w.p on ``QUAD_MONOS``."""
    return [u[s] * w[s] if s == t else u[s] * w[t] + u[t] * w[s] for s, t in QUAD_SLOTS]


def loop_pairwise_coeffs(l, k) -> list:
    """``theta.pairwise_coeffs`` as a comprehension over ``QUAD_SLOTS``."""
    x = [a * b for a, b in zip(l, k)]
    ll, kk = generator_phi(l), generator_phi(k)
    return [
        12 * x[s] * x[s] if s == t else 32 * x[s] * x[t] - 4 * (ll[s] * kk[t] + ll[t] * kk[s])
        for s, t in QUAD_SLOTS
    ]


def loop_defining_coeffs(l, k) -> list:
    """``theta.defining_coeffs`` as a loop that multiplies out the four
    pairs of linear forms ``4 l_i^2 p_i - |l|^2`` and ``4 k_i^2 p_i - |k|^2``
    and adds the ``32 x_s x_t`` cross terms."""
    ll, kk = generator_phi(l), generator_phi(k)
    acc = [0 if s == t else 32 * l[s] * l[t] * k[s] * k[t] for s, t in QUAD_SLOTS]
    for i in range(4):
        fl = [4 * ll[i] - ll[t] if t == i else -ll[t] for t in range(4)]
        fk = [4 * kk[i] - kk[t] if t == i else -kk[t] for t in range(4)]
        acc = list(map(add, acc, _times(fl, fk)))
    return acc
