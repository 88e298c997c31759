"""Exact arithmetic for truncated q-series with polynomial coefficients.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  Series
coefficients are polynomials in the four positive lattice parameters
(a, b, c, d).  Every one the package builds is an integer quadratic form,
so a series holds it as an integer vector on the ten quadratic monomials
``QUAD_MONOS``; a rational coefficient is refused, not rounded.
Neither ``FormalQSeries`` nor ``ParamPolynomial`` has arithmetic.  A series
is the view of a finished sum: its builders combine integer vectors where
they are defined (the pair loop of ``theta``, the two routes of
``discrepancy.delta_series``), and its collapse at a point is integer
arithmetic on them.  ``ParamPolynomial`` is the view through which a
coefficient is printed, serialized or compared with a formula of the paper.

Work at a point is integer work on one scale.  A point ``p`` is cleared to
its common denominator ``D`` and integer numerators ``A = D*p``
(``_cleared``, or ``_sort_cleared``, which also sorts it); the coordinates
of ``A`` order and coincide as the point's do.  There an exponent ``n`` is
the integer ``n.A`` over ``D``, and a coefficient vector ``v`` on
``QUAD_MONOS`` is the integer ``v.W`` over ``D^2``, for the weights
``W = (A_s*A_t)`` of ``_weights``.  ``discrepancy.certify`` meets only
its two leading coefficients, each one monomial ``x_u*x_v`` in the chain
coordinates of a sorted point; it values them at the differences of ``A``,
builds no weights, and builds Fractions only for its outputs.

On that path a Fraction's integers are read from its two slots,
``x._numerator`` and ``x._denominator`` (``Fraction.__slots__`` on every
supported Python, 3.10 to 3.13, and pinned by the tests): ``numerator``,
``denominator`` and ``as_integer_ratio`` are Python-level frames of
``fractions.py``, and cost a point several times what the slot reads do.

q-exponents are kept as integer 4-tuples (n0, n1, n2, n3) -- the squared
eigenbasis coordinates of a lattice vector -- and are only turned into
concrete exponents a*n0 + b*n1 + c*n2 + d*n3 by an explicit collapse step.
One symbolic series therefore serves every parameter point.

Exponent vectors are partially ordered by suffix sums (``exp_below`` is the
strict relation)::

    e <= f   iff   e[i0] + ... + e[3] <= f[i0] + ... + f[3]  for all i0.

The identity

    a*n0 + b*n1 + c*n2 + d*n3
        = (d-c)*n3 + (c-b)*(n2+n3) + (b-a)*(n1+n2+n3) + a*(n0+n1+n2+n3)

shows that a strict inequality in this order forces a strict inequality of
the evaluated exponents at every point with 0 < a < b < c < d, so leading
terms found through the order are leading terms for all admissible
parameters at once.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from math import lcm
from operator import itemgetter, mul

Expo = tuple[int, int, int, int]
Mono = tuple[int, int, int, int]

PARAM_NAMES = ("a", "b", "c", "d")

# the ten quadratic monomials p_s*p_t (s <= t), which index every
# coefficient vector of a series
QUAD_SLOTS = tuple((s, t) for s in range(4) for t in range(s, 4))
QUAD_MONOS: tuple[Mono, ...] = tuple(
    tuple(int(u == s) + int(u == t) for u in range(4)) for s, t in QUAD_SLOTS
)


def exact(x) -> Fraction:
    """Coerce to Fraction, refusing floats (no silent rounding) and bools
    (``True`` is not the number 1 here); a Fraction is returned unchanged."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}; pass int, Fraction or string")
    if isinstance(x, bool):
        raise TypeError(f"refusing bool {x!r}; pass int, Fraction or string")
    return Fraction(x)


def check_budget(budget) -> int:
    """Refuse a budget that is not an ``int`` (``bool`` and ``40.0`` included)."""
    if not isinstance(budget, int) or isinstance(budget, bool):
        raise TypeError(f"budget must be an int, got {budget!r}")
    return budget


class ParamPoint(namedtuple("ParamPoint", PARAM_NAMES)):
    """A rational parameter point (a, b, c, d) with all coordinates positive.

    An immutable record and a tuple of its four Fractions: the constructor
    coerces each coordinate with ``exact`` and refuses a non-positive one
    (four Fractions need no coercion and skip it).  ``_make``, and so
    ``_replace``, go through the constructor and check alike, so no point
    holds a float, a bool or a non-positive coordinate.  ``certify`` brings a
    pairwise-distinct point into the canonical strictly increasing chain
    0 < a < b < c < d (``_sort_cleared``).
    """

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        if not (type(a) is type(b) is type(c) is type(d) is Fraction):
            a, b, c, d = exact(a), exact(b), exact(c), exact(d)
        self = tuple.__new__(cls, (a, b, c, d))
        # a Fraction's denominator is positive
        if a._numerator <= 0 or b._numerator <= 0 or c._numerator <= 0 or d._numerator <= 0:
            raise ValueError(f"parameters must be positive, got {self}")
        return self

    @classmethod
    def _make(cls, iterable) -> "ParamPoint":
        return cls(*iterable)

    def __str__(self):
        return "(" + ", ".join(map(str, self)) + ")"


def _cleared(p: ParamPoint) -> tuple[int, list[int]]:
    """The point cleared to the module's scale: the common denominator ``D``
    of its coordinates and the integer numerators ``A = D*p``."""
    a, b, c, d = p
    qa, qb, qc, qd = a._denominator, b._denominator, c._denominator, d._denominator
    D = lcm(qa, qb, qc, qd)
    return D, [
        a._numerator * (D // qa),
        b._numerator * (D // qb),
        c._numerator * (D // qc),
        d._numerator * (D // qd),
    ]


def _sort_cleared(
    p: ParamPoint,
) -> tuple[tuple[Fraction, ...], tuple[int, int, int, int], int, tuple[int, int, int, int]]:
    """The point's coordinates sorted ascending, as a plain tuple, the
    permutation that sorts them, and the point's ``D`` with the sorted
    numerators ``A`` of ``_cleared``.  Entry i of the permutation is the
    position in ``p`` of the i-th smallest coordinate.

    One pass: the two slots of each coordinate, read in place (see the
    module docstring), then one sort of (numerator, position) pairs.  The
    numerators over ``D`` order the coordinates as the Fractions do, and
    the positions keep tied ones in their order, as a stable sort would;
    ``D`` and the sorted ``A`` are the cleared form of the sorted point, at
    whose numerators ``certify`` values its rows.
    """
    x0, x1, x2, x3 = p
    # the coordinates are Fractions, checked when ``p`` was built
    n0, q0 = x0._numerator, x0._denominator
    n1, q1 = x1._numerator, x1._denominator
    n2, q2 = x2._numerator, x2._denominator
    n3, q3 = x3._numerator, x3._denominator
    D = lcm(q0, q1, q2, q3)
    (A0, i), (A1, j), (A2, k), (A3, m) = sorted(
        [(n0 * (D // q0), 0), (n1 * (D // q1), 1), (n2 * (D // q2), 2), (n3 * (D // q3), 3)]
    )
    return (p[i], p[j], p[k], p[m]), (i, j, k, m), D, (A0, A1, A2, A3)


def _weights(A: Sequence[int]) -> tuple[int, ...]:
    """The weights ``W`` of ``QUAD_MONOS`` at the point cleared to ``(D, A)``:
    each ``A_s*A_t`` is ``D^2`` times ``p_s*p_t``, so ``D`` is not needed."""
    a0, a1, a2, a3 = A
    # in ``QUAD_SLOTS`` order
    return (
        a0 * a0, a0 * a1, a0 * a2, a0 * a3,
        a1 * a1, a1 * a2, a1 * a3,
        a2 * a2, a2 * a3,
        a3 * a3,
    )


def check_expo(e) -> Expo:
    e = tuple(e)
    # ``type`` refuses ``True`` as an entry, as ``exact`` does as a number
    if len(e) != 4 or any(type(n) is not int or n < 0 for n in e):
        raise ValueError(f"exponent vector must be four non-negative integers, got {e!r}")
    return e


def exp_below(e: Expo, f: Expo) -> bool:
    """Whether e lies strictly below f in the suffix-sum partial order."""
    se = sf = 0
    for i in (3, 2, 1, 0):
        se += e[i]
        sf += f[i]
        if se > sf:
            return False
    # every suffix sum is at most f's; all equal means e == f
    return e != f


class ParamPolynomial:
    """A coefficient of a series, as a polynomial in (a, b, c, d) to print,
    serialize or compare with a formula of the paper.

    Terms map monomial exponent 4-tuples of degree at most two to nonzero
    ints: an integer quadratic form, the one ``_of_vector`` builds from a
    coefficient vector (for ``FormalQSeries.coefficient`` and the
    ``leading coefficients`` anchor); the zero polynomial has no terms.  Terms
    that are not a mapping raise ``TypeError``.  A monomial that is not
    four non-negative ints raises ``ValueError``, as an exponent vector
    does, and so does one of degree three or more; a coefficient that is
    not an ``int`` (a Fraction, a float or a bool) raises ``TypeError``.
    It has no arithmetic (see the module docstring), and instances are
    immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, int] | None = None):
        if terms is None:
            terms = {}
        elif not isinstance(terms, Mapping):
            raise TypeError(f"terms must be a mapping, got {type(terms).__name__}")
        clean: dict[Mono, int] = {}
        for mono, coeff in terms.items():
            mono = check_expo(mono)
            if sum(mono) > 2:
                raise ValueError(f"monomial {mono} has degree above two")
            if type(coeff) is not int:
                raise TypeError(f"coefficient must be an int, not {type(coeff).__name__}")
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _of_vector(cls, vector: Sequence[int]) -> "ParamPolynomial":
        """The form whose coefficient vector on ``QUAD_MONOS`` is ``vector``."""
        return cls({m: x for m, x in zip(QUAD_MONOS, vector) if x})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def as_pairs(self) -> tuple[tuple[Mono, int], ...]:
        """Terms sorted by monomial, for serialization and hashing."""
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.as_pairs())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.as_pairs():
            names = [
                name if power == 1 else f"{name}^{power}"
                for name, power in zip(PARAM_NAMES, mono)
                if power
            ]
            body = "*".join(names)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"ParamPolynomial({self})"


class FormalQSeries:
    """A truncated q-series: exponent vector -> polynomial coefficient.

    The budget bounds the component sum of every stored exponent vector.  A
    series of budget N holds exactly the contributions of lattice-vector
    pairs whose combined squared-coordinate sum is at most N, so two series
    are equal only at equal budgets.

    Each coefficient is an integer quadratic form, held as its vector
    ``terms[e]`` of ten ints on ``QUAD_MONOS``; exponents with a zero
    coefficient are not stored, so ``==`` and ``hash`` see only the budget
    and the coefficients.  The constructor takes a mapping of exponents to
    those vectors and checks them: vectors that are not a mapping raise
    ``TypeError``, and a vector that is not ten plain ints raises
    ``ValueError``; nothing is rounded.  ``coefficient(e)`` gives one as a
    ``ParamPolynomial`` and refuses a malformed ``e`` as the constructor
    does.  A series is read-only and has no arithmetic:
    ``discrepancy.delta_series`` combines the vectors of its route, the six
    class series or the two invariants, and checks the theta route's 1/128
    there, before it builds its one series.
    """

    __slots__ = ("budget", "terms")

    def __init__(self, budget: int, vectors: Mapping[Expo, Sequence[int]] | None = None):
        if check_budget(budget) < 0:
            raise ValueError("budget must be non-negative")
        if vectors is None:
            vectors = {}
        elif not isinstance(vectors, Mapping):
            raise TypeError(f"vectors must be a mapping, got {type(vectors).__name__}")
        terms: dict[Expo, tuple[int, ...]] = {}
        for e, vector in vectors.items():
            e = check_expo(e)
            if sum(e) > budget:
                raise ValueError(f"exponent {e} exceeds budget {budget}")
            entries = tuple([*vector]) if isinstance(vector, Iterable) else ()
            if len(entries) != len(QUAD_MONOS) or any(type(x) is not int for x in entries):
                raise ValueError(
                    f"coefficient at {e} must be 10 ints on QUAD_MONOS, got {vector!r}"
                )
            if any(entries):
                terms[e] = entries
        self.budget, self.terms = budget, terms

    @classmethod
    def _of_terms(cls, budget: int, terms: dict[Expo, tuple[int, ...]]) -> "FormalQSeries":
        """The series that holds ``terms`` itself, unchecked: the package's
        constructor, whose caller guarantees nonzero 10-tuples within the budget."""
        out = cls.__new__(cls)
        out.budget, out.terms = budget, terms
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self) -> Iterator[Expo]:
        return iter(sorted(self.terms))

    def coefficient(self, e: Expo) -> ParamPolynomial:
        return ParamPolynomial._of_vector(self.terms.get(check_expo(e), ()))

    def collapse(self, p: ParamPoint) -> tuple[tuple[Fraction, Fraction], ...]:
        """Evaluate exponents and coefficients at a point, merging exponents.

        Returns (exponent, coefficient) pairs sorted by ascending exponent,
        with zero coefficients dropped: the integer pairs of ``_collapse``
        at ``D, A = _cleared(p)``, each divided out once.
        """
        D, A = _cleared(p)
        return tuple(
            (Fraction(key, D), Fraction(value, D * D)) for key, value in self._collapse(A)
        )

    def _collapse(self, A: Sequence[int]) -> list[tuple[int, int]]:
        """The collapse at the point cleared to ``(D, A)``, which needs only
        ``A``, as the integer pairs ``(D*exponent, D^2*coefficient)`` of the
        module's scale: the keys ``n.A`` merge and order as the exponents
        do.  Sorted by key, zero sums dropped."""
        a0, a1, a2, a3 = A
        weights = _weights(A)
        merged: dict[int, int] = {}
        for (n0, n1, n2, n3), v in self.terms.items():
            key = n0 * a0 + n1 * a1 + n2 * a2 + n3 * a3
            merged[key] = merged.get(key, 0) + sum(map(mul, weights, v))
        return sorted(filter(itemgetter(1), merged.items()))

    def __eq__(self, other):
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        return self.budget == other.budget and self.terms == other.terms

    def __hash__(self):
        return hash((self.budget, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return f"FormalQSeries(budget={self.budget}, terms={len(self.terms)})"
