"""Exact arithmetic for truncated q-series with polynomial coefficients.

Scalars are arbitrary-precision rationals (``fractions.Fraction``).  Series
coefficients are polynomials in the four positive lattice parameters
(a, b, c, d) with rational coefficients; everything this package produces has
total degree at most two.  q-exponents are kept as integer 4-tuples
(n0, n1, n2, n3) -- the squared eigenbasis coordinates of a lattice vector --
and are only turned into concrete exponents a*n0 + b*n1 + c*n2 + d*n3 by an
explicit collapse step.  One symbolic series therefore serves every parameter
point.

Exponent vectors are partially ordered by suffix sums::

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

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

Expo = tuple[int, int, int, int]
Mono = tuple[int, int, int, int]

PARAM_NAMES = ("a", "b", "c", "d")

_ZERO = Fraction(0)


def exact(x) -> Fraction:
    """Coerce to Fraction, refusing floats (no silent rounding)."""
    if isinstance(x, float):
        raise TypeError(f"refusing inexact float {x!r}; pass int, Fraction or string")
    return Fraction(x)


class Cmp(enum.Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class ParamPoint:
    """A rational parameter point (a, b, c, d) with all coordinates positive.

    ``admissible`` means the canonical strictly increasing chain
    0 < a < b < c < d; pairwise-distinct points can be brought into that form
    by :meth:`sorted`.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for name in PARAM_NAMES:
            object.__setattr__(self, name, exact(getattr(self, name)))
        if any(x <= 0 for x in self.coords):
            raise ValueError(f"parameters must be positive, got {self.coords}")

    @property
    def coords(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    @property
    def admissible(self) -> bool:
        return self.a < self.b < self.c < self.d

    @property
    def pairwise_distinct(self) -> bool:
        return len(set(self.coords)) == 4

    def sorted(self) -> tuple["ParamPoint", tuple[int, int, int, int]]:
        """Ascending rearrangement and the permutation that produced it.

        ``perm[i]`` is the position in the original tuple of the i-th
        smallest coordinate.
        """
        order = tuple(sorted(range(4), key=lambda i: self.coords[i]))
        return ParamPoint(*(self.coords[i] for i in order)), order

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self.coords) + ")"


def check_expo(e) -> Expo:
    e = tuple(e)
    if len(e) != 4 or any(not isinstance(n, int) or n < 0 for n in e):
        raise ValueError(f"exponent vector must be four non-negative integers, got {e!r}")
    return e


def exp_cmp(e: Expo, f: Expo) -> Cmp:
    """Compare two exponent vectors in the suffix-sum partial order."""
    if e == f:
        return Cmp.EQUAL
    le = ge = True
    se = sf = 0
    for i in (3, 2, 1, 0):
        se += e[i]
        sf += f[i]
        if se > sf:
            le = False
        elif se < sf:
            ge = False
    # le and ge cannot both hold here: equal suffix sums mean equal vectors.
    if le:
        return Cmp.LESS
    if ge:
        return Cmp.GREATER
    return Cmp.INCOMPARABLE


def sigma(e: Expo, p: ParamPoint) -> Fraction:
    """Evaluate an exponent vector: a*n0 + b*n1 + c*n2 + d*n3."""
    return p.a * e[0] + p.b * e[1] + p.c * e[2] + p.d * e[3]


class ParamPolynomial:
    """A polynomial in (a, b, c, d) with rational coefficients.

    Terms map monomial exponent 4-tuples to nonzero Fractions; the zero
    polynomial has no terms.  Instances are immutable by convention.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, object] | None = None):
        clean: dict[Mono, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = exact(coeff)
                if coeff:
                    clean[tuple(mono)] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "ParamPolynomial":
        return cls()

    @classmethod
    def constant(cls, x) -> "ParamPolynomial":
        return cls({(0, 0, 0, 0): exact(x)})

    @classmethod
    def variable(cls, index: int) -> "ParamPolynomial":
        mono = tuple(int(i == index) for i in range(4))
        return cls({mono: 1})

    @classmethod
    def linear(cls, coeffs: Iterable[object]) -> "ParamPolynomial":
        """c0*a + c1*b + c2*c + c3*d."""
        cs = tuple(coeffs)
        if len(cs) != 4:
            raise ValueError("need exactly four coefficients")
        return cls({tuple(int(j == i) for j in range(4)): cs[i] for i in range(4)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, _ZERO) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        out = ParamPolynomial.__new__(ParamPolynomial)
        out.terms = terms
        return out

    def __neg__(self):
        out = ParamPolynomial.__new__(ParamPolynomial)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, ParamPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ParamPolynomial):
            terms: dict[Mono, Fraction] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                    acc = terms.get(mono, _ZERO) + c1 * c2
                    if acc:
                        terms[mono] = acc
                    else:
                        terms.pop(mono, None)
            out = ParamPolynomial.__new__(ParamPolynomial)
            out.terms = terms
            return out
        factor = exact(other)
        out = ParamPolynomial.__new__(ParamPolynomial)
        out.terms = {} if not factor else {m: c * factor for m, c in self.terms.items()}
        return out

    __rmul__ = __mul__

    def evaluate(self, p: ParamPoint) -> Fraction:
        """Exact substitution of a parameter point."""
        total = _ZERO
        for mono, coeff in self.terms.items():
            value = coeff
            for x, power in zip(p.coords, mono):
                for _ in range(power):
                    value *= x
            total += value
        return total

    def as_pairs(self) -> tuple[tuple[Mono, Fraction], ...]:
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
    may be added or compared only at equal budgets.
    """

    __slots__ = ("budget", "terms")

    def __init__(self, budget: int, terms: Mapping[Expo, ParamPolynomial] | None = None):
        if budget < 0:
            raise ValueError("budget must be non-negative")
        clean: dict[Expo, ParamPolynomial] = {}
        if terms:
            for e, poly in terms.items():
                e = check_expo(e)
                if sum(e) > budget:
                    raise ValueError(f"exponent {e} exceeds budget {budget}")
                if not isinstance(poly, ParamPolynomial):
                    poly = ParamPolynomial(poly)
                if poly:
                    clean[e] = poly
        self.budget = budget
        self.terms = clean

    @classmethod
    def empty(cls, budget: int) -> "FormalQSeries":
        return cls(budget)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def __iter__(self) -> Iterator[Expo]:
        return iter(sorted(self.terms))

    def coefficient(self, e: Expo) -> ParamPolynomial:
        return self.terms.get(tuple(e), ParamPolynomial.zero())

    def _check_budget(self, other: "FormalQSeries"):
        if self.budget != other.budget:
            raise ValueError(f"budget mismatch: {self.budget} != {other.budget}")

    def __add__(self, other):
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        self._check_budget(other)
        terms = dict(self.terms)
        for e, poly in other.terms.items():
            acc = terms.get(e)
            acc = poly if acc is None else acc + poly
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        out = FormalQSeries.__new__(FormalQSeries)
        out.budget, out.terms = self.budget, terms
        return out

    def __sub__(self, other):
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, factor) -> "FormalQSeries":
        factor = exact(factor)
        out = FormalQSeries.__new__(FormalQSeries)
        out.budget = self.budget
        out.terms = {} if not factor else {e: poly * factor for e, poly in self.terms.items()}
        return out

    def truncated(self, budget: int) -> "FormalQSeries":
        """Drop all terms beyond a smaller budget."""
        if budget > self.budget:
            raise ValueError("cannot extend a truncated series")
        return FormalQSeries(budget, {e: p for e, p in self.terms.items() if sum(e) <= budget})

    def collapse(self, p: ParamPoint) -> tuple[tuple[Fraction, Fraction], ...]:
        """Evaluate exponents and coefficients at a point, merging exponents.

        Returns (exponent, coefficient) pairs sorted by ascending exponent,
        with zero coefficients dropped.
        """
        merged: dict[Fraction, Fraction] = {}
        for e, poly in self.terms.items():
            x = sigma(e, p)
            merged[x] = merged.get(x, _ZERO) + poly.evaluate(p)
        return tuple(sorted((x, c) for x, c in merged.items() if c))

    def __eq__(self, other):
        if not isinstance(other, FormalQSeries):
            return NotImplemented
        return self.budget == other.budget and self.terms == other.terms

    def __hash__(self):
        return hash((self.budget, tuple(sorted((e, p.as_pairs()) for e, p in self.terms.items()))))

    def __repr__(self):
        return f"FormalQSeries(budget={self.budget}, terms={len(self.terms)})"
