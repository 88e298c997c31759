"""Representation-number series and the degree-2 pair invariant.

``rep_series`` counts lattice vectors by their squared-coordinate tuple; its
collapse at a parameter point is the classical theta series (representation
numbers by square norm).  ``theta11`` is the embedding-independent degree-2
invariant: a sum over ordered pairs (l, k) of lattice vectors where each pair
contributes a polynomial kernel at the q-exponent ``phi(l) + phi(k)``.

Every pair kernel here is a quadratic form in p = (a, b, c, d), so it is
held as ten integer coefficients, one per monomial ``p_s p_t`` with
``s <= t`` (``QUAD_MONOS``).  Two kernels are implemented and agree per
pair as polynomial identities:

* ``Kernel.DEFINING`` -- the sum of squared weighted theta series, expanded
  pairwise so that each cross term s_i s_j l_i l_j k_i k_j stays rational
  (the weights x_i x_j and 4x_i^2 - |x|^2 pick up the diagonal Gram entries
  s = (a, b, c, d) when written in eigenbasis coordinates); its coefficients
  come from multiplying out the linear forms of that definition;
* ``Kernel.PAIRWISE`` -- the closed form 16<l,k>^2 - 4|l|^2|k|^2, which is
  ``12 x_i^2`` on ``p_i^2`` and ``32 x_i x_j - 4(l_i^2 k_j^2 + l_j^2 k_i^2)``
  on ``p_i p_j``, with ``x = l*k`` coordinatewise.

``pair_series`` is the one pair loop of the package: it sums such integer
coefficient vectors per exponent and hands the sums to the series as they
are, integer vectors on ``qarith.MONOS``; no ``ParamPolynomial`` is built.
A polynomial appears only at the output boundary, as ``coefficient`` of a
series.

Equivalently the pairwise kernel is 4*(4cos^2(angle(l,k)) - 1)*|l|^2*|k|^2,
which ties the coefficient to the distribution of angles between lattice
vectors of given lengths.
"""

from __future__ import annotations

import enum
from operator import add

from .lattices import Lattice, phi
from .qarith import MONOS, QUAD_MONOS, QUAD_SLOTS, Expo, FormalQSeries, Mono


class Kernel(enum.Enum):
    DEFINING = "defining"
    PAIRWISE = "pairwise"


def _times(u, w) -> list[int]:
    """The product of the linear forms u.p and w.p on ``QUAD_MONOS``."""
    return [u[s] * w[s] if s == t else u[s] * w[t] + u[t] * w[s] for s, t in QUAD_SLOTS]


def pairwise_coeffs(l, k) -> list[int]:
    """16<l,k>^2 - 4|l|^2|k|^2 on ``QUAD_MONOS``."""
    x = [a * b for a, b in zip(l, k)]
    ll, kk = phi(l), phi(k)
    return [
        12 * x[s] * x[s] if s == t else 32 * x[s] * x[t] - 4 * (ll[s] * kk[t] + ll[t] * kk[s])
        for s, t in QUAD_SLOTS
    ]


def defining_coeffs(l, k) -> list[int]:
    """32*sum_{i<j} x_i x_j p_i p_j plus the harmonic square sum
    sum_i (4 l_i^2 p_i - |l|^2)(4 k_i^2 p_i - |k|^2), on ``QUAD_MONOS``."""
    ll, kk = phi(l), phi(k)
    acc = [0 if s == t else 32 * l[s] * l[t] * k[s] * k[t] for s, t in QUAD_SLOTS]
    for i in range(4):
        fl = [4 * ll[i] - ll[t] if t == i else -ll[t] for t in range(4)]
        fk = [4 * kk[i] - kk[t] if t == i else -kk[t] for t in range(4)]
        acc = list(map(add, acc, _times(fl, fk)))
    return acc


_KERNELS = {Kernel.DEFINING: defining_coeffs, Kernel.PAIRWISE: pairwise_coeffs}


def check_kernel(kernel) -> Kernel:
    """Refuse a kernel that is not a ``Kernel`` (the string ``"defining"`` included)."""
    if not isinstance(kernel, Kernel):
        raise TypeError(f"kernel must be a Kernel, got {kernel!r}")
    return kernel


def rep_series(lattice: Lattice, budget: int) -> FormalQSeries:
    """Vector counts by squared-coordinate tuple, up to the budget."""
    counts: dict[tuple, int] = {}
    for v in lattice.vectors(budget):
        e = phi(v)
        counts[e] = counts.get(e, 0) + 1
    rest = (0,) * (len(MONOS) - 1)
    return FormalQSeries.from_vectors(budget, {e: (n, *rest) for e, n in counts.items()})


def _by_norm(vectors) -> list[tuple[int, tuple, Expo]]:
    """(coordinate-square sum, vector, phi) rows in ascending sum order."""
    return sorted(((sum(phi(v)), v, phi(v)) for v in vectors), key=lambda row: row[0])


def pair_series(
    first, second, budget: int, kernel, monos: tuple[Mono, ...] = QUAD_MONOS
) -> FormalQSeries:
    """Sum ``kernel(l, k) * q^(phi(l) + phi(k))`` over the ordered pairs of
    ``first`` x ``second`` whose combined squared-coordinate sum stays within
    the budget.

    ``kernel`` returns integer coefficients, one per monomial of ``monos``.
    The pairs are walked in ascending coordinate-square sum, so the inner
    loop stops at the first partner past the budget; the sums stay integer
    and are placed on ``MONOS`` once per exponent at the end.
    """
    rows = _by_norm(second)
    acc: dict[Expo, list[int]] = {}
    for nl, l, pl in _by_norm(first):
        for nk, k, pk in rows:
            if nl + nk > budget:
                break
            e = (pl[0] + pk[0], pl[1] + pk[1], pl[2] + pk[2], pl[3] + pk[3])
            sums = acc.get(e)
            acc[e] = kernel(l, k) if sums is None else list(map(add, sums, kernel(l, k)))
    positions = [MONOS.index(m) for m in monos]
    vectors = {}
    for e, sums in acc.items():
        vector = [0] * len(MONOS)
        for i, x in zip(positions, sums):
            vector[i] = x
        vectors[e] = vector
    return FormalQSeries.from_vectors(budget, vectors)


def theta11(lattice: Lattice, budget: int, kernel: Kernel = Kernel.PAIRWISE) -> FormalQSeries:
    """The degree-2 invariant as a truncated series.

    Sums the kernel over all ordered vector pairs whose combined
    squared-coordinate sum stays within the budget; both kernels give the
    same series.  A kernel that is not a ``Kernel`` raises ``TypeError``.
    """
    check_kernel(kernel)
    shell = lattice.vectors(budget)
    return pair_series(shell, shell, budget, _KERNELS[kernel])
