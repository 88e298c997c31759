"""Representation-number series and the degree-2 pair invariant.

``rep_series`` counts lattice vectors by their squared-coordinate tuple; the
counts collapsed at a point (``collapse_counts``) are the classical theta
series (representation numbers by square norm).  ``theta11`` is the
embedding-independent degree-2 invariant: a sum over ordered pairs (l, k) of
lattice vectors where each pair contributes a polynomial kernel at the
q-exponent ``phi(l) + phi(k)``.

Every pair kernel here is a quadratic form in p = (a, b, c, d), so it is
held as ten integer coefficients, one per monomial ``p_s p_t`` with
``s <= t`` (``QUAD_MONOS``).  Two kernels are implemented and agree per
pair as polynomial identities:

* ``Kernel.DEFINING`` -- the sum of squared weighted theta series, expanded
  pairwise so that each cross term s_i s_j l_i l_j k_i k_j stays rational
  (the weights x_i x_j and 4x_i^2 - |x|^2 pick up the diagonal Gram entries
  s = (a, b, c, d) when written in eigenbasis coordinates), written out
  slot by slot in ``defining_coeffs``;
* ``Kernel.PAIRWISE`` -- the closed form 16<l,k>^2 - 4|l|^2|k|^2, written
  out slot by slot in ``pairwise_coeffs``.

Both kernels unpack the eight coordinates of a pair and are straight-line
arithmetic on them.  Neither calls ``phi``, which refuses anything but
ints, so both also expand on symbols.

``pair_series`` is the one pair loop of the package: it sums such integer
coefficient vectors per exponent and hands the sums to the series as they
are, integer vectors on ``QUAD_MONOS``; no ``ParamPolynomial`` is built.
A polynomial appears only at the output boundary, as ``coefficient`` of a
series.

Equivalently the pairwise kernel is 4*(4cos^2(angle(l,k)) - 1)*|l|^2*|k|^2,
which ties the coefficient to the distribution of angles between lattice
vectors of given lengths.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import itemgetter

from .lattices import Lattice, phi
from .qarith import QUAD_MONOS, Expo, FormalQSeries, ParamPoint, _cleared, _ratio


class Kernel(enum.Enum):
    DEFINING = "defining"
    PAIRWISE = "pairwise"


def pairwise_coeffs(l, k) -> list[int]:
    """16<l,k>^2 - 4|l|^2|k|^2 on ``QUAD_MONOS``: ``12 x_s^2`` on ``p_s^2``
    and ``32 x_s x_t - 4(l_s^2 k_t^2 + l_t^2 k_s^2)`` on ``p_s p_t``, with
    ``x = l*k`` coordinatewise."""
    l0, l1, l2, l3 = l
    k0, k1, k2, k3 = k
    x0, x1, x2, x3 = l0 * k0, l1 * k1, l2 * k2, l3 * k3
    m0, m1, m2, m3 = l0 * l0, l1 * l1, l2 * l2, l3 * l3
    n0, n1, n2, n3 = k0 * k0, k1 * k1, k2 * k2, k3 * k3
    return [
        12 * x0 * x0,
        32 * x0 * x1 - 4 * (m0 * n1 + m1 * n0),
        32 * x0 * x2 - 4 * (m0 * n2 + m2 * n0),
        32 * x0 * x3 - 4 * (m0 * n3 + m3 * n0),
        12 * x1 * x1,
        32 * x1 * x2 - 4 * (m1 * n2 + m2 * n1),
        32 * x1 * x3 - 4 * (m1 * n3 + m3 * n1),
        12 * x2 * x2,
        32 * x2 * x3 - 4 * (m2 * n3 + m3 * n2),
        12 * x3 * x3,
    ]


def defining_coeffs(l, k) -> list[int]:
    """32*sum_{i<j} x_i x_j p_i p_j plus the harmonic square sum
    sum_i (4 l_i^2 p_i - |l|^2)(4 k_i^2 p_i - |k|^2), on ``QUAD_MONOS``.

    The i-th linear form of l, ``4 l_i^2 p_i - |l|^2``, is ``u_i = 3 l_i^2``
    on ``p_i`` and ``-l_t^2`` on each other ``p_t``; the i-th form of k is
    ``w_i = 3 k_i^2`` and ``-k_t^2`` alike.  The product of the i-th forms
    puts ``u_i w_i`` on ``p_i^2`` and ``l_t^2 k_t^2`` on each other square.
    On ``p_s p_t`` it puts ``-(u_s k_t^2 + l_t^2 w_s)`` for i = s,
    ``-(l_s^2 w_t + u_t k_s^2)`` for i = t and ``l_s^2 k_t^2 + l_t^2 k_s^2``
    for each of the two other i.
    """
    l0, l1, l2, l3 = l
    k0, k1, k2, k3 = k
    m0, m1, m2, m3 = l0 * l0, l1 * l1, l2 * l2, l3 * l3
    n0, n1, n2, n3 = k0 * k0, k1 * k1, k2 * k2, k3 * k3
    u0, u1, u2, u3 = 3 * m0, 3 * m1, 3 * m2, 3 * m3
    w0, w1, w2, w3 = 3 * n0, 3 * n1, 3 * n2, 3 * n3
    return [
        u0 * w0 + 3 * m0 * n0,
        32 * l0 * l1 * k0 * k1 - u0 * n1 - m1 * w0 - m0 * w1 - u1 * n0 + 2 * (m0 * n1 + m1 * n0),
        32 * l0 * l2 * k0 * k2 - u0 * n2 - m2 * w0 - m0 * w2 - u2 * n0 + 2 * (m0 * n2 + m2 * n0),
        32 * l0 * l3 * k0 * k3 - u0 * n3 - m3 * w0 - m0 * w3 - u3 * n0 + 2 * (m0 * n3 + m3 * n0),
        u1 * w1 + 3 * m1 * n1,
        32 * l1 * l2 * k1 * k2 - u1 * n2 - m2 * w1 - m1 * w2 - u2 * n1 + 2 * (m1 * n2 + m2 * n1),
        32 * l1 * l3 * k1 * k3 - u1 * n3 - m3 * w1 - m1 * w3 - u3 * n1 + 2 * (m1 * n3 + m3 * n1),
        u2 * w2 + 3 * m2 * n2,
        32 * l2 * l3 * k2 * k3 - u2 * n3 - m3 * w2 - m2 * w3 - u3 * n2 + 2 * (m2 * n3 + m3 * n2),
        u3 * w3 + 3 * m3 * n3,
    ]


_KERNELS = {Kernel.DEFINING: defining_coeffs, Kernel.PAIRWISE: pairwise_coeffs}


def check_kernel(kernel) -> Kernel:
    """Refuse a kernel that is not a ``Kernel`` (the string ``"defining"`` included)."""
    if not isinstance(kernel, Kernel):
        raise TypeError(f"kernel must be a Kernel, got {kernel!r}")
    return kernel


def rep_series(lattice: Lattice, budget: int) -> dict[Expo, int]:
    """Vector counts by squared-coordinate tuple, up to the budget."""
    counts: dict[Expo, int] = {}
    for v in lattice.vectors(budget):
        e = phi(v)
        counts[e] = counts.get(e, 0) + 1
    return counts


def collapse_counts(counts: dict[Expo, int], p: ParamPoint) -> tuple[tuple[Fraction, int], ...]:
    """The counts at a point, summed per collapsed exponent and sorted by
    it: an exponent ``n`` is the integer key ``n.A`` over ``D`` (``_cleared``)."""
    D, (a0, a1, a2, a3) = _cleared(p)
    merged: dict[int, int] = {}
    for (n0, n1, n2, n3), n in counts.items():
        key = n0 * a0 + n1 * a1 + n2 * a2 + n3 * a3
        merged[key] = merged.get(key, 0) + n
    return tuple((_ratio(key, D), n) for key, n in sorted(merged.items()))


def _by_norm(vectors) -> list[tuple[int, tuple, Expo]]:
    """(coordinate-square sum, vector, phi) rows in ascending sum order."""
    rows = []
    for v in vectors:
        e = phi(v)
        rows.append((e[0] + e[1] + e[2] + e[3], v, e))
    rows.sort(key=itemgetter(0))
    return rows


def pair_series(
    first, second, budget: int, kernel, slots: tuple[int, ...] | None = None
) -> FormalQSeries:
    """Sum ``kernel(l, k) * q^(phi(l) + phi(k))`` over the ordered pairs of
    ``first`` x ``second`` whose combined squared-coordinate sum stays within
    the budget.

    ``kernel`` returns a new list of integer coefficients: one per monomial
    of ``QUAD_MONOS``, or, given ``slots``, one per position in
    ``QUAD_MONOS`` that ``slots`` names.
    The pairs are walked in ascending coordinate-square sum, so the inner
    loop stops at the first partner past the budget.  The first pair at an
    exponent keeps its kernel's list as the running sums, and each later
    pair is added into them in place; the sums stay integer, and at the end
    each nonzero one becomes its exponent's tuple on ``QUAD_MONOS``: the
    sums themselves for a full kernel, placed at their slots otherwise.
    """
    rows = _by_norm(second)
    acc: dict[Expo, list[int]] = {}
    for nl, l, (a0, a1, a2, a3) in _by_norm(first):
        for nk, k, (b0, b1, b2, b3) in rows:
            if nl + nk > budget:
                break
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            sums = acc.get(e)
            if sums is None:
                acc[e] = kernel(l, k)
            else:
                for i, x in enumerate(kernel(l, k)):
                    sums[i] += x
    terms = {}
    for e, sums in acc.items():
        if any(sums):
            if slots is not None:
                vector = [0] * len(QUAD_MONOS)
                for i, x in zip(slots, sums):
                    vector[i] = x
                sums = vector
            # tuples from lists, here and in ``discrepancy``: one grown from a
            # generator skips the tuple free list but fills it when freed
            terms[e] = tuple(sums)
    # nonzero tuples on ``QUAD_MONOS``, at exponents within the budget
    return FormalQSeries._of_terms(budget, terms)


def theta11(lattice: Lattice, budget: int, kernel: Kernel = Kernel.PAIRWISE) -> FormalQSeries:
    """The degree-2 invariant as a truncated series.

    Sums the kernel over all ordered vector pairs whose combined
    squared-coordinate sum stays within the budget; both kernels give the
    same series.  A kernel that is not a ``Kernel`` raises ``TypeError``.
    """
    check_kernel(kernel)
    shell = lattice.vectors(budget)
    return pair_series(shell, shell, budget, _KERNELS[kernel])
