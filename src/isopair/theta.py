"""Representation-number series and the degree-2 pair invariant.

``rep_series`` counts lattice vectors by their squared-coordinate tuple; its
collapse at a parameter point is the classical theta series (representation
numbers by square norm).  ``theta11`` is the embedding-independent degree-2
invariant: a sum over ordered pairs (l, k) of lattice vectors where each pair
contributes a polynomial kernel at the q-exponent ``phi(l) + phi(k)``.

Two kernels are implemented and agree per pair as polynomial identities:

* ``Kernel.DEFINING`` -- the sum of squared weighted theta series, expanded
  pairwise so that each cross term s_i s_j l_i l_j k_i k_j stays rational
  (the weights x_i x_j and 4x_i^2 - |x|^2 pick up the diagonal Gram entries
  s = (a, b, c, d) when written in eigenbasis coordinates);
* ``Kernel.PAIRWISE`` -- the closed form 16<l,k>^2 - 4|l|^2|k|^2.

Equivalently the pairwise kernel is 4*(4cos^2(angle(l,k)) - 1)*|l|^2*|k|^2,
which ties the coefficient to the distribution of angles between lattice
vectors of given lengths.
"""

from __future__ import annotations

import enum

from .lattices import Lattice, inner_poly, norm_poly, phi
from .qarith import Expo, FormalQSeries, ParamPolynomial


class Kernel(enum.Enum):
    DEFINING = "defining"
    PAIRWISE = "pairwise"


def pairwise_kernel(l, k) -> ParamPolynomial:
    """16<l,k>^2 - 4|l|^2|k|^2 as a polynomial in (a, b, c, d)."""
    ip = inner_poly(l, k)
    return 16 * (ip * ip) - 4 * (norm_poly(l) * norm_poly(k))


def defining_kernel(l, k) -> ParamPolynomial:
    """Per-pair expansion of 32*sum_{i<j} theta_{x_i x_j}^2 plus the harmonic
    square sum, written in eigenbasis coordinates."""
    terms = {}
    for i in range(4):
        for j in range(i + 1, 4):
            coeff = 32 * l[i] * l[j] * k[i] * k[j]
            if coeff:
                mono = tuple(int(t == i) + int(t == j) for t in range(4))
                terms[mono] = terms.get(mono, 0) + coeff
    acc = ParamPolynomial(terms)
    nl, nk = norm_poly(l), norm_poly(k)
    for i in range(4):
        mono = tuple(int(t == i) for t in range(4))
        fl = ParamPolynomial({mono: 4 * l[i] * l[i]}) - nl
        fk = ParamPolynomial({mono: 4 * k[i] * k[i]}) - nk
        acc = acc + fl * fk
    return acc


_KERNELS = {Kernel.DEFINING: defining_kernel, Kernel.PAIRWISE: pairwise_kernel}


def rep_series(lattice: Lattice, budget: int) -> FormalQSeries:
    """Vector counts by squared-coordinate tuple, up to the budget."""
    counts: dict[tuple, int] = {}
    for v in lattice.vectors(budget):
        e = phi(v)
        counts[e] = counts.get(e, 0) + 1
    return FormalQSeries(budget, {e: ParamPolynomial.constant(n) for e, n in counts.items()})


def pair_series(first, second, budget: int, kernel) -> FormalQSeries:
    """Sum ``kernel(l, k) * q^(phi(l) + phi(k))`` over the ordered pairs of
    ``first`` x ``second`` whose combined squared-coordinate sum stays within
    the budget."""
    second_phi = [(k, phi(k)) for k in second]
    acc: dict[Expo, ParamPolynomial] = {}
    for l in first:
        pl = phi(l)
        for k, pk in second_phi:
            e = (pl[0] + pk[0], pl[1] + pk[1], pl[2] + pk[2], pl[3] + pk[3])
            if sum(e) > budget:
                continue
            value = kernel(l, k)
            if not value:
                continue
            seen = acc.get(e)
            value = value if seen is None else seen + value
            if value:
                acc[e] = value
            else:
                acc.pop(e, None)
    return FormalQSeries(budget, acc)


def theta11(lattice: Lattice, budget: int, kernel: Kernel = Kernel.PAIRWISE) -> FormalQSeries:
    """The degree-2 invariant as a truncated series.

    Sums the kernel over all ordered vector pairs whose combined
    squared-coordinate sum stays within the budget; both kernels give the
    same series.
    """
    shell = lattice.vectors(budget)
    return pair_series(shell, shell, budget, _KERNELS[kernel])
