"""The discrepancy series and the non-isometry certificate.

The discrepancy is 1/128 times the difference of the degree-2 invariants of
the pair.  Because the bijection ``psi`` matches L2 vectors to L1 vectors of
identical squared-coordinate tuples, the norm terms of the two invariants
cancel and the discrepancy collapses to a single sum over L1 x L1::

    delta = 1/8 * sum_{(l,k)} (<l,k>^2 - <psi(l),psi(k)>^2) q^(phi(l)+phi(k)).

Splitting the sum by the coset classes of l and k modulo M gives class
series; those indexed by equal or opposite classes or by the zero class
vanish, and the whole series is the sum of the six class series with
distinct positive representatives.  This holds at every budget: equal or
opposite classes carry the same sign matrix, so the kernel vanishes pair by
pair; the kernel is symmetric, and ``v -> -v`` maps class j onto -j and
keeps ``phi``, so the eight ordered, signed copies of each unordered pair
cancel the 1/8; and on the zero class a four-group sign flip is a
``phi``-preserving involution of M that negates the kernel.

Because psi acts on each class by a fixed diagonal sign matrix, the kernel
of a class pair is ``4 x_s x_t p_s p_t`` summed over the coordinate slots
``s < t`` where the product of the two sign matrices differs, with
``x = l*k`` coordinatewise and ``p = (a, b, c, d)``: the class series are
integer sums, and they stay integer vectors through ``delta_series`` and the
collapse in ``certify``; only the certificate terms become polynomials.  The
invariant-difference route and, in the test suite, the Fraction-valued
kernel summed over all of L1 x L1 are independent references for it.

The leading term is controlled by the suffix-sum partial order: a search of
the budget shell finds the order-minimal vectors of each class, pairs of
them from distinct classes realize the candidate leading exponents, and
exactly two of the eighteen candidates are order-minimal.  Their
coefficients are -12(b-a)(d-c) and -96a(c-b), both strictly negative on the
admissible cone, so the collapsed series has a nonzero leading coefficient
at every pairwise-distinct positive parameter point: the pair is isospectral
but never isometric there.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .lattices import (
    ALL_LABELS,
    COSET_REPS,
    CosetLabel,
    Vec,
    build_family,
    coset_label,
    phi,
    psi,
)
from .qarith import (
    MONOS,
    QUAD_MONOS,
    QUAD_SLOTS,
    Compiled,
    Expo,
    FormalQSeries,
    ParamPoint,
    ParamPolynomial,
    _compile,
    _lead,
    _sort_cleared,
    _value,
    _weights,
    check_budget,
    exp_below,
)
from .theta import Kernel, pair_series, theta11


# Only the three budget-keyed facts that measured traffic re-reads are
# cached (timings on a 2-vCPU x86_64 VM, Python 3.11).  The labelled shell:
# the minimal vectors are read from it, and scanning L1's budget-80 shell
# costs about 0.25 ms and labelling it 0.30 ms (``lattices.scan_L1`` and
# ``lattices.label`` in ``BENCH_pr23.json``).  The class series: without them
# ``delta_series(40)`` costs about 0.5 ms more, and ``check_relations(24)``,
# which reads most series three times, takes 7.4 ms instead of 2.2 ms.  The
# leading data of a budget and route (``_leading_data``): the series' two
# order-minimal pair rows, checked once against their direct kernels, their
# coefficient polynomials, and the head of the series, its two terms at
# those rows; a check made once per entry shows that every other term lies
# strictly above a row, so no point needs the rest.  None of it depends on
# the point, and each part of it costs more per point than a warm certify
# does: the pair table 0.3-0.4 ms, ``delta_series`` 0.06 ms, the row check
# 0.04 ms, and collapsing the whole series 0.15 ms at budget 40 (42 terms)
# and 0.75 ms at budget 80 (210 terms, ``qarith.collapse``).  The entry
# holds the head and the rows compiled to the integer (coefficient, slot)
# pairs a point needs, so a warm certify is one lead of the two-term head's
# collapse and one compiled value per term, a few integer products each on
# the point's cleared denominators: about 0.0095 ms at budget 40 or 80
# (``certify_warm`` in ``BENCH_pr25.json``, calibrated medians, on the flat
# path of ``certify``'s docstring; 0.017 ms with the head collapsed as a
# series and each polynomial evaluated from its monomial dict).
# ``delta_series`` alone only re-sums six cached class series (under 0.1 ms
# at budget 80) and ``Lattice.vectors`` only rescans (0.25 ms for L1 at
# budget 80, as above), so neither keeps a cache of its own.  Bounds, in entries:
# ``verify`` meets the six distinct positive pairs at budget 24 and at its
# own budget (12 class series), two labelled shells and one leading entry;
# ``check_relations(24)``, which the tests and perfbench's layer sweep call,
# meets all 81 ordered label pairs, 87 class series with the six of a
# ``delta_series`` at another budget, so the class-series bound stays 128; a
# certify batch needs six class series, one shell and one leading entry,
# which shares the shells' bound.  None evicts; a process sweeping budgets
# keeps only the most recent ones.  All three caches are typed, so a float
# budget never reads an int entry.
SHELL_CACHE = 8
CLASS_SERIES_CACHE = 128

# The square sum of the leading exponent (25, 5, 5, 1): the smallest budget
# whose series holds both leading coefficients in full.
MIN_PAIR_BUDGET = 36


class Route(enum.Enum):
    FROM_THETA = "theta"
    FROM_PSI_KERNEL = "psi"


class Verdict(enum.Enum):
    NON_ISOMETRIC = "NonIsometric"
    INCONCLUSIVE = "Inconclusive"


def pair_discrepancy_vector(l, k) -> tuple[int, ...]:
    """<l,k>^2 - <psi(l),psi(k)>^2 for vectors of L1, as an integer vector on
    ``MONOS``: the square of the linear form ``x.p`` with ``x = l*k``
    coordinatewise, minus the same square for the images under psi."""
    x = [u * w for u, w in zip(l, k)]
    y = [u * w for u, w in zip(psi(l), psi(k))]
    quad = ((x[s] * x[t] - y[s] * y[t]) * (1 if s == t else 2) for s, t in QUAD_SLOTS)
    return (0,) * (len(MONOS) - len(QUAD_MONOS)) + tuple(quad)


@lru_cache(maxsize=SHELL_CACHE, typed=True)
def _labelled_shell(budget: int) -> dict[CosetLabel, tuple[Vec, ...]]:
    members: dict[CosetLabel, list[Vec]] = {label: [] for label in ALL_LABELS}
    for v in build_family().L1.vectors(budget):
        members[coset_label(v)].append(v)
    return {label: tuple(vs) for label, vs in members.items()}


_SLOT_MONOS = dict(zip(QUAD_SLOTS, QUAD_MONOS))


def _class_slots(label1: CosetLabel, label2: CosetLabel) -> tuple[tuple[int, int], ...]:
    """The slots ``s < t`` at which the product ``f`` of the two class sign
    matrices differs: the slots the kernel of the class pair carries."""
    f = tuple(x * y for x, y in zip(label1.diag, label2.diag))
    return tuple((s, t) for s, t in QUAD_SLOTS if f[s] != f[t])


@lru_cache(maxsize=CLASS_SERIES_CACHE, typed=True)
def class_pair_series(label1: CosetLabel, label2: CosetLabel, budget: int) -> FormalQSeries:
    """The discrepancy contribution of one ordered pair of coset classes
    (no prefactor).

    With ``x = l*k`` coordinatewise and ``f`` the product of the two class
    sign matrices, ``<l,k>^2 - <psi l,psi k>^2`` is the sum of
    ``4 x_s x_t p_s p_t`` over the slots ``s < t`` with ``f_s != f_t``
    (``_class_slots``), so ``pair_series`` sums it in integers, one counter
    per slot.  The sign matrices form a four-group, so ``f`` is the
    identity or has two entries of each sign: a class pair carries no slot
    or four, and its kernel is four products.
    """
    slots = _class_slots(label1, label2)
    if not slots:
        return FormalQSeries.empty(budget)
    (s0, t0), (s1, t1), (s2, t2), (s3, t3) = slots

    def kernel(l, k):
        x = (l[0] * k[0], l[1] * k[1], l[2] * k[2], l[3] * k[3])
        return [4 * x[s0] * x[t0], 4 * x[s1] * x[t1], 4 * x[s2] * x[t2], 4 * x[s3] * x[t3]]

    shell = _labelled_shell(budget)
    monos = tuple(_SLOT_MONOS[slot] for slot in slots)
    return pair_series(shell[label1], shell[label2], budget, kernel, monos)


def check_route(route) -> Route:
    """Refuse a route that is not a ``Route`` (the string ``"theta"`` included)."""
    if not isinstance(route, Route):
        raise TypeError(f"route must be a Route, got {route!r}")
    return route


def delta_series(budget: int, route: Route = Route.FROM_PSI_KERNEL) -> FormalQSeries:
    """The discrepancy series at the given budget.

    ``FROM_PSI_KERNEL`` is the sum of the six class series
    ``class_pair_series`` of distinct positive classes i < j; ``FROM_THETA``
    takes 1/128 of the difference of the two invariants, enumerating L2
    independently.  The two routes agree exactly.  Nothing is cached here;
    the class series are.  Both routes add integer coefficient vectors; the
    theta route's 1/128 divides every coefficient exactly, since its result
    equals the integer ``psi`` route, and a remainder would raise
    ``ValueError`` rather than be rounded.

    The class restriction is exact at every budget, not only on a checked
    truncation.  Equal or opposite class indices give ``f == 1``, so the
    kernel vanishes pair by pair.  The kernel is symmetric in (l, k)
    pointwise, and ``v -> -v`` maps class j onto -j, keeps ``phi`` and
    keeps every ``x_s x_t``; so each unordered pair of distinct indices
    appears in the 1/8-scaled full sum as eight equal ordered, signed
    copies.  For the zero class, a four-group sign flip ``g`` with
    ``g_s != g_t`` is a ``phi``-preserving involution of M that negates
    ``x_s x_t``, so every slot sums to zero over the class.  The
    ``class relations`` anchor of ``verification`` checks these premises.  A
    route that is not a ``Route`` raises ``TypeError``.
    """
    if check_route(route) is Route.FROM_THETA:
        fam = build_family()
        diff = theta11(fam.L1, budget, Kernel.PAIRWISE) - theta11(fam.L2, budget, Kernel.PAIRWISE)
        return diff.scaled(Fraction(1, 128))
    total = FormalQSeries.empty(budget)
    for i, j in combinations(range(4), 2):
        total = total + class_pair_series(CosetLabel(i, 1), CosetLabel(j, 1), budget)
    return total


class RelationReport(
    namedtuple(
        "RelationReport", "ok checked violated labels witness", defaults=(None, (), None)
    )
):
    """Outcome of the class-series identity checks: whether they hold, how
    many were checked, and for a failure the identity, the class labels and
    a witness exponent."""

    __slots__ = ()


def check_relations(budget: int) -> RelationReport:
    """Verify the four class-series identities on the truncation:

    (1) equal classes give zero; (2) the series is symmetric in its classes;
    (3) negating one class changes nothing; (4) the zero class gives zero.
    Stops at the first violation, reporting a witness exponent.
    """
    checked = 0

    def witness_of(series: FormalQSeries) -> Expo:
        return min(series.terms)

    for label in ALL_LABELS:
        series = class_pair_series(label, label, budget)
        checked += 1
        if not series.is_zero:
            return RelationReport(False, checked, "equal-classes", (str(label),), witness_of(series))
    for label1 in ALL_LABELS:
        for label2 in ALL_LABELS:
            forward = class_pair_series(label1, label2, budget)
            backward = class_pair_series(label2, label1, budget)
            checked += 1
            if forward != backward:
                diff = forward - backward
                return RelationReport(
                    False, checked, "symmetry", (str(label1), str(label2)), witness_of(diff)
                )
            negated = class_pair_series(label1, -label2, budget)
            checked += 1
            if forward != negated:
                diff = forward - negated
                return RelationReport(
                    False, checked, "sign-invariance", (str(label1), str(label2)), witness_of(diff)
                )
    zero = CosetLabel.zero()
    for label in ALL_LABELS:
        series = class_pair_series(zero, label, budget)
        checked += 1
        if not series.is_zero:
            return RelationReport(False, checked, "zero-class", (str(label),), witness_of(series))
    return RelationReport(True, checked)


def _order_minimal(items, key) -> tuple:
    """The items, in their order, whose key no item's key lies strictly
    below in the suffix-sum order; each key is computed once."""
    keys = [key(item) for item in items]
    return tuple(item for item, e in zip(items, keys) if not any(exp_below(f, e) for f in keys))


def minimal_vectors(label: CosetLabel, budget: int) -> tuple[Vec, ...]:
    """Order-minimal vectors of a coset class within the budget shell.

    A vector is minimal when no class member's squared-coordinate tuple lies
    strictly below its own in the suffix-sum order.  Domination can only come
    from vectors of smaller or equal coordinate-square sum, so enlarging the
    budget never retracts a reported vector.  Nor does it add one: ``12 e_j``
    lies in M, so a member with ``|v_j| > 6`` has the class member
    ``v -/+ 12 e_j`` strictly below it, and every minimal vector lies in the
    box ``[-6, 6]^4``.  The tests check that the box's minimal members (of
    its 209 vectors of L1) are those of the budget-36 shell.
    """
    return _order_minimal(_labelled_shell(budget)[label], phi)


class PairRow(namedtuple("PairRow", "i j exponent vectors")):
    """One candidate leading exponent: global indices of two minimal vectors
    from distinct classes, the sum of their squared-coordinate tuples, and
    the two vectors."""

    __slots__ = ()


def minimal_pair_table(budget: int) -> tuple[PairRow, ...]:
    """All exponent candidates from pairs of minimal vectors in distinct
    classes, with the global numbering: class representatives keep their
    class index 0..3, further minimal vectors get 4, 5, ... in class order."""
    if check_budget(budget) < MIN_PAIR_BUDGET:
        raise ValueError(
            f"pair table needs budget >= {MIN_PAIR_BUDGET} to see every minimal vector"
        )
    numbered: dict[int, tuple[int, Vec]] = {}
    extras: list[tuple[int, Vec]] = []
    for i in range(4):
        for v in minimal_vectors(CosetLabel(i, 1), budget):
            if v == COSET_REPS[i]:
                numbered[i] = (i, v)
            else:
                extras.append((i, v))
    for index, extra in enumerate(sorted(extras), start=4):
        numbered[index] = extra
    return tuple(
        PairRow(i, j, tuple(x + y for x, y in zip(phi(v), phi(w))), (v, w))
        for (i, (ci, v)), (j, (cj, w)) in combinations(sorted(numbered.items()), 2)
        if ci != cj
    )


def minimal_rows(table: tuple[PairRow, ...]) -> tuple[PairRow, ...]:
    """The rows whose exponents are order-minimal within the table."""
    return _order_minimal(table, lambda row: row.exponent)


@lru_cache(maxsize=SHELL_CACHE, typed=True)
def _leading_data(
    budget: int, route: Route
) -> tuple[tuple[tuple[Expo, Compiled], ...], tuple[tuple[Expo, ParamPolynomial, Compiled], ...]]:
    """The head of the discrepancy series of a budget and route -- its terms
    at the order-minimal pair exponents -- and those exponents, each with its
    coefficient polynomial, in the integer forms a point needs.

    The head is a tuple of ``(exponent, pairs)``: each term's ``MONOS``
    vector compiled to (coefficient, slot) pairs (``qarith._compile``), the
    form ``qarith._lead`` collapses.  The rows are a tuple of ``(exponent,
    polynomial, pairs)``: the polynomial compiled from its own monomials
    (``ParamPolynomial._compile``), the form ``qarith._value`` evaluates.
    The polynomials are ``series.coefficient(e)``, built from the same
    vectors as the head, so their compiled pairs equal the head's.  A
    point's two checks therefore test the collapse, not the series: that
    the head's collapse (``_lead``) leads at the least row key, and that its
    coefficient equals the sum of the leading rows' values (``_value``).
    The independent source is ``pair_discrepancy_vector``, the first check
    below.

    Two checks run here, once per entry.  Each stored coefficient is checked
    against the direct two-vector kernel of its row
    (``pair_discrepancy_vector``, in integers).  Every other exponent of the
    series must lie strictly above a row exponent in the suffix order
    (``exp_below``); by the suffix-sum identity such a term collapses
    strictly above that row at every sorted, pairwise-distinct point, so the
    head's collapse leads exactly where the whole series' collapse does.  A
    failed check raises ``AssertionError``, and ``lru_cache`` stores no
    exception, so an inconsistent series fails every call, not only the
    first.
    """
    series = delta_series(budget, route)
    rows = minimal_rows(minimal_pair_table(budget))
    for row in rows:
        if series.terms.get(row.exponent) != pair_discrepancy_vector(*row.vectors):
            raise AssertionError(
                f"coefficient at {row.exponent} disagrees with the minimal-pair kernel"
            )
    exponents = tuple(row.exponent for row in rows)
    for e in series.terms:
        if e not in exponents and not any(exp_below(f, e) for f in exponents):
            raise AssertionError(f"exponent {e} does not lie above a minimal pair exponent")
    head = tuple((e, _compile(series.terms[e])) for e in exponents)
    polys = [series.coefficient(e) for e in exponents]
    return head, tuple((e, poly, poly._compile()) for e, poly in zip(exponents, polys))


class CertTerm(namedtuple("CertTerm", "exponent_vector polynomial value")):
    """One leading pair exponent of a certificate, its coefficient
    polynomial and that polynomial's value at the sorted point."""

    __slots__ = ()


class Certificate(
    namedtuple(
        "Certificate",
        "params sorted_params permutation budget min_exponent terms total verdict",
        defaults=(None, (), None, Verdict.INCONCLUSIVE),
    )
):
    """Witness that the pair at a parameter point is not isometric.

    ``NON_ISOMETRIC`` requires a nonzero total coefficient at the minimal
    collapsed exponent of the discrepancy; repeated parameter values yield
    the defaults: ``INCONCLUSIVE`` and no terms.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "params": [str(x) for x in self.params],
            "sorted_params": [str(x) for x in self.sorted_params],
            "permutation": list(self.permutation),
            "budget": self.budget,
            "min_exponent": None if self.min_exponent is None else str(self.min_exponent),
            "terms": [
                {
                    "exponent_vector": list(term.exponent_vector),
                    "polynomial": [
                        [list(mono), str(coeff)] for mono, coeff in term.polynomial.as_pairs()
                    ],
                    "value": str(term.value),
                }
                for term in self.terms
            ],
            "total": None if self.total is None else str(self.total),
            "verdict": self.verdict.value,
        }


def certify(p: ParamPoint, budget: int = 40, route: Route = Route.FROM_PSI_KERNEL) -> Certificate:
    """Certify non-isometry of the pair at a parameter point.

    The parameters must be positive rationals; a repeated value falls outside
    the family's hypothesis and gives an inconclusive certificate.  Distinct
    values are sorted into the canonical increasing chain first.  The
    collapsed discrepancy's minimal exponent must agree with the minimum of
    the two order-minimal pair exponents, and its coefficient with the sum
    of the certificate terms; both are checked on every call.  The head of
    the series (its terms at the order-minimal rows), the rows and their
    coefficient polynomials depend only on the budget and route, so they are
    built once per budget and route and cached (``_leading_data``), compiled
    to the (coefficient, slot) pairs a point needs; the rows' stored
    coefficients are cross-checked against the direct two-vector kernels
    (``pair_discrepancy_vector``, in integers), and every other term of the
    budget's series is checked to lie strictly above a row in the suffix
    order, when they are built.  So a call collapses only the two-term
    head, which leads exactly where the whole series does, and its work does
    not grow with the budget.  The point is cleared and sorted once per call
    (``_sort_cleared``), and every step after that is integer work on the
    scale of the ``qarith`` module: the rows at the least key are found with
    a running minimum, the weights of the point are taken once
    (``_weights``), the head's collapse is led from its compiled vectors
    (``_lead``) and each certificate term's value from its polynomial's own
    compiled monomials (``_value``).  Those polynomials are the series'
    coefficients, read from the same vectors as the head, so the two checks
    compare the head's collapse with the least row key (the exponent check)
    and with the sum of the leading terms' values (the total check); the
    check against an independent source, the direct two-vector kernels, is
    the once-per-entry one above.  Ties are resolved by summing
    coefficients at the common collapsed exponent.  Fractions are built only
    for the certificate's outputs, and a one-term certificate's total is its
    term's value, which the total check has just proved equal.  A budget
    that is not an ``int``, a route that is not a ``Route`` or a point that
    is not a ``ParamPoint`` raises ``TypeError``, in that order, before any
    other check and before any cache is read.

    A warm call is one flat path: of the package it enters only this
    function, ``_sort_cleared``, ``_weights``, ``_lead`` and ``_value``.
    ``check_budget`` and ``check_route`` run only for a budget whose type
    is not ``int`` or a route whose type is not ``Route``; a point with one
    leading term values it directly, a tie sums its terms in a plain loop,
    and each record is built from one tuple, as its constructor builds it.
    That is about 0.0095 ms at budget 40 or 80 (``certify_warm`` in
    ``BENCH_pr25.json``), against 0.012 ms through comprehensions, the
    checks and the constructors.
    """
    # the checks live in ``check_budget`` and ``check_route``; an int or a
    # Route passes them, and an Enum with members has no subclass
    if type(budget) is not int:
        check_budget(budget)
    if type(route) is not Route:
        check_route(route)
    if not isinstance(p, ParamPoint):
        raise TypeError(f"point must be a ParamPoint, got {p!r}")
    if budget < MIN_PAIR_BUDGET:
        raise ValueError(
            f"certification needs budget >= {MIN_PAIR_BUDGET} to cover the minimal pair table"
        )
    ordered, permutation, D, A = _sort_cleared(p)
    a0, a1, a2, a3 = A
    if not a0 < a1 < a2 < a3:  # sorted, so a repeated value
        return Certificate(tuple(p), ordered, permutation, budget)
    head, rows = _leading_data(budget, route)
    # the rows at the least key e.A, D times their collapsed exponent
    min_key = None
    for row in rows:
        n0, n1, n2, n3 = row[0]
        key = n0 * a0 + n1 * a1 + n2 * a2 + n3 * a3
        if min_key is None or key < min_key:
            min_key, leaders = key, [row]
        elif key == min_key:
            leaders.append(row)

    W = _weights(D, A)
    # (D * exponent, D^2 * coefficient) of the head's collapse
    lead = _lead(head, A, W)
    if lead is None or lead[0] != min_key:
        raise AssertionError("collapsed series does not lead at the minimal pair exponent")

    # the terms' values are integers over D^2, as the head's coefficient is;
    # ``_lead`` skips zero sums, so a checked total is nonzero.  Records are
    # built as their namedtuple constructors build them, from one tuple.
    coefficient = lead[1]
    square = D * D
    if len(leaders) == 1:
        (e, poly, pairs), = leaders
        if coefficient != _value(pairs, W):
            raise AssertionError("leading coefficient does not match the certificate terms")
        # the check proved the term's value equal to the total
        total = Fraction(coefficient, square)
        terms = (tuple.__new__(CertTerm, (e, poly, total)),)
    else:  # a tie: the leaders' values sum at one exponent
        terms, value_sum = [], 0
        for e, poly, pairs in leaders:
            value = _value(pairs, W)
            value_sum += value
            terms.append(tuple.__new__(CertTerm, (e, poly, Fraction(value, square))))
        if coefficient != value_sum:
            raise AssertionError("leading coefficient does not match the certificate terms")
        terms, total = tuple(terms), Fraction(coefficient, square)
    return tuple.__new__(Certificate, (
        tuple(p), ordered, permutation, budget,
        Fraction(min_key, D), terms, total, Verdict.NON_ISOMETRIC,
    ))
