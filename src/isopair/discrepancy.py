"""The discrepancy series and the non-isometry certificate.

The discrepancy is 1/128 times the difference of the degree-2 invariants of
the pair.  Because the bijection ``psi`` matches L2 vectors to L1 vectors of
identical squared-coordinate tuples, the norm terms of the two invariants
cancel and the discrepancy collapses to a single sum over L1 x L1::

    delta = 1/8 * sum_{(l,k)} (<l,k>^2 - <psi(l),psi(k)>^2) q^(phi(l)+phi(k)).

As psi acts on each class modulo M by a fixed diagonal sign matrix, the
kernel of an ordered class pair is ``4 x_s x_t p_s p_t`` summed over the
coordinate slots ``s < t`` where the product ``f`` of the two sign matrices
differs, with ``x = l*k`` coordinatewise and ``p = (a, b, c, d)``: the class
series are integer sums, and they stay integer vectors through
``delta_series`` and the leading entry, whose rows ``certify`` values as
one integer chain monomial each; only the certificate terms become
polynomials.

The class restriction: the whole series is the sum of the six class series
with distinct positive representatives, exactly at every budget, not only
on a checked truncation.  Equal or opposite classes give ``f == 1``, so the
kernel vanishes pair by pair.  The kernel is symmetric in (l, k), and
``v -> -v`` maps class j onto -j, keeps ``phi`` and keeps every
``x_s x_t``; so each unordered pair of distinct classes appears in the
full sum as eight equal ordered, signed copies, which cancel the 1/8.  On
the zero class, a four-group sign flip ``g`` with ``g_s != g_t`` is a
``phi``-preserving involution of M that negates ``x_s x_t``, so every slot
sums to zero over the class.  The ``class relations`` anchor of
``verification`` checks these premises.

The leading term is controlled by the suffix-sum partial order: the
order-minimal vectors of each class are the seven stated here,
``COSET_REPS`` and ``EXPECTED_EXTRA_MINIMAL``, which the ``minimal vectors``
anchor proves by walking the box ``[-6, 6]^4`` that holds them all; pairs
of them from distinct classes realize the candidate leading exponents, and
exactly two of the eighteen candidates are order-minimal.
Their coefficients are -12(b-a)(d-c) and -96a(c-b), both strictly negative
on the admissible cone (``check_chain_form`` finds -12 x2 x4 and
-96 x1 x3 in the chain coordinates of a sorted point, the two monomials
that ``certify`` values), so the collapsed
series has a nonzero leading coefficient at every pairwise-distinct
positive parameter point: the pair is isospectral but never isometric
there.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

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
    QUAD_MONOS,
    QUAD_SLOTS,
    Expo,
    FormalQSeries,
    ParamPoint,
    ParamPolynomial,
    _sort_cleared,
    check_budget,
    exp_below,
)
from .theta import Kernel, pair_series, theta11


# One fact is cached: the leading entry (``_leading_data``, whose docstring
# says what it holds and checks), keyed by the route alone, which hashes by
# identity.  It is the same at every point and every budget of at least
# ``MIN_PAIR_BUDGET``, so it is built once per route, from the budget-36
# series, and read by every ``certify``.  No second call would read a
# labelled shell, so none is kept: ``delta_series`` and ``check_relations``
# label one per call (``_labelled_shell``) and sum each class series they
# read from it once, six and 81.  A ``certify`` process labels one shell
# (36; none on the theta route), ``delta`` one, ``verify`` two (24 and 36)
# and a warm certify batch none after its first call.

# The square sum of the leading exponent (25, 5, 5, 1): the smallest budget
# whose series holds both leading coefficients in full.
MIN_PAIR_BUDGET = 36


class Route(enum.Enum):
    FROM_THETA = "theta"
    FROM_PSI_KERNEL = "psi"

    # a member is equal only to itself, so the identity hash agrees with
    # ``==``; it runs in C, where ``Enum.__hash__`` is a Python frame on
    # every cached lookup keyed by a route
    __hash__ = object.__hash__


class Verdict(enum.Enum):
    NON_ISOMETRIC = "NonIsometric"
    INCONCLUSIVE = "Inconclusive"


def pair_discrepancy_vector(l, k) -> tuple[int, ...]:
    """<l,k>^2 - <psi(l),psi(k)>^2 for vectors of L1, as an integer vector on
    ``QUAD_MONOS``: the square of the linear form ``x.p`` with ``x = l*k``
    coordinatewise, minus the same square for the images under psi."""
    x = [u * w for u, w in zip(l, k)]
    y = [u * w for u, w in zip(psi(l), psi(k))]
    return tuple([(x[s] * x[t] - y[s] * y[t]) * (1 if s == t else 2) for s, t in QUAD_SLOTS])


def _labelled_shell(budget: int) -> dict[CosetLabel, list[Vec]]:
    members: dict[CosetLabel, list[Vec]] = {label: [] for label in ALL_LABELS}
    for v in build_family().L1.vectors(budget):
        members[coset_label(v)].append(v)
    return members


def _class_slots(label1: CosetLabel, label2: CosetLabel) -> tuple[tuple[int, int], ...]:
    """The slots ``s < t`` at which the product ``f`` of the two class sign
    matrices differs: the slots the kernel of the class pair carries."""
    f = tuple(x * y for x, y in zip(label1.diag, label2.diag))
    return tuple((s, t) for s, t in QUAD_SLOTS if f[s] != f[t])


def _class_sum(shell, label1: CosetLabel, label2: CosetLabel, budget: int) -> FormalQSeries:
    """The discrepancy contribution of one ordered pair of coset classes (no
    prefactor) over a labelled shell: the module's class kernel, which
    ``pair_series`` sums in integers, one counter per slot of
    ``_class_slots``.  The sign matrices form a four-group, so ``f`` is the
    identity or has two entries of each sign: a class pair carries no slot
    or four, and its kernel is four products.
    """
    slots = _class_slots(label1, label2)
    if not slots:
        return FormalQSeries(budget)
    (s0, t0), (s1, t1), (s2, t2), (s3, t3) = slots

    def kernel(l, k):
        x = (l[0] * k[0], l[1] * k[1], l[2] * k[2], l[3] * k[3])
        return [4 * x[s0] * x[t0], 4 * x[s1] * x[t1], 4 * x[s2] * x[t2], 4 * x[s3] * x[t3]]

    positions = tuple(QUAD_SLOTS.index(slot) for slot in slots)
    return pair_series(shell[label1], shell[label2], budget, kernel, positions)


def check_route(route) -> Route:
    """Refuse a route that is not a ``Route`` (the string ``"theta"`` included)."""
    if not isinstance(route, Route):
        raise TypeError(f"route must be a Route, got {route!r}")
    return route


def delta_series(budget: int, route: Route = Route.FROM_PSI_KERNEL) -> FormalQSeries:
    """The discrepancy series at the given budget.

    ``FROM_PSI_KERNEL`` is the sum of the six class series (``_class_sum``)
    of distinct positive classes i < j, exact at every budget by the
    module's class restriction, over one labelled shell;
    ``FROM_THETA`` takes 1/128 of the difference of the two invariants,
    enumerating L2 independently.  The two routes agree exactly.  Each
    route combines integer coefficient vectors here, before it builds the
    one series it returns: the psi route merges the class series' vectors
    into one dict, summing at shared exponents and dropping zero sums; the
    theta route subtracts L2's ``theta11`` vectors from L1's and checks that
    128 divides every entry, so a remainder raises ``ValueError`` rather
    than be rounded.  No shell or series is cached.  A route that is not a
    ``Route`` raises ``TypeError``.
    """
    if check_route(route) is Route.FROM_THETA:
        fam = build_family()
        diff = dict(theta11(fam.L1, budget, Kernel.PAIRWISE).terms)
        zero = (0,) * len(QUAD_MONOS)
        for e, v in theta11(fam.L2, budget, Kernel.PAIRWISE).terms.items():
            diff[e] = [x - y for x, y in zip(diff.get(e, zero), v)]
        quotients = {}
        for e, v in diff.items():
            if any(x % 128 for x in v):
                raise ValueError(f"coefficient at {e} times 1/128 is not an integer")
            if any(v):
                # a tuple from a list, as ``theta.pair_series`` builds it
                quotients[e] = tuple([x // 128 for x in v])
        return FormalQSeries._of_terms(budget, quotients)
    shell = _labelled_shell(budget)
    terms: dict[Expo, tuple[int, ...]] = {}
    for i, j in combinations(range(4), 2):
        for e, v in _class_sum(shell, CosetLabel(i, 1), CosetLabel(j, 1), budget).terms.items():
            acc = terms.get(e)
            if acc is None:
                terms[e] = v
                continue
            acc = tuple([x + y for x, y in zip(acc, v)])
            if any(acc):
                terms[e] = acc
            else:
                del terms[e]
    # the class series hold nonzero tuples, and a zero sum was dropped
    return FormalQSeries._of_terms(budget, terms)


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
    The 81 ordered class series are summed once each, over one labelled
    shell.  Stops at the first violation, reporting a witness exponent.
    """
    shell = _labelled_shell(budget)
    series = {pair: _class_sum(shell, *pair, budget) for pair in product(ALL_LABELS, repeat=2)}
    checked = 0

    def witness_of(first: FormalQSeries, second: FormalQSeries) -> Expo:
        """The least exponent at which two series differ: the least of the
        (exponent, vector) items that only one of them holds."""
        return min(first.terms.items() ^ second.terms.items())[0]

    for label in ALL_LABELS:
        equal = series[label, label]
        checked += 1
        if not equal.is_zero:
            return RelationReport(False, checked, "equal-classes", (str(label),), min(equal.terms))
    for label1 in ALL_LABELS:
        for label2 in ALL_LABELS:
            forward = series[label1, label2]
            backward = series[label2, label1]
            checked += 1
            if forward != backward:
                return RelationReport(
                    False, checked, "symmetry", (str(label1), str(label2)),
                    witness_of(forward, backward),
                )
            negated = series[label1, -label2]
            checked += 1
            if forward != negated:
                return RelationReport(
                    False, checked, "sign-invariance", (str(label1), str(label2)),
                    witness_of(forward, negated),
                )
    zero = CosetLabel.zero()
    for label in ALL_LABELS:
        with_zero = series[zero, label]
        checked += 1
        if not with_zero.is_zero:
            return RelationReport(False, checked, "zero-class", (str(label),), min(with_zero.terms))
    return RelationReport(True, checked)


def _order_minimal(items, key) -> tuple:
    """The items, in their order, whose key no item's key lies strictly
    below in the suffix-sum order; each key is computed once."""
    keys = [key(item) for item in items]
    return tuple(item for item, e in zip(items, keys) if not any(exp_below(f, e) for f in keys))


# The order-minimal class members besides ``COSET_REPS``, by class index:
# with the four representatives, the seven minimal vectors.  Every
# order-minimal member lies in the box [-6, 6]^4, where the ``minimal
# vectors`` anchor of ``verification`` finds exactly these seven, so the
# pair table reads them and no shell.
EXPECTED_EXTRA_MINIMAL = {0: (-4, 0, 2, -2), 1: (4, 2, 2, 0), 3: (-4, 2, 0, 2)}


class PairRow(namedtuple("PairRow", "i j exponent vectors")):
    """One candidate leading exponent: global indices of two minimal vectors
    from distinct classes, the sum of their squared-coordinate tuples, and
    the two vectors."""

    __slots__ = ()


def minimal_pair_table(budget: int) -> tuple[PairRow, ...]:
    """All exponent candidates from pairs of the seven minimal vectors in
    distinct classes, with the global numbering: class representatives keep
    their class index 0..3, the extra minimal vectors get 4, 5, 6 in class
    order.

    The table does not depend on the budget; a budget that is not an
    ``int`` raises ``TypeError`` and one below ``MIN_PAIR_BUDGET`` raises
    ``ValueError``, as ``certify`` refuses them."""
    if check_budget(budget) < MIN_PAIR_BUDGET:
        raise ValueError(
            f"pair table needs budget >= {MIN_PAIR_BUDGET} to see every leading coefficient"
        )
    numbered = enumerate([*enumerate(COSET_REPS), *sorted(EXPECTED_EXTRA_MINIMAL.items())])
    return tuple(
        PairRow(i, j, tuple(x + y for x, y in zip(phi(v), phi(w))), (v, w))
        for (i, (ci, v)), (j, (cj, w)) in combinations(numbered, 2)
        if ci != cj
    )


def minimal_rows(table: tuple[PairRow, ...]) -> tuple[PairRow, ...]:
    """The rows whose exponents are order-minimal within the table."""
    return _order_minimal(table, lambda row: row.exponent)


# The chain substitution ``a = x1``, ``b = x1+x2``, ``c = x1+x2+x3``,
# ``d = x1+x2+x3+x4`` on forms: row ``(u, v)`` of ``QUAD_SLOTS`` holds the
# coefficient of ``x_u x_v`` in each ``p_s p_t``, in ``QUAD_SLOTS`` order.
# A literal, so that no import computes it; the tests derive it with sympy.
_CHAIN_MAP = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1),  # x1*x1
    (0, 1, 1, 1, 2, 2, 2, 2, 2, 2),  # x1*x2
    (0, 0, 1, 1, 0, 1, 1, 2, 2, 2),  # x1*x3
    (0, 0, 0, 1, 0, 0, 1, 0, 1, 2),  # x1*x4
    (0, 0, 0, 0, 1, 1, 1, 1, 1, 1),  # x2*x2
    (0, 0, 0, 0, 0, 1, 1, 2, 2, 2),  # x2*x3
    (0, 0, 0, 0, 0, 0, 1, 0, 1, 2),  # x2*x4
    (0, 0, 0, 0, 0, 0, 0, 1, 1, 1),  # x3*x3
    (0, 0, 0, 0, 0, 0, 0, 0, 1, 2),  # x3*x4
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),  # x4*x4
)


def check_chain_form(e: Expo, vector) -> list[int]:
    """The paper's theorem at one leading row: the coefficient ``vector`` on
    ``QUAD_MONOS`` at exponent ``e``, written in the chain coordinates of
    ``_CHAIN_MAP``, has no positive and some negative coefficient.  At a
    pairwise-distinct sorted point every ``x_i`` is positive, so every
    ``x_u x_v`` is, and the coefficient is negative there.  Returns the
    chain form it checked, on ``QUAD_SLOTS``; a failure raises
    ``AssertionError`` naming the row and the chain coefficient."""
    chain = [sum(map(mul, row, vector)) for row in _CHAIN_MAP]
    for (u, v), x in zip(QUAD_SLOTS, chain):
        if x > 0:
            raise AssertionError(
                f"coefficient at {e} has chain coefficient {x} on x{u + 1}*x{v + 1}"
            )
    if not any(chain):
        raise AssertionError(f"coefficient at {e} has no negative chain coefficient")
    return chain


@lru_cache(maxsize=len(Route))
def _leading_data(route: Route) -> tuple[tuple[Expo, ParamPolynomial, tuple[int, int, int]], ...]:
    """The leading entry of a route: the two order-minimal pair exponents,
    each with its coefficient polynomial and that coefficient as the single
    chain monomial a point values.

    The entry is built once per route, from the series at
    ``MIN_PAIR_BUDGET`` and the pair table, and serves every budget of at
    least that.  The table pairs the seven stated minimal vectors, which
    the ``minimal vectors`` anchor proves to be every order-minimal class
    member, so it reads no shell and has no budget.  The suffix order is
    well-founded and additive, so a pair from two distinct, non-opposite
    classes lies at or above a pair-table row, and every row at or above a
    leading row; pairs from equal or opposite classes and from the zero
    class contribute nothing (the module's class restriction).  Both leading
    exponents have a square sum of at most ``MIN_PAIR_BUDGET``, so that
    series holds their coefficients in full.

    The entry is a pair of rows ``(exponent, polynomial, (coefficient, u,
    v))``: the polynomial ``series.coefficient(e)`` for the certificate,
    and the one nonzero entry of the coefficient's chain form
    (``check_chain_form``), ``coefficient * x_u * x_v`` in the chain
    coordinates ``x1 = a``, ``x2 = b-a``, ``x3 = c-b``, ``x4 = d-c``, with
    ``u`` and ``v`` zero-based as in ``QUAD_SLOTS``, which ``certify``
    values at the point's numerators.

    Three checks run here, once per entry, on the budget-36 series.  Each
    stored coefficient must equal the direct two-vector kernel of its row
    (``pair_discrepancy_vector``, in integers).  Every other exponent of the
    series must lie strictly above a row exponent in the suffix order
    (``exp_below``); by the suffix-sum identity such a term collapses
    strictly above that row at every sorted, pairwise-distinct point, so the
    rows lead exactly where the whole series does, and no point needs the
    rest.  The tests repeat that check on the whole series at larger
    budgets.  Each row's coefficient must pass ``check_chain_form``, so it
    is negative at every pairwise-distinct point.  The entry then takes the
    shape ``certify`` reads: each chain form must have exactly one nonzero
    entry, and there must be exactly two rows.  A failed check raises
    ``AssertionError``, and ``lru_cache`` stores no exception, so an
    inconsistent series fails every call, not only the first.
    """
    series = delta_series(MIN_PAIR_BUDGET, route)
    rows = minimal_rows(minimal_pair_table(MIN_PAIR_BUDGET))
    for row in rows:
        if series.terms.get(row.exponent) != pair_discrepancy_vector(*row.vectors):
            raise AssertionError(
                f"coefficient at {row.exponent} disagrees with the minimal-pair kernel"
            )
    exponents = tuple(row.exponent for row in rows)
    for e in series.terms:
        if e not in exponents and not any(exp_below(f, e) for f in exponents):
            raise AssertionError(f"exponent {e} does not lie above a minimal pair exponent")
    entry = []
    for e in exponents:
        chain = check_chain_form(e, series.terms[e])
        monomials = [(x, u, v) for (u, v), x in zip(QUAD_SLOTS, chain) if x]
        if len(monomials) != 1:
            raise AssertionError(
                f"coefficient at {e} has {len(monomials)} chain monomials, not one"
            )
        entry.append((e, series.coefficient(e), monomials[0]))
    if len(entry) != 2:
        raise AssertionError(f"leading rows at {exponents} are not two")
    return tuple(entry)


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

    A budget that is not an ``int``, a route that is not a ``Route`` or a
    point that is not a ``ParamPoint`` raises ``TypeError``, in that order,
    before any other check and before any cache is read; a budget below
    ``MIN_PAIR_BUDGET`` raises ``ValueError``.  A repeated parameter value
    falls outside the family's hypothesis and gives an ``INCONCLUSIVE``
    certificate with no terms.  Distinct values are sorted into the
    canonical increasing chain, on the integer scale of ``qarith``, and the
    leading entry of the route (``_leading_data``) gives the two rows.  The
    budget is checked and recorded in the certificate; the entry serves
    every budget of at least ``MIN_PAIR_BUDGET``, so a certificate costs the
    same at every budget and differs between budgets only in its ``budget``
    field.  The two row keys ``e.A`` are compared: the row with the lesser
    key leads alone, and at equal keys both lead, in row order, summed at
    their common collapsed exponent.  A leader's value is its chain
    monomial ``coefficient * X[u] * X[v]`` at the chain numerators
    ``X = (a0, a1-a0, a2-a1, a3-a2)`` of the sorted ``A``, ``D^2`` times the
    coefficient's value.  Fractions are built only for the certificate's
    outputs.

    The theorem (the paper's): at a pairwise-distinct point the collapsed
    discrepancy leads at the least row key with a negative coefficient.
    Its premises are the entry's three checks, made once when it is built:
    the rows' coefficients are the minimal-pair kernels, every other term
    of the series lies strictly above a row, and each row's coefficient has
    no positive and some negative coefficient in the chain coordinates
    ``x1 = a``, ``x2 = b-a``, ``x3 = c-b``, ``x4 = d-c``
    (``check_chain_form``), all positive at the sorted point, so every
    leading value and a tie's sum are negative.  The one check made at
    every point, that the leaders' sum is nonzero, therefore cannot fire at
    a distinct point; it guards an entry altered after it was built.

    A warm call is one flat path: of the package it enters only this
    function and ``_sort_cleared``.  ``check_budget`` and ``check_route``
    run only for a budget whose type is not ``int`` or a route whose type is
    not ``Route``, and each record is built from one tuple, as its
    constructor builds it.
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
    X = (a0, a1 - a0, a2 - a1, a3 - a2)
    (e, poly, (c, u, v)), (f, fpoly, (fc, fu, fv)) = _leading_data(route)
    # each row's key e.A is D times its collapsed exponent
    n0, n1, n2, n3 = e
    key = n0 * a0 + n1 * a1 + n2 * a2 + n3 * a3
    n0, n1, n2, n3 = f
    fkey = n0 * a0 + n1 * a1 + n2 * a2 + n3 * a3
    tie = key == fkey
    if tie:  # both rows lead, and their values sum
        value, fvalue = c * X[u] * X[v], fc * X[fu] * X[fv]
        coefficient = value + fvalue
    else:  # the row with the lesser key leads alone
        if fkey < key:
            key, e, poly, c, u, v = fkey, f, fpoly, fc, fu, fv
        coefficient = c * X[u] * X[v]
    if not coefficient:
        raise AssertionError("collapsed series does not lead at the minimal pair exponent")
    square = D * D
    total = Fraction(coefficient, square)
    if tie:
        terms = (
            tuple.__new__(CertTerm, (e, poly, Fraction(value, square))),
            tuple.__new__(CertTerm, (f, fpoly, Fraction(fvalue, square))),
        )
    else:
        terms = (tuple.__new__(CertTerm, (e, poly, total)),)
    return tuple.__new__(Certificate, (
        tuple(p), ordered, permutation, budget,
        Fraction(key, D), terms, total, Verdict.NON_ISOMETRIC,
    ))
