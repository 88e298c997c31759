import copy
import os
import pickle
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from types import MappingProxyType

import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from isopair import (
    FormalQSeries,
    Kernel,
    ParamPoint,
    ParamPolynomial,
    Route,
    Verdict,
    build_family,
    certify,
    delta_series,
    exp_below,
    theta11,
)
from isopair.qarith import (
    QUAD_MONOS,
    QUAD_SLOTS,
    _cleared,
    _ratio,
    _sort_cleared,
    _weights,
    exact,
)
from isopair.discrepancy import LEADING_ENTRY
from isopair.verification import SCHIEMANN

from conftest import VARIABLES, Poly, add_series, admissible_samples, collapse_points, mono_vector
from conftest import poly_series, scale_series
from conftest import COPRIME, fraction_collapse, fraction_evaluate, integer_evaluate, sigma
from conftest import _compile, compiled_integer

expos = st.tuples(*(st.integers(0, 4) for _ in range(4)))


# independent relation, straight from the suffix-sum definition
def suffix_below(e, f):
    return e != f and all(sum(e[i:]) <= sum(f[i:]) for i in range(4))


class TestExpBelow:
    def test_examples(self):
        e, f = (1, 9, 1, 1), (16, 0, 4, 4)
        assert not exp_below(e, f) and not exp_below(f, e)
        assert not exp_below((0, 0, 0, 0), (0, 0, 0, 0))
        assert exp_below((10, 10, 2, 2), (2, 10, 2, 10))
        assert not exp_below((2, 10, 2, 10), (10, 10, 2, 2))

    @given(expos, expos)
    def test_matches_definition(self, e, f):
        assert exp_below(e, f) is suffix_below(e, f)

    def test_irreflexive_and_asymmetric(self):
        vectors = list(product(range(4), repeat=4))
        for e in vectors:
            assert not exp_below(e, e)
        for e in vectors:
            for f in vectors:
                assert not (exp_below(e, f) and exp_below(f, e))

    def test_transitive_exhaustive_small(self):
        vectors = list(product(range(3), repeat=4))
        below = {(e, f) for e in vectors for f in vectors if exp_below(e, f)}
        for e, f in below:
            for g in vectors:
                if (f, g) in below:
                    assert (e, g) in below

    @given(expos, expos, expos)
    def test_transitive_sampled(self, e, f, g):
        if exp_below(e, f) and exp_below(f, g):
            assert exp_below(e, g)


class TestSigma:
    def test_examples(self):
        assert sigma((10, 10, 2, 2), SCHIEMANN) == 144
        assert sigma((0, 0, 0, 0), SCHIEMANN) == 0
        assert sigma((25, 5, 5, 1), SCHIEMANN) == 144

    def test_forward_direction_is_exact(self):
        # a strict order relation forces strict sigma inequalities at every
        # admissible point
        samples = admissible_samples(11, 5)
        vectors = list(product(range(3), repeat=4))
        for e in vectors:
            for f in vectors:
                if exp_below(e, f):
                    assert all(sigma(e, p) < sigma(f, p) for p in samples)


class TestSigmaOrderConsistent:
    """A strict relation in the suffix-sum order holds exactly when the
    evaluated exponents compare the same way at every admissible point."""

    def test_comparable_pair(self):
        # (10,10,2,2) lies strictly below (2,10,10,2), so it is smaller at
        # every sample
        samples = admissible_samples(3, 20)
        e, f = (10, 10, 2, 2), (2, 10, 10, 2)
        assert exp_below(e, f)
        assert all(sigma(e, p) < sigma(f, p) for p in samples)

    def test_incomparable_pair_with_witnesses_on_both_sides(self):
        e, f = (1, 9, 1, 1), (16, 0, 4, 4)
        assert not exp_below(e, f) and not exp_below(f, e)
        low = ParamPoint(1, 7, 13, 19)  # sigma(e) = 96 < 144 = sigma(f)
        high = ParamPoint(1, 100, 101, 102)  # sigma(e) = 1104 > 925 = sigma(f)
        assert low == SCHIEMANN and high[0] < high[1] < high[2] < high[3]
        assert sigma(e, low) < sigma(f, low)
        assert sigma(e, high) > sigma(f, high)

    def test_equal_vectors(self):
        # equal evaluated exponents at every sample happen only for equal
        # vectors, which neither lies strictly below
        samples = admissible_samples(4, 2)
        vectors = list(product(range(3), repeat=4))
        for e in vectors:
            for f in vectors:
                if all(sigma(e, p) == sigma(f, p) for p in samples):
                    assert e == f and not exp_below(e, f)

    def test_reversed_unit_vectors(self):
        # the d-slot vector dominates the c-slot vector, not the other way
        samples = admissible_samples(5, 10)
        assert exp_below((0, 0, 1, 0), (0, 0, 0, 1))
        assert all(sigma((0, 0, 1, 0), p) < sigma((0, 0, 0, 1), p) for p in samples)


A, B, C, D = VARIABLES

_SYMS = sympy.symbols("a b c d")


def to_sympy(poly: ParamPolynomial):
    return sympy.expand(
        sum(
            coeff * sympy.prod(s**m for s, m in zip(_SYMS, mono))
            for mono, coeff in poly.terms.items()
        )
    )


def random_poly(rng):
    """Int coefficients on up to five quadratic monomials."""
    return Poly({mono: rng.randint(-9, 9) for mono in rng.sample(QUAD_MONOS, rng.randint(0, 5))})


# points with coprime and with common denominators, and an integer point
EVALUATION_POINTS = [
    COPRIME,
    ParamPoint(Fraction(3, 10), Fraction(7, 10), 2, Fraction(9, 10)),
    SCHIEMANN,
]


@lru_cache(maxsize=None)
def certified_terms() -> tuple:
    """(sorted point, term) for each term of ``certify`` at the evaluation
    points and 40 more, every fourth a tie and every second given reversed,
    so that both leading rows and ties are valued."""
    points = EVALUATION_POINTS + [
        ParamPoint(*reversed(p)) if i % 2 else p for i, p in enumerate(collapse_points(18, 40))
    ]
    out = []
    for point in points:
        cert = certify(point)
        out += [(ParamPoint(*cert.sorted_params), term) for term in cert.terms]
    # both rows lead somewhere, and some points tie
    assert {term.exponent_vector for _, term in out} == {(10, 10, 2, 2), (25, 5, 5, 1)}
    assert len(out) > len(points)
    return tuple(out)


class TestParamPolynomial:
    def test_leading_entry_expands_the_paper_formulas(self):
        # each stated polynomial is the paper's formula, and in the chain
        # coordinates a = x1, b = x1 + x2, c = x1 + x2 + x3, d = x1 + ... + x4
        # it is the stated monomial coefficient * x_u * x_v
        a, b, c, d = _SYMS
        x = sympy.symbols("x1:5")
        chain = dict(zip(_SYMS, (sum(x[: i + 1]) for i in range(4))))
        assert [to_sympy(poly) for _, poly, _ in LEADING_ENTRY] == [
            sympy.expand(-12 * (b - a) * (d - c)),
            sympy.expand(-96 * a * (c - b)),
        ]
        assert [sympy.expand(to_sympy(poly).subs(chain)) for _, poly, _ in LEADING_ENTRY] == [
            coefficient * x[u] * x[v] for _, _, (coefficient, u, v) in LEADING_ENTRY
        ]

    def test_zero(self):
        assert ParamPolynomial().is_zero
        assert (A - A).is_zero
        assert FormalQSeries(4).coefficient((0, 0, 0, 0)) == ParamPolynomial()

    def test_str_prints_zero_constants_and_unit_coefficients(self):
        assert str(ParamPolynomial()) == "0"
        poly = ParamPolynomial({(0, 0, 0, 0): 7, (1, 0, 0, 0): 1, (0, 1, 0, 0): -1, (0, 0, 1, 1): 3})
        assert str(poly) == "7 + 3*c*d - b + a"

    def test_algebra_matches_sympy(self):
        # the test-side arithmetic of the Fraction oracles
        rng = random.Random(17)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
            assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)
            assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))

    def test_evaluate_matches_sympy(self):
        # the package evaluates no polynomial: certify values each leading
        # row as a chain monomial, and each value is the row's polynomial
        # at the sorted point
        for sorted_point, term in certified_terms():
            subs = dict(zip(_SYMS, [sympy.Rational(x.numerator, x.denominator)
                                    for x in sorted_point]))
            expected = to_sympy(term.polynomial).subs(subs)
            got = term.value
            assert sympy.Rational(got.numerator, got.denominator) == expected, (sorted_point, term)

    def test_evaluate_matches_a_naive_fraction_product(self):
        for sorted_point, term in certified_terms():
            assert term.value == fraction_evaluate(term.polynomial, sorted_point), (sorted_point, term)

    def test_integer_evaluate_is_the_value_over_the_square_of_d(self):
        rng = random.Random(20)
        for _ in range(50):
            poly = ParamPolynomial({m: rng.randint(-30, 30) for m in rng.sample(QUAD_MONOS, 6)})
            for point in EVALUATION_POINTS:
                D, A = _cleared(point)
                value = compiled_integer(_compile(mono_vector(poly)), A)
                assert type(value) is int
                assert value == integer_evaluate(poly, D, A), (poly, point)
                assert value == D * D * fraction_evaluate(poly, point), (poly, point)

    def test_compile_pairs_each_term_with_its_slot(self):
        # a self-check of the test oracle ``_compile``: the package compiles
        # no polynomial
        assert _compile(mono_vector(ParamPolynomial())) == ()
        for point in (SCHIEMANN, ParamPoint(Fraction(1, 7), Fraction(2, 9), 5, 13)):
            D, numerators = _cleared(point)
            value = compiled_integer(_compile(mono_vector(ParamPolynomial())), numerators)
            assert type(value) is int and value == 0
        rng = random.Random(21)
        for _ in range(50):
            poly = random_poly(rng)
            triples = _compile(mono_vector(poly))
            slots = [QUAD_SLOTS.index((s, t)) for _, s, t in triples]
            terms = {QUAD_MONOS[slot]: coeff for (coeff, _, _), slot in zip(triples, slots)}
            assert terms == poly.terms
            assert len(triples) == len(poly.terms)
            # in slot order
            assert slots == sorted(slots)

    def test_exact_returns_a_fraction_unchanged(self):
        x = Fraction(-22, 7)
        assert exact(x) is x
        assert exact(3) == 3 and type(exact(3)) is Fraction

    def test_no_zero_terms_stored(self):
        p = ParamPolynomial({(1, 0, 0, 0): 2, (0, 1, 0, 0): 0})
        assert list(p.terms) == [(1, 0, 0, 0)]

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ParamPolynomial({(0, 0, 0, 0): 0.5})

    @pytest.mark.parametrize("coeff", [Fraction(1, 2), Fraction(3)], ids=["half", "three"])
    def test_rejects_fractions(self, coeff):
        # a coefficient is an int, even where a Fraction's value is integral
        with pytest.raises(TypeError, match="coefficient must be an int"):
            ParamPolynomial({(1, 0, 0, 0): coeff})

    @pytest.mark.parametrize("mono", [(1, 1, 1, 0), (0, 0, 0, 3)], ids=["abc", "d-cubed"])
    def test_rejects_a_monomial_of_degree_three(self, mono):
        with pytest.raises(ValueError, match="degree above two"):
            ParamPolynomial({mono: 1})

    @pytest.mark.parametrize(
        "mono",
        [(-1, 0, 0, 0), (1, 0, 0, 0, 5), (1, 0, 0)],
        ids=["negative-power", "five-slots", "three-slots"],
    )
    def test_rejects_malformed_monomials(self, mono):
        with pytest.raises(ValueError, match="four non-negative integers"):
            ParamPolynomial({mono: 2})

    def test_rejects_pairs_for_a_mapping(self):
        with pytest.raises(TypeError, match=r"^terms must be a mapping, got list$"):
            ParamPolynomial([((1, 0, 0, 0), 1)])


def _assign(poly):
    poly.terms[(2, 0, 0, 0)] = 7


def _delete(poly):
    del poly.terms[next(iter(poly.terms))]


def _clear(poly):
    poly.terms.clear()


def _rebind(poly):
    poly.terms = {(2, 0, 0, 0): 7}


def _unbind(poly):
    del poly.terms


@pytest.fixture
def leading_entry_kept():
    """The leading entry's terms, put back after the test if it changed them."""
    kept = [(poly, dict(poly.terms)) for _, poly, _ in LEADING_ENTRY]
    yield kept
    for poly, terms in kept:
        if dict(getattr(poly, "terms", {})) != terms:
            object.__setattr__(poly, "terms", terms)


class TestReadOnlyPolynomial:
    """Every certificate shares the polynomials of ``LEADING_ENTRY``, so none
    of them can be changed through a certificate."""

    @pytest.mark.parametrize(
        "change, error",
        [(_assign, TypeError), (_delete, TypeError), (_clear, AttributeError),
         (_rebind, AttributeError), (_unbind, AttributeError)],
        ids=["assign", "del", "clear", "rebind", "unbind"],
    )
    def test_a_certificates_polynomial_refuses_a_change(self, leading_entry_kept, change, error):
        following = certify(ParamPoint(1, 2, 3, 5)).to_json_dict()
        entry = [str(poly) for _, poly, _ in LEADING_ENTRY]
        with pytest.raises(error):
            change(certify(ParamPoint(1, 2, 3, 4)).terms[0].polynomial)
        assert certify(ParamPoint(1, 2, 3, 5)).to_json_dict() == following
        assert [str(poly) for _, poly, _ in LEADING_ENTRY] == entry
        assert [dict(poly.terms) for poly, _ in leading_entry_kept] == [
            terms for _, terms in leading_entry_kept]

    def test_the_constructor_keeps_no_reference_to_its_mapping(self):
        terms = {(1, 0, 0, 0): 2}
        poly = ParamPolynomial(terms)
        terms[(1, 0, 0, 0)] = 3
        assert poly.terms == {(1, 0, 0, 0): 2}

    def test_views_keep_their_results(self):
        poly = LEADING_ENTRY[1][1]
        assert poly.as_pairs() == (((1, 0, 1, 0), -96), ((1, 1, 0, 0), 96))
        assert repr(poly) == "ParamPolynomial(-96*a*c + 96*a*b)"
        assert poly == ParamPolynomial({(1, 1, 0, 0): 96, (1, 0, 1, 0): -96})
        assert hash(poly) == hash(poly.as_pairs())

    def test_a_certificate_pickles_and_copies(self):
        cert = certify(SCHIEMANN)
        assert pickle.loads(pickle.dumps(cert)) == cert
        assert copy.deepcopy(cert) == cert
        assert type(copy.copy(cert.terms[0].polynomial).terms) is MappingProxyType


class TestRatio:
    """``_ratio(n, d)`` is ``Fraction(n, d)``, built from its reduced pair."""

    @given(st.integers() | st.integers(-(10**4000), 10**4000),
           st.integers(1, 10**6) | st.integers(1, 10**4000))
    @example(0, 1)
    @example(0, 7)
    @example(-6, 4)
    @example(-(10**3000) - 1, 10**2000)
    def test_is_the_fraction_of_the_pair(self, n, d):
        x, y = _ratio(n, d), Fraction(n, d)
        assert type(x) is type(y) is Fraction
        assert (x._numerator, x._denominator) == (y._numerator, y._denominator)
        assert x == y and hash(x) == hash(y) and str(x) == str(y)


REST = (0,) * (len(QUAD_MONOS) - 1)


def series(budget, constants):
    """Each int on the unit quadratic term ``a^2``, which is 1 at ``SCHIEMANN``."""
    return FormalQSeries(budget, {e: (c, *REST) for e, c in constants.items()})


class TestFormalQSeries:
    def test_budget_enforced(self):
        with pytest.raises(ValueError, match=r"exponent \(1, 1, 1, 1\) exceeds budget 3"):
            series(3, {(1, 1, 1, 1): 1})
        with pytest.raises(ValueError, match="budget must be non-negative"):
            FormalQSeries(-1)

    def test_collapse_merges_equal_exponents(self):
        s = series(36, {(10, 10, 2, 2): -432, (25, 5, 5, 1): -576})
        assert s.collapse(SCHIEMANN) == ((Fraction(144), Fraction(-1008)),)

    def test_collapse_empty(self):
        assert FormalQSeries(10).collapse(SCHIEMANN) == ()

    def test_collapse_evaluates_coefficients(self):
        s = poly_series(4, {(1, 0, 0, 0): A * (B - A)})
        assert s.collapse(SCHIEMANN) == ((Fraction(1), Fraction(6)),)

    def test_collapse_drops_cancellations(self):
        s = series(36, {(10, 10, 2, 2): 5, (25, 5, 5, 1): -5})
        assert s.collapse(SCHIEMANN) == ()  # both collapse to exponent 144

    def test_collapse_commutes_with_add(self):
        rng = random.Random(29)
        samples = admissible_samples(31, 3)

        def rand_series():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = tuple(rng.randint(0, 3) for _ in range(4))
                terms[e] = rng.randint(-5, 5)
            return series(12, terms)

        def merge(left, right):
            acc = {}
            for x, c in left + right:
                acc[x] = acc.get(x, Fraction(0)) + c
            return tuple(sorted((x, c) for x, c in acc.items() if c))

        for _ in range(20):
            s, t = rand_series(), rand_series()
            for p in samples:
                assert add_series(s, t).collapse(p) == merge(s.collapse(p), t.collapse(p))


class TestParamPoint:
    def test_certify_sorts_into_the_increasing_chain(self):
        for p in (ParamPoint(1, 2, 3, 4), ParamPoint(1, 1, 2, 3), ParamPoint(2, 1, 3, 4)):
            a, b, c, d = certify(p).sorted_params
            assert a <= b <= c <= d
            # a strict chain is what certify needs to decide the pair
            assert (a < b < c < d) is (certify(p).verdict is Verdict.NON_ISOMETRIC)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ParamPoint(0, 1, 2, 3)
        with pytest.raises(ValueError):
            ParamPoint(1, -1, 2, 3)
        with pytest.raises(ValueError):
            ParamPoint(1, 2, 3, "-1/2")

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ParamPoint(1.5, 2, 3, 4)
        with pytest.raises(TypeError):
            ParamPoint(1, 2, 3, 4.0)

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bools(self, flag):
        # True would otherwise pass as the parameter 1, as in (True, 2, 3, 4)
        with pytest.raises(TypeError, match="bool"):
            ParamPoint(flag, 2, 3, 4)
        with pytest.raises(TypeError, match="bool"):
            ParamPoint(1, 2, 3, flag)
        with pytest.raises(TypeError, match="bool"):
            ParamPolynomial({(0, 0, 0, 0): flag})
        # nor is a bool an exponent of a monomial
        for mono in ((flag, 0, 0, 0), (0, 0, 0, flag)):
            with pytest.raises(ValueError, match="four non-negative integers"):
                ParamPolynomial({mono: 1})

    def test_sort_cleared_gives_the_point_of_the_sorted_values(self):
        rng = random.Random(23)
        for _ in range(100):
            values = [Fraction(rng.randint(1, 40), rng.randint(1, 9)) for _ in range(4)]
            ordered, perm, D, A = _sort_cleared(ParamPoint(*values))
            assert type(ordered) is tuple
            assert ordered == ParamPoint(*sorted(values))
            assert tuple(values[i] for i in perm) == ordered
            assert (D, list(A)) == _cleared(ParamPoint(*ordered))

    def test_certify_records_the_permutation(self):
        p = ParamPoint(19, 7, 1, 13)
        cert = certify(p)
        assert cert.sorted_params == SCHIEMANN
        assert cert.permutation == (2, 1, 3, 0)
        assert tuple(p[i] for i in cert.permutation) == cert.sorted_params

    def test_fraction_keeps_its_integers_in_two_slots(self):
        # the per-point path reads these slots (the module docstring)
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        assert isinstance(Fraction.__dict__["numerator"], property)
        assert isinstance(Fraction.__dict__["denominator"], property)
        x = Fraction(-6, 4)
        assert (x._numerator, x._denominator) == (-3, 2) == x.as_integer_ratio()

    def test_a_warm_point_enters_no_fraction_accessor(self):
        accessors = {"numerator", "denominator", "as_integer_ratio"}
        for values in (tuple(SCHIEMANN), tuple(COPRIME), (Fraction(19), Fraction(7, 3), 1, 13)):
            certify(ParamPoint(*values), 40)
            entered = set()

            def profile(frame, event, arg):
                code = frame.f_code
                if event == "call" and os.path.basename(code.co_filename) == "fractions.py":
                    entered.add(code.co_name)

            sys.setprofile(profile)
            try:
                cert = certify(ParamPoint(*values), 40)
                _cleared(cert.params)
            finally:
                sys.setprofile(None)
            assert cert.verdict is Verdict.NON_ISOMETRIC
            assert not entered & accessors, (values, entered)

    @pytest.mark.parametrize("position", range(4))
    def test_rejects_a_nonpositive_fraction_anywhere(self, position):
        # four Fractions skip the coercion, and meet the same check
        for bad in (Fraction(0), Fraction(-1, 2)):
            values = [Fraction(1, 2), Fraction(2), Fraction(3), Fraction(4)]
            values[position] = bad
            shown = re.escape("(" + ", ".join(map(str, values)) + ")")
            with pytest.raises(ValueError, match=rf"^parameters must be positive, got {shown}$"):
                ParamPoint(*values)


COLLAPSE_POINTS = collapse_points(6, 200)


def random_degree_two_series(seed: int, budget: int) -> FormalQSeries:
    """Integer coefficients on six of the ten quadratic monomials."""
    rng = random.Random(seed)
    terms = {}
    for _ in range(40):
        e = tuple(rng.randint(0, budget // 4) for _ in range(4))
        terms[e] = ParamPolynomial({m: rng.randint(-9, 9) for m in rng.sample(QUAD_MONOS, 6)})
    return poly_series(budget, terms)


@lru_cache(maxsize=None)
def oracle_series():
    fam = build_family()
    return {
        "delta-40": delta_series(40),
        "delta-80": delta_series(80),
        "delta-theta-40": delta_series(40, Route.FROM_THETA),
        "theta11-pairwise-24": theta11(fam.L1, 24, Kernel.PAIRWISE),
        "theta11-defining-24": theta11(fam.L1, 24, Kernel.DEFINING),
        "negated-delta-40": scale_series(delta_series(40), -1),
        "random-degree-two": random_degree_two_series(7, 16),
    }


ORACLE_NAMES = sorted(oracle_series())


class TestIntegerCollapse:
    def test_tie_points_tie(self):
        ties = COLLAPSE_POINTS[3::4]
        assert len(ties) == 50
        for p in ties:
            assert p[0] < p[1] < p[2] < p[3]
            assert sigma((10, 10, 2, 2), p) == sigma((25, 5, 5, 1), p)
        assert max(x.denominator for p in COLLAPSE_POINTS for x in p) > 1

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_matches_the_fraction_oracle(self, name):
        series = oracle_series()[name]
        assert not series.is_zero
        for p in COLLAPSE_POINTS:
            assert series.collapse(p) == fraction_collapse(series, p), (name, p)

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_collapse_returns_fractions(self, name):
        series = oracle_series()[name]
        for p in (SCHIEMANN, ParamPoint(Fraction(1, 2), Fraction(5, 3), 7, Fraction(41, 4))):
            collapsed = series.collapse(p)
            assert collapsed
            for x, c in collapsed:
                assert type(x) is Fraction and type(c) is Fraction

    @pytest.mark.parametrize("name", ORACLE_NAMES)
    def test_round_trip_through_polynomials(self, name):
        series = oracle_series()[name]
        again = poly_series(series.budget, {e: series.coefficient(e) for e in series})
        assert again == series
        assert hash(again) == hash(series)


class TestIntegerForm:
    E = (1, 0, 0, 0)

    def test_checked_and_trusted_vectors_give_equal_series(self):
        checked = FormalQSeries(4, {self.E: [2, *REST]})
        for series in (
            FormalQSeries(4, {self.E: (2, *REST)}),
            FormalQSeries._of_terms(4, {self.E: (2, *REST)}),
        ):
            assert series == checked and hash(series) == hash(checked)
            assert series.terms == {self.E: (2, *REST)}
        assert checked != FormalQSeries(4, {self.E: (-2, *REST)})
        assert checked != FormalQSeries(5, {self.E: (2, *REST)})

    def test_zero_vectors_give_the_empty_series(self):
        zero = (0,) * len(QUAD_MONOS)
        empty = FormalQSeries(4)
        assert FormalQSeries(4, {self.E: zero}) == empty
        assert empty.terms == {} and hash(empty) == hash(FormalQSeries(4))

    def test_coefficient_keeps_its_monomials(self):
        poly = 3 * A * B - 5 * D * D + 7 * A * C
        series = poly_series(4, {self.E: poly})
        assert series.coefficient(self.E) == poly
        assert series.coefficient((0, 1, 0, 0)).is_zero

    @pytest.mark.parametrize(
        "expo, vector",
        [(E, (Fraction(1, 2), *REST)), (E, (0.5, *REST)), (E, (True, *REST)), (E, (1, *REST, 1)),
         ((1, 0, -1, 0), (1, *REST)), ((True, 0, 0, 0), (1, *REST)), (E, 5)],
        ids=["rational", "float", "bool", "eleven-slots", "malformed-exponent", "bool-exponent",
             "number"],
    )
    def test_constructor_refuses(self, expo, vector):
        # a rational is refused, not rounded; an eleventh slot would be a
        # monomial of degree three
        with pytest.raises(ValueError, match="10 ints on QUAD_MONOS|four non-negative integers"):
            FormalQSeries(4, {expo: vector})

    def test_refuses_fifteen_slots_by_name(self):
        # the constant and four linear slots come before the quadratic ones
        # in a fifteen-entry vector; a series holds no such slots
        message = r"^coefficient at \(1, 0, 0, 0\) must be 10 ints on QUAD_MONOS, got "
        with pytest.raises(ValueError, match=message):
            FormalQSeries(4, {self.E: (1,) * 15})

    @pytest.mark.parametrize(
        "expo",
        [(10.0, 10, 2, 2), (10, 10, 2), (-1, 0, 0, 0)],
        ids=["float-entry", "three-entries", "negative-entry"],
    )
    def test_coefficient_refuses_a_malformed_exponent(self, expo):
        # a float key would hash equal to (10, 10, 2, 2), and the others
        # would read as the zero polynomial
        series = delta_series(24)
        assert not series.coefficient((10, 10, 2, 2)).is_zero
        with pytest.raises(ValueError, match="four non-negative integers"):
            series.coefficient(expo)

    def test_constructor_refuses_pairs_for_a_mapping(self):
        with pytest.raises(TypeError, match=r"^vectors must be a mapping, got list$"):
            FormalQSeries(40, [(self.E, (1, *REST))])

    def test_budget_must_be_an_int(self):
        for budget in (2.5, 4.0, True):
            with pytest.raises(TypeError, match="budget must be an int"):
                FormalQSeries(budget, {self.E: (1, *REST)})


# points for the integer primitives at a point: an integer point, COPRIME in
# two orders, denominators near 1000, and repeated values, whose cleared
# numerators tie after sorting
PRIMITIVE_POINTS = {
    "schiemann": SCHIEMANN,
    "coprime": COPRIME,
    "coprime-reversed": ParamPoint(*reversed(COPRIME)),
    "near-1000": ParamPoint(
        Fraction(1000, 991), Fraction(1, 997), Fraction(999, 1000), Fraction(500, 999)
    ),
    "thousandth": ParamPoint(Fraction(1, 1000), 1, Fraction(1001, 1000), 2),
    "repeated": ParamPoint(Fraction(7, 2), 1, Fraction(14, 4), 9),
    "tied-pairs": ParamPoint(3, Fraction(2, 3), 3, Fraction(4, 6)),
    "all-equal": ParamPoint(2, 2, 2, 2),
}
PRIMITIVE_IDS = sorted(PRIMITIVE_POINTS)


def single_monomials():
    """One polynomial per monomial of ``QUAD_MONOS``, each with a
    coefficient of its own sign and size."""
    return [ParamPolynomial({m: (-1) ** i * (i + 2)}) for i, m in enumerate(QUAD_MONOS)]


# a product built by the test-side arithmetic of ``conftest.Poly``, which
# makes polynomials through ``__new__`` and sets only ``terms``
A_TIMES_B_MINUS_C = A * (B - 3 * C)


class TestPointPrimitives:
    """``_cleared``, ``_sort_cleared``, ``_evaluate`` and ``_collapse``
    against the Fraction oracles of ``conftest``."""

    @pytest.mark.parametrize("name", PRIMITIVE_IDS)
    def test_cleared_is_the_least_common_denominator(self, name):
        p = PRIMITIVE_POINTS[name]
        D, A = _cleared(p)
        assert type(D) is int and all(type(x) is int for x in A)
        assert [Fraction(x, D) for x in A] == list(p)
        # D clears every coordinate, and no proper divisor of D does
        assert D > 0 and gcd(D, *A) == 1

    @pytest.mark.parametrize("name", PRIMITIVE_IDS)
    def test_sort_cleared_sorts_stably(self, name):
        p = PRIMITIVE_POINTS[name]
        ordered, perm, D, A = _sort_cleared(p)
        # Python's sort is stable: tied coordinates keep their positions' order
        assert perm == tuple(sorted(range(4), key=p.__getitem__))
        assert type(ordered) is tuple and ordered == tuple(sorted(p))
        assert (D, list(A)) == _cleared(ParamPoint(*ordered)) and list(A) == sorted(A)

    def test_tied_numerators_keep_their_positions_order(self):
        ordered, perm, D, A = _sort_cleared(PRIMITIVE_POINTS["tied-pairs"])
        assert perm == (1, 3, 0, 2)
        assert (D, A) == (3, (2, 2, 9, 9))
        assert ordered == (Fraction(2, 3), Fraction(2, 3), 3, 3)

    @pytest.mark.parametrize("name", PRIMITIVE_IDS)
    def test_evaluate_matches_the_fraction_oracle(self, name):
        p = PRIMITIVE_POINTS[name]
        D, A = _cleared(p)
        rng = random.Random(name)
        polys = single_monomials() + [
            ParamPolynomial({m: rng.randint(-99, 99) for m in rng.sample(QUAD_MONOS, k)})
            for k in (2, 5, 10)
        ]
        for poly in polys + [ParamPolynomial(), A_TIMES_B_MINUS_C]:
            value = compiled_integer(_compile(mono_vector(poly)), A)
            assert type(value) is int
            assert value == integer_evaluate(poly, D, A), poly
            assert Fraction(value, D * D) == fraction_evaluate(poly, p), poly

    @pytest.mark.parametrize("name", PRIMITIVE_IDS)
    def test_collapse_matches_the_fraction_oracle(self, name):
        p = PRIMITIVE_POINTS[name]
        D, A = _cleared(p)
        # each monomial alone at one of the first ten nonzero 0/1 exponents,
        # several of which merge where coordinates tie
        exponents = list(product(range(2), repeat=4))[1:]
        monomials = poly_series(4, dict(zip(exponents, single_monomials())))
        assert len(monomials) == len(QUAD_MONOS)
        for series in (monomials, *map(oracle_series().get, ("delta-40", "random-degree-two"))):
            collapsed = series._collapse(A)
            assert all(type(k) is int and type(v) is int for k, v in collapsed)
            fractions = tuple((Fraction(k, D), Fraction(v, D * D)) for k, v in collapsed)
            assert fractions == fraction_collapse(series, p)

    @pytest.mark.parametrize("name", PRIMITIVE_IDS)
    def test_compiled_triples_agree_with_the_weights(self, name):
        # the triples summed over ``A``, and ``_collapse``'s dot product of a
        # vector with ``_weights(A)``: the two scales agree on every vector
        _, A = _cleared(PRIMITIVE_POINTS[name])
        W = _weights(A)
        assert len(W) == len(QUAD_MONOS)
        rng = random.Random(name)
        vectors = [mono_vector(poly) for poly in single_monomials()] + [
            [rng.randint(-99, 99) for _ in QUAD_MONOS] for _ in range(20)
        ]
        for vector in vectors:
            value = compiled_integer(_compile(vector), A)
            assert type(value) is int
            assert value == sum(w * x for w, x in zip(W, vector)), vector

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [0, -3, "-1/2"], ids=["zero", "negative", "negative-half"])
    def test_param_point_refuses_a_nonpositive_coordinate_anywhere(self, position, bad):
        values = [Fraction(1, 2), 2, 3, 4]
        values[position] = bad
        shown = re.escape("(" + ", ".join(str(Fraction(x)) for x in values) + ")")
        with pytest.raises(ValueError, match=rf"^parameters must be positive, got {shown}$"):
            ParamPoint(*values)

