import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from isopair import (
    FormalQSeries,
    Kernel,
    ParamPoint,
    ParamPolynomial,
    Route,
    build_family,
    delta_series,
    exp_below,
    rep_series,
    sigma,
    theta11,
)
from isopair.qarith import MONOS
from isopair.verification import LEADING_POLYNOMIALS, SCHIEMANN

from conftest import admissible_samples, collapse_points, fraction_collapse

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
        assert low.admissible and high.admissible
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


A, B, C, D = (ParamPolynomial.variable(i) for i in range(4))

_SYMS = sympy.symbols("a b c d")


def to_sympy(poly: ParamPolynomial):
    return sympy.expand(
        sum(
            sympy.Rational(coeff.numerator, coeff.denominator)
            * sympy.prod(s**m for s, m in zip(_SYMS, mono))
            for mono, coeff in poly.terms.items()
        )
    )


def random_poly(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.randint(0, 1) for _ in range(4))
        terms[mono] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return ParamPolynomial(terms)


class TestParamPolynomial:
    def test_leading_polynomials_expand_the_paper_formulas(self):
        a, b, c, d = _SYMS
        assert [to_sympy(poly) for poly in LEADING_POLYNOMIALS] == [
            sympy.expand(-12 * (b - a) * (d - c)),
            sympy.expand(-96 * a * (c - b)),
        ]

    def test_zero(self):
        assert ParamPolynomial.zero().evaluate(SCHIEMANN) == 0
        assert ParamPolynomial.zero().is_zero
        assert (A - A).is_zero

    def test_algebra_matches_sympy(self):
        rng = random.Random(17)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert to_sympy(p + q) == to_sympy(p) + to_sympy(q)
            assert to_sympy(p - q) == to_sympy(p) - to_sympy(q)
            assert to_sympy(p * q) == sympy.expand(to_sympy(p) * to_sympy(q))

    def test_evaluate_matches_sympy(self):
        rng = random.Random(18)
        point = ParamPoint(Fraction(1, 2), 2, Fraction(7, 3), 5)
        subs = dict(zip(_SYMS, [sympy.Rational(x.numerator, x.denominator) for x in point.coords]))
        for _ in range(20):
            p = random_poly(rng)
            got = p.evaluate(point)
            expected = to_sympy(p).subs(subs)
            assert sympy.Rational(got.numerator, got.denominator) == expected

    def test_no_zero_terms_stored(self):
        p = ParamPolynomial({(1, 0, 0, 0): 2, (0, 1, 0, 0): 0})
        assert list(p.terms) == [(1, 0, 0, 0)]

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            ParamPolynomial({(0, 0, 0, 0): 0.5})

    @pytest.mark.parametrize(
        "mono",
        [(-1, 0, 0, 0), (1, 0, 0, 0, 5), (1, 0, 0)],
        ids=["negative-power", "five-slots", "three-slots"],
    )
    def test_rejects_malformed_monomials(self, mono):
        with pytest.raises(ValueError, match="four non-negative integers"):
            ParamPolynomial({mono: 2})


def series(budget, terms):
    return FormalQSeries(budget, {e: ParamPolynomial.constant(c) for e, c in terms.items()})


class TestFormalQSeries:
    def test_add_identity_and_inverse(self):
        s = series(12, {(1, 0, 0, 0): 2, (0, 0, 0, 2): -3})
        assert s + FormalQSeries.empty(12) == s
        assert (s + s.scaled(-1)).is_zero

    def test_add_merges(self):
        s = series(4, {(1, 0, 0, 0): 2})
        t = series(4, {(1, 0, 0, 0): 3})
        assert (s + t) == series(4, {(1, 0, 0, 0): 5})

    def test_budget_mismatch(self):
        with pytest.raises(ValueError, match="budget"):
            series(4, {}) + series(5, {})

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            series(3, {(1, 1, 1, 1): 1})
        with pytest.raises(ValueError):
            FormalQSeries(-1)

    def test_collapse_merges_equal_exponents(self):
        s = series(36, {(10, 10, 2, 2): -432, (25, 5, 5, 1): -576})
        assert s.collapse(SCHIEMANN) == ((Fraction(144), Fraction(-1008)),)

    def test_collapse_empty(self):
        assert FormalQSeries.empty(10).collapse(SCHIEMANN) == ()

    def test_collapse_evaluates_coefficients(self):
        s = FormalQSeries(4, {(1, 0, 0, 0): B - A})
        assert s.collapse(SCHIEMANN) == ((Fraction(1), Fraction(6)),)

    def test_collapse_drops_cancellations(self):
        s = series(36, {(10, 10, 2, 2): 5, (25, 5, 5, 1): -5})
        assert s.collapse(SCHIEMANN) == ()  # both collapse to exponent 144

    def test_associative_commutative(self):
        rng = random.Random(23)

        def rand_series():
            terms = {}
            for _ in range(rng.randint(0, 6)):
                e = tuple(rng.randint(0, 2) for _ in range(4))
                terms[e] = rng.randint(-5, 5)
            return series(8, terms)

        for _ in range(30):
            s, t, u = rand_series(), rand_series(), rand_series()
            assert s + t == t + s
            assert (s + t) + u == s + (t + u)

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
                assert (s + t).collapse(p) == merge(s.collapse(p), t.collapse(p))


class TestParamPoint:
    def test_admissible_flag(self):
        assert ParamPoint(1, 2, 3, 4).admissible
        assert not ParamPoint(1, 1, 2, 3).admissible
        assert not ParamPoint(2, 1, 3, 4).admissible

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
            ParamPolynomial.constant(flag)

    def test_sorted(self):
        p = ParamPoint(19, 7, 1, 13)
        ordered, perm = p.sorted()
        assert ordered == SCHIEMANN
        assert perm == (2, 1, 3, 0)
        assert tuple(p.coords[i] for i in perm) == ordered.coords


COLLAPSE_POINTS = collapse_points(6, 200)


def random_degree_two_series(seed: int, budget: int) -> FormalQSeries:
    """Integer coefficients on every monomial of degree at most two,
    constant and linear ones included."""
    rng = random.Random(seed)
    terms = {}
    for _ in range(40):
        e = tuple(rng.randint(0, budget // 4) for _ in range(4))
        terms[e] = ParamPolynomial({m: rng.randint(-9, 9) for m in rng.sample(MONOS, 6)})
    return FormalQSeries(budget, terms)


@lru_cache(maxsize=None)
def oracle_series():
    fam = build_family()
    return {
        "delta-40": delta_series(40),
        "delta-80": delta_series(80),
        "delta-theta-40": delta_series(40, Route.FROM_THETA),
        "theta11-pairwise-24": theta11(fam.L1, 24, Kernel.PAIRWISE),
        "theta11-defining-24": theta11(fam.L1, 24, Kernel.DEFINING),
        "rep-L2-40": rep_series(fam.L2, 40),
        "negated-delta-40": delta_series(40).scaled(-1),
        "random-degree-two": random_degree_two_series(7, 16),
    }


ORACLE_NAMES = sorted(oracle_series())


class TestIntegerCollapse:
    def test_tie_points_tie(self):
        ties = COLLAPSE_POINTS[3::4]
        assert len(ties) == 50
        for p in ties:
            assert p.admissible
            assert sigma((10, 10, 2, 2), p) == sigma((25, 5, 5, 1), p)
        assert max(x.denominator for p in COLLAPSE_POINTS for x in p.coords) > 1

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
        again = FormalQSeries(series.budget, {e: series.coefficient(e) for e in series})
        assert again == series
        assert hash(again) == hash(series)


class TestIntegerForm:
    E = (1, 0, 0, 0)

    def test_vectors_and_polynomials_give_equal_series(self):
        rest = (0,) * (len(MONOS) - 1)
        from_poly = FormalQSeries(4, {self.E: Fraction(4, 2)})
        for series in (
            FormalQSeries.from_vectors(4, {self.E: (2, *rest)}),
            FormalQSeries.from_vectors(4, {self.E: [2, *rest]}),
            FormalQSeries(4, {self.E: 6}).scaled(Fraction(1, 3)),
        ):
            assert series == from_poly and hash(series) == hash(from_poly)
            assert series.terms == {self.E: (2, *rest)}
        assert from_poly != FormalQSeries(4, {self.E: -2})
        assert from_poly != FormalQSeries(5, {self.E: 2})

    def test_zero_vectors_and_zero_factor_give_the_empty_series(self):
        zero = (0,) * len(MONOS)
        empty = FormalQSeries.empty(4)
        assert FormalQSeries.from_vectors(4, {self.E: zero}) == empty
        assert FormalQSeries(4, {self.E: 1}).scaled(0) == empty
        assert (FormalQSeries(4, {self.E: A}) + FormalQSeries(4, {self.E: -A})) == empty
        assert empty.scaled(Fraction(1, 8)) == empty
        assert empty.terms == {} and hash(empty) == hash(FormalQSeries(4))

    def test_coefficient_keeps_its_monomials(self):
        poly = 3 * A * B - 5 * D + ParamPolynomial.constant(7)
        series = FormalQSeries(4, {self.E: poly})
        assert series.coefficient(self.E) == poly
        assert series.coefficient((0, 1, 0, 0)).is_zero

    def test_constructor_rejects_rational_coefficients(self):
        with pytest.raises(ValueError, match="not an integer"):
            FormalQSeries(4, {(1, 0, 0, 0): Fraction(1, 2)})
        with pytest.raises(ValueError, match="not an integer"):
            FormalQSeries(4, {self.E: 2 * A + Fraction(1, 3) * B * C})

    def test_scaled_divides_exactly_or_refuses(self):
        even = FormalQSeries(4, {self.E: 4 * A - 2 * B, (0, 1, 0, 0): 6 * C * D})
        assert even.scaled(Fraction(3, 2)) == FormalQSeries(
            4, {self.E: 6 * A - 3 * B, (0, 1, 0, 0): 9 * C * D}
        )
        odd = FormalQSeries(4, {self.E: 4 * A - 2 * B, (0, 1, 0, 0): 6 * C * D - 3 * B})
        for factor in (Fraction(1, 2), Fraction(-3, 2)):
            with pytest.raises(ValueError, match="not an integer"):
                odd.scaled(factor)

    def test_scaled_rejects_floats(self):
        with pytest.raises(TypeError):
            FormalQSeries(4, {self.E: 1}).scaled(0.5)

    def test_constructor_rejects_float_coefficients(self):
        with pytest.raises(TypeError):
            FormalQSeries(4, {self.E: 0.5})

    def test_budget_must_be_an_int(self):
        for budget in (2.5, 4.0, True):
            with pytest.raises(TypeError, match="budget must be an int"):
                FormalQSeries(budget, {self.E: 1})

    def test_constructor_rejects_degree_three(self):
        with pytest.raises(ValueError, match="degree"):
            FormalQSeries(4, {self.E: A * B * C})
        with pytest.raises(ValueError, match="degree"):
            FormalQSeries(4, {self.E: ParamPolynomial({(3, 0, 0, 0): 1})})
