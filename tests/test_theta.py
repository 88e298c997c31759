import itertools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from isopair import (
    K4,
    Kernel,
    Lattice,
    ParamPoint,
    build_family,
    collapse_counts,
    rep_series,
    theta11,
)
from isopair.discrepancy import Route, delta_series
from isopair.theta import QUAD_MONOS, defining_coeffs, pairwise_coeffs
from isopair.verification import FORM_PROBES, SCHIEMANN

from conftest import (
    COPRIME,
    admissible_samples,
    evaluate,
    fraction_pairwise_kernel,
    fraction_theta11,
    inner_poly,
    loop_defining_coeffs,
    loop_pairwise_coeffs,
    norm_poly,
    sigma,
)

VECTORS = st.tuples(*[st.integers(-9, 9)] * 4)
P = sympy.symbols("a b c d")
L_SYMS, K_SYMS = sympy.symbols("l0:4"), sympy.symbols("k0:4")


def quad_coeffs(expr) -> list[int]:
    """The coefficients of a homogeneous quadratic sympy expression in
    (a, b, c, d), in the order of ``QUAD_MONOS``."""
    poly = sympy.Poly(sympy.expand(expr), *P)
    assert poly.is_zero or poly.homogeneous_order() == 2, poly
    return [int(poly.coeff_monomial(mono)) for mono in QUAD_MONOS]


# the representation numbers of both lattices at Schiemann's point, by
# norm, from the vectors within budget 40
SCHIEMANN_SPECTRUM_40 = {
    0: 1, 48: 2, 96: 4, 120: 4, 144: 4, 168: 4, 192: 4, 216: 4, 240: 4,
    288: 2, 312: 4, 336: 2, 360: 14, 384: 2, 408: 2, 504: 4, 552: 2, 600: 2,
}


class TestRepSeries:
    def test_zero_vector_count(self):
        for lat in build_family():
            assert rep_series(lat, 8)[(0, 0, 0, 0)] == 1

    @pytest.mark.parametrize("budget", [8, 24, 40])
    def test_counts_are_ints_that_sum_to_the_shell(self, budget):
        for lat in build_family():
            counts = rep_series(lat, budget)
            assert all(type(n) is int and n > 0 for n in counts.values())
            assert sum(counts.values()) == len(lat.vectors(budget))

    def test_collapse_at_schiemann_keeps_its_values(self):
        fam = build_family()
        for lat in (fam.L1, fam.L2):
            collapsed = collapse_counts(rep_series(lat, 40), SCHIEMANN)
            assert dict(collapsed) == SCHIEMANN_SPECTRUM_40
            assert all(type(x) is Fraction and type(n) is int for x, n in collapsed)

    def test_collapse_matches_the_fraction_oracle(self):
        counts = rep_series(build_family().L1, 40)
        for p in [COPRIME, ParamPoint(1, 2, 3, 4)] + admissible_samples(61, 5):
            merged = {}
            for e, n in counts.items():
                merged[sigma(e, p)] = merged.get(sigma(e, p), 0) + n
            assert collapse_counts(counts, p) == tuple(sorted(merged.items())), p

    def test_collapsed_spectrum_of_l1(self):
        fam = build_family()
        collapsed = collapse_counts(rep_series(fam.L1, 12), SCHIEMANN)
        assert collapsed == (
            (Fraction(0), Fraction(1)),
            (Fraction(48), Fraction(2)),
            (Fraction(96), Fraction(2)),
            (Fraction(144), Fraction(2)),
            (Fraction(192), Fraction(2)),
        )

    def test_norm_48_realized_by_one_sign_pair(self):
        fam = build_family()
        vectors = [v for v in fam.L1.vectors(12) if evaluate(norm_poly(v), SCHIEMANN) == 48]
        assert sorted(vectors) == [(-3, -1, 1, 1), (3, 1, -1, -1)]

    def test_pair_is_isospectral(self):
        fam = build_family()
        s1, s2 = rep_series(fam.L1, 24), rep_series(fam.L2, 24)
        assert s1 == s2
        for p in [SCHIEMANN, ParamPoint(1, 2, 3, 4)] + admissible_samples(67, 5):
            assert collapse_counts(s1, p) == collapse_counts(s2, p)

    def test_budget_completeness_guarantee(self):
        # with a = 1 every collapsed exponent <= T is already complete at
        # budget T, since the evaluated exponent dominates the coordinate
        # square sum a-fold
        fam = build_family()
        small = collapse_counts(rep_series(fam.L1, 40), SCHIEMANN)
        large = collapse_counts(rep_series(fam.L1, 48), SCHIEMANN)
        cut = tuple(entry for entry in large if entry[0] <= 40)
        assert tuple(entry for entry in small if entry[0] <= 40) == cut


class TestKernels:
    def test_angle_form(self):
        # 4*(4cos^2(angle) - 1)*|l|^2*|k|^2 equals the pairwise kernel
        rng = random.Random(73)
        samples = admissible_samples(79, 3)
        for _ in range(50):
            l = tuple(rng.randint(-4, 4) for _ in range(4))
            k = tuple(rng.randint(-4, 4) for _ in range(4))
            if not any(l) or not any(k):
                continue
            for p in samples:
                nl, nk = evaluate(norm_poly(l), p), evaluate(norm_poly(k), p)
                cos2 = evaluate(inner_poly(l, k), p) ** 2 / (nl * nk)
                assert 4 * (4 * cos2 - 1) * nl * nk == evaluate(fraction_pairwise_kernel(l, k), p)

    @pytest.mark.parametrize("coeffs", [defining_coeffs, pairwise_coeffs], ids=lambda f: f.__name__)
    def test_kernel_is_a_form_of_degree_2_2(self, coeffs):
        # what makes agreement at the e_i and e_i + e_j, the 100 probe pairs
        # of the kernel-identity anchor, agreement at every pair
        assert sorted(FORM_PROBES) == sorted(
            v for v in itertools.product((0, 1), repeat=4) if 1 <= sum(v) <= 2
        )
        for coeff in coeffs(L_SYMS, K_SYMS):
            poly = sympy.Poly(sympy.expand(coeff), *L_SYMS, *K_SYMS)
            assert {(sum(m[:4]), sum(m[4:])) for m in poly.monoms()} == {(2, 2)}

    def test_kernels_agree_as_polynomials(self):
        defining = [sympy.expand(c) for c in defining_coeffs(L_SYMS, K_SYMS)]
        assert defining == [sympy.expand(c) for c in pairwise_coeffs(L_SYMS, K_SYMS)]

    def test_kernels_match_the_loop_oracles(self):
        vectors = build_family().L1.vectors(36) + FORM_PROBES
        for l in vectors:
            for k in vectors:
                assert pairwise_coeffs(l, k) == loop_pairwise_coeffs(l, k), (l, k)
                assert defining_coeffs(l, k) == loop_defining_coeffs(l, k), (l, k)

    def test_zero_pair(self):
        zero = (0, 0, 0, 0)
        assert not any(pairwise_coeffs(zero, zero))
        assert not any(defining_coeffs(zero, zero))

    @given(VECTORS, VECTORS)
    def test_pairwise_coeffs_expand_the_closed_form(self, l, k):
        inner = sum(p * x * y for p, x, y in zip(P, l, k))
        norm_l = sum(p * x * x for p, x in zip(P, l))
        norm_k = sum(p * y * y for p, y in zip(P, k))
        assert pairwise_coeffs(l, k) == quad_coeffs(16 * inner**2 - 4 * norm_l * norm_k)

    @given(VECTORS, VECTORS)
    def test_defining_coeffs_expand_the_definition(self, l, k):
        norm_l = sum(p * x * x for p, x in zip(P, l))
        norm_k = sum(p * y * y for p, y in zip(P, k))
        cross = sum(
            32 * P[i] * P[j] * l[i] * l[j] * k[i] * k[j] for i in range(4) for j in range(i + 1, 4)
        )
        harmonic = sum(
            (4 * P[i] * l[i] ** 2 - norm_l) * (4 * P[i] * k[i] ** 2 - norm_k) for i in range(4)
        )
        assert defining_coeffs(l, k) == quad_coeffs(cross + harmonic)


def image(lattice, g):
    """The image of a lattice under a four-group element, diagonal here."""
    return Lattice(tuple(tuple(d * x for d, x in zip(g.diag, gen)) for gen in lattice.generators))


class TestTheta11:
    @pytest.mark.parametrize("budget", [12, 24, 36])
    @pytest.mark.parametrize("kernel", list(Kernel), ids=lambda k: k.value)
    @pytest.mark.parametrize("name", ["L1", "L2"])
    def test_matches_the_fraction_oracle(self, name, kernel, budget):
        lattice = getattr(build_family(), name)
        assert theta11(lattice, budget, kernel) == fraction_theta11(lattice, budget, kernel)

    def test_kernels_give_equal_series(self):
        fam = build_family()
        assert theta11(fam.L1, 24, Kernel.DEFINING) == theta11(fam.L1, 24, Kernel.PAIRWISE)
        assert theta11(fam.L2, 24, Kernel.DEFINING) == theta11(fam.L2, 24, Kernel.PAIRWISE)

    def test_no_constant_term(self):
        fam = build_family()
        series = theta11(fam.L1, 12)
        assert series.coefficient((0, 0, 0, 0)).is_zero

    def test_invariant_under_the_four_group(self):
        fam = build_family()
        base = theta11(fam.L1, 24)
        assert not base.is_zero
        for g in K4:
            assert theta11(image(fam.L1, g), 24) == base

    def test_truncation_consistency(self):
        fam = build_family()
        longer = theta11(fam.L1, 36).terms
        assert {e: v for e, v in longer.items() if sum(e) <= 24} == theta11(fam.L1, 24).terms

    def test_transformed_lattice_differs_as_a_set(self):
        # the four-group moves L1 (it permutes the codes), yet the invariant
        # is unchanged; this guards against the invariance test being vacuous
        fam = build_family()
        assert image(fam.L1, K4[1]) != fam.L1


class TestEvaluateAt:
    """Behaviour at the cusp q -> 0, where the lowest collapsed exponent
    dominates, stated with exact coefficients."""

    def test_rep_series_tends_to_one(self):
        fam = build_family()
        collapsed = collapse_counts(rep_series(fam.L1, 24), SCHIEMANN)
        assert collapsed[0] == (0, 1)
        assert all(x > 0 for x, _ in collapsed[1:])

    def test_discrepancy_negative_near_the_cusp(self):
        collapsed = delta_series(40, Route.FROM_PSI_KERNEL).collapse(SCHIEMANN)
        assert collapsed[0][0] > 0 and collapsed[0][1] < 0
