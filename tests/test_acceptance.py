"""Acceptance suite: one test per criterion, every equality exact.

Each test prints a single status line so a verbose run reads as a checklist.
"""

import random
import time

from isopair import (
    ClassPair,
    Cmp,
    CosetLabel,
    FormalQSeries,
    Kernel,
    Lattice,
    Route,
    Verdict,
    build_family,
    certify,
    check_relations,
    defining_kernel,
    delta_class,
    delta_series,
    exp_cmp,
    intersection_graph,
    minimal_pair_table,
    minimal_rows,
    minimal_vectors,
    orbit_partition,
    pairwise_kernel,
    phi,
    psi,
    rep_series,
    selfdual_codes,
    theta11,
    two_dim_subspaces,
)
from isopair.lattices import ALT_L1_COLUMNS, ALT_L2_COLUMNS, SIGN_FLIP

from conftest import SCHIEMANN, SMALL, admissible_samples, fraction_delta

BOLD_FIRST = (10, 10, 2, 2)
BOLD_SECOND = (25, 5, 5, 1)


def report(number, label):
    print(f"acceptance {number:02d} ({label}): PASS")


def test_01_code_census():
    start = time.monotonic()
    assert len(two_dim_subspaces()) == 130
    eight = selfdual_codes()
    assert len(eight) == 8
    assert orbit_partition(eight) == (frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7}))
    edges = intersection_graph(eight)
    assert len(edges) == 16
    assert edges == frozenset(frozenset({i, j}) for i in (0, 2, 4, 6) for j in (1, 3, 5, 7))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"census took {elapsed:.2f}s"
    report(1, "code census, orbits, bipartite graph")


def test_02_lattice_structure():
    start = time.monotonic()
    fam = build_family()
    assert fam.L1.index_in(fam.L) == 9
    assert fam.L2.index_in(fam.L) == 9
    assert fam.L12.index_in(fam.L1) == 3
    tripled = Lattice(tuple(tuple(3 * x for x in g) for g in fam.L.generators))
    assert tripled == fam.M
    assert Lattice(ALT_L2_COLUMNS) == fam.L2
    flip = lambda v: tuple(s * x for s, x in zip(SIGN_FLIP, v))
    classical_first = tuple(flip(col) for col in ALT_L1_COLUMNS)
    assert Lattice(tuple(flip(col) for col in classical_first)) == fam.L1
    assert Lattice(ALT_L1_COLUMNS) == fam.L1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"structure checks took {elapsed:.2f}s"
    report(2, "indices 9/9/3, 3L = M, alternative generator matrices")


def test_03_isospectral_at_desk_scale():
    fam = build_family()
    s1 = rep_series(fam.L1, 40)
    s2 = rep_series(fam.L2, 40)
    points = [SCHIEMANN, SMALL] + admissible_samples(101, 10)
    for p in points:
        assert s1.collapse(p) == s2.collapse(p)
    report(3, f"equal collapsed spectra at {len(points)} points, budget 40")


def test_04_kernel_identity():
    rng = random.Random(103)
    for _ in range(200):
        l = tuple(rng.randint(-5, 5) for _ in range(4))
        k = tuple(rng.randint(-5, 5) for _ in range(4))
        assert defining_kernel(l, k) == pairwise_kernel(l, k)
    fam = build_family()
    assert theta11(fam.L1, 24, Kernel.DEFINING) == theta11(fam.L1, 24, Kernel.PAIRWISE)
    report(4, "defining = pairwise kernel, per pair and as series")


def test_05_class_series_relations():
    result = check_relations(24)
    assert result.ok, result
    report(5, f"all four relations hold over {result.checked} label-pair checks")


def test_06_decomposition_and_route_equivalence():
    total = FormalQSeries.empty(24)
    for i in range(4):
        for j in range(i + 1, 4):
            total = total + delta_class(ClassPair(i, j), 24)
    assert total == fraction_delta(24)
    assert delta_series(24, Route.FROM_THETA) == delta_series(24, Route.FROM_PSI_KERNEL)
    report(6, "class decomposition and both discrepancy routes agree")


def test_07_minimal_vector_table():
    expected = {
        0: {(-1, 3, -1, 1), (-4, 0, 2, -2)},
        1: {(1, -1, -1, 3), (4, 2, 2, 0)},
        2: {(3, 1, -1, -1)},
        3: {(-1, -1, -3, -1), (-4, 2, 0, 2)},
    }
    for i, vectors in expected.items():
        assert set(minimal_vectors(CosetLabel(i, 1), 36)) == vectors
    report(7, "minimal vectors at budget 36 match the table")


def test_08_minimal_pair_table():
    table = minimal_pair_table(36)
    assert tuple(((r.i, r.j), r.exponent) for r in table) == (
        ((0, 1), (2, 10, 2, 10)),
        ((0, 2), (10, 10, 2, 2)),
        ((0, 3), (2, 10, 10, 2)),
        ((0, 5), (17, 13, 5, 1)),
        ((0, 6), (17, 13, 1, 5)),
        ((1, 2), (10, 2, 2, 10)),
        ((1, 3), (2, 2, 10, 10)),
        ((1, 4), (17, 1, 5, 13)),
        ((1, 6), (17, 5, 1, 13)),
        ((2, 3), (10, 2, 10, 2)),
        ((2, 4), (25, 1, 5, 5)),
        ((2, 5), (25, 5, 5, 1)),
        ((2, 6), (25, 5, 1, 5)),
        ((3, 4), (17, 1, 13, 5)),
        ((3, 5), (17, 5, 13, 1)),
        ((4, 5), (32, 4, 8, 4)),
        ((4, 6), (32, 4, 4, 8)),
        ((5, 6), (32, 8, 4, 4)),
    )
    leading = minimal_rows(table)
    assert tuple(r.exponent for r in leading) == (BOLD_FIRST, BOLD_SECOND)
    assert exp_cmp(BOLD_FIRST, BOLD_SECOND) is Cmp.INCOMPARABLE
    report(8, "18-row pair table with exactly the two order-minimal rows")


def test_09_leading_coefficients_and_certificates():
    import sympy

    start = time.monotonic()
    a, b, c, d = sympy.symbols("a b c d")

    def expand(poly):
        return sympy.expand(
            sum(
                sympy.Rational(x.numerator, x.denominator)
                * sympy.prod(s**m for s, m in zip((a, b, c, d), mono))
                for mono, x in poly.terms.items()
            )
        )

    series = delta_series(40, Route.FROM_PSI_KERNEL)
    assert expand(series.coefficient(BOLD_FIRST)) == sympy.expand(-12 * (b - a) * (d - c))
    assert expand(series.coefficient(BOLD_SECOND)) == sympy.expand(-96 * a * (c - b))

    cert = certify(SCHIEMANN, 40)
    assert cert.verdict is Verdict.NON_ISOMETRIC
    assert cert.min_exponent == 144 and cert.total == -1008

    for p in admissible_samples(107, 50):
        cert = certify(p, 40)
        assert cert.verdict is Verdict.NON_ISOMETRIC
        assert cert.total < 0

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 9 took {elapsed:.1f}s"
    report(9, f"exact leading polynomials; 50 certificates in {elapsed:.1f}s")


def test_10_psi_properties():
    fam = build_family()
    shell = fam.L1.vectors(40)
    images = [psi(v) for v in shell]
    for v, w in zip(shell, images):
        assert phi(w) == phi(v)  # norm preserved at every parameter point
    assert len(set(images)) == len(shell)  # injective, so it inverts on its image
    assert sorted(images) == list(fam.L2.vectors(40))
    v, k = (-1, 3, -1, 1), (1, -1, -1, 3)
    total = tuple(x + y for x, y in zip(v, k))
    assert psi(total) != tuple(x + y for x, y in zip(psi(v), psi(k)))
    report(10, f"bijection and norm preservation on {len(shell)} vectors; non-additive")
