import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from isopair import (
    ALL_LABELS,
    COSET_REPS,
    CosetLabel,
    K4,
    Lattice,
    ParamPoint,
    build_family,
    coset_label,
    phi,
    psi,
)
from isopair.codes import C1_LABELED_WORDS, SELFDUAL_GENERATORS, TernaryCode, normalize
from isopair.lattices import (
    _J_MINUS_2I,
    _LABEL_BY_RESIDUE,
    _matvec,
    ALT_L1_COLUMNS,
    ALT_L2_COLUMNS,
    SIGN_FLIP,
    STANDARD_BASIS_COLUMNS,
    from_standard,
    hermite_normal_form,
)
from isopair.qarith import ParamPolynomial
from isopair.verification import EXPECTED_EXTRA_MINIMAL, SCHIEMANN

from conftest import (
    UNIT_MONOS,
    evaluate,
    generator_phi,
    inner_poly,
    loop_contains,
    norm_poly,
    random_admissible_point,
    walk_scan,
)

# The base-lattice generator matrix in eigenbasis coordinates (columns).
BASE_GENERATORS = ((-1, 3, -1, 1), (1, -1, -1, 3), (-1, -1, 1, 3), (-1, 1, -1, 3))


def to_standard(v):
    """Standard coordinates of an eigenbasis-coordinate vector of L: the
    inverse of ``from_standard``, since (J - 2I)^2 = 4I."""
    t = _matvec(_J_MINUS_2I, v)
    if any(x % 4 for x in t):
        raise ValueError(f"{tuple(v)} is not in the base lattice")
    return tuple(x // 4 for x in t)


def project_mod3(v):
    """The mod-3 image of a base-lattice vector in standard coordinates:
    the surjection whose kernel is M = 3L and whose fibers over the codes C1
    and C2 are L1 and L2."""
    return normalize(to_standard(v))


# ---------------------------------------------------------------------------
# independent oracles: Fraction Gaussian solve for membership, naive box scan
# for enumeration, mutual membership for lattice equality
# ---------------------------------------------------------------------------

def solve_coefficients(generators, v):
    """Coefficients of v in the generators, by Fraction Gauss-Jordan."""
    m = [[Fraction(generators[j][i]) for j in range(4)] + [Fraction(v[i])] for i in range(4)]
    for col in range(4):
        piv = next((r for r in range(col, 4) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        m[col] = [x / m[col][col] for x in m[col]]
        for r in range(4):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][4] for r in range(4)]


def solve_membership(generators, v):
    coefficients = solve_coefficients(generators, v)
    return coefficients is not None and all(c.denominator == 1 for c in coefficients)


def naive_shell(generators, budget):
    # the Fraction solve of the unit vectors gives the inverse generator
    # matrix; scaled to integers it tests a whole box cheaply
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    inverse = [solve_coefficients(generators, e) for e in units]
    den = math.lcm(*(c.denominator for col in inverse for c in col))
    scaled = [[int(inverse[k][i] * den) for k in range(4)] for i in range(4)]
    r = math.isqrt(budget)
    out = []
    for v in product(range(-r, r + 1), repeat=4):
        if sum(x * x for x in v) <= budget and all(
            sum(row[k] * v[k] for k in range(4)) % den == 0 for row in scaled
        ):
            out.append(v)
    return out


def same_span(gens_a, gens_b):
    return all(solve_membership(gens_a, v) for v in gens_b) and all(
        solve_membership(gens_b, v) for v in gens_a
    )


def standard_gram(p):
    """Gram matrix of the standard basis of L at a point, through the
    eigenbasis inner product."""
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    basis = [from_standard(e) for e in units]
    return [[evaluate(inner_poly(u, w), p) for w in basis] for u in basis]


def point_from_gram_params(r, alpha, beta, gamma):
    quarter = Fraction(1, 4)
    return ParamPoint(
        quarter * (r - alpha - beta - gamma),
        quarter * (r - alpha + beta + gamma),
        quarter * (r + alpha - beta + gamma),
        quarter * (r + alpha + beta - gamma),
    )


class TestGramParameters:
    """In the standard basis the form is the symmetric matrix with diagonal r
    and off-diagonal entries +-alpha, +-beta, +-gamma, an invertible linear
    change of (a, b, c, d)."""

    def test_symmetric_point(self):
        gram = standard_gram(ParamPoint(1, 1, 1, 1))
        assert gram == [[4 * (i == j) for j in range(4)] for i in range(4)]

    def test_integral_example(self):
        gram = standard_gram(SCHIEMANN)
        r, alpha, beta, gamma = gram[0]
        assert (r, alpha, beta, gamma) == (40, 24, 12, 0)
        assert gram == [
            [r, alpha, beta, gamma],
            [alpha, r, -gamma, -beta],
            [beta, -gamma, r, -alpha],
            [gamma, -beta, -alpha, r],
        ]
        assert point_from_gram_params(r, alpha, beta, gamma) == SCHIEMANN

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(20):
            p = random_admissible_point(rng)
            assert point_from_gram_params(*standard_gram(p)[0]) == p

    def test_rejects_indefinite(self):
        # diagonal entries (-1, 1, 3, 1): not a positive parameter point
        with pytest.raises(ValueError, match="positive"):
            point_from_gram_params(4, 8, 0, 0)


class TestBasisChange:
    def test_generators_match_converted_columns(self):
        fam = build_family()
        assert fam.L.generators == BASE_GENERATORS
        assert tuple(from_standard(col) for col in STANDARD_BASIS_COLUMNS) == BASE_GENERATORS

    def test_standard_matrix_unimodular(self):
        # the standard-basis columns change nothing: |det| = 1
        hnf = hermite_normal_form(STANDARD_BASIS_COLUMNS)
        assert hnf == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))

    def test_standard_round_trip(self):
        fam = build_family()
        for v in fam.L.vectors(12):
            assert from_standard(to_standard(v)) == v

    def test_group_diagonal_on_eigenvectors(self):
        # columns of (J - 2I)/4 are the common eigenvectors; conjugation by
        # them turns the signed permutations into the stored diagonals
        jm2i = ((-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1), (1, 1, 1, -1))
        for g in K4:
            for j in range(4):
                u = tuple(Fraction(jm2i[i][j], 4) for i in range(4))
                image = tuple(sum(Fraction(g.standard[i][k]) * u[k] for k in range(4)) for i in range(4))
                assert image == tuple(g.diag[j] * x for x in u)


class TestLatticeEquality:
    def test_unimodular_mix(self):
        rng = random.Random(43)
        fam = build_family()
        for lat in (fam.L, fam.L1, fam.M):
            gens = [list(g) for g in lat.generators]
            for _ in range(30):  # random elementary column operations
                i, j = rng.sample(range(4), 2)
                op = rng.choice(("add", "sub", "swap", "neg"))
                if op == "add":
                    gens[i] = [x + y for x, y in zip(gens[i], gens[j])]
                elif op == "sub":
                    gens[i] = [x - y for x, y in zip(gens[i], gens[j])]
                elif op == "swap":
                    gens[i], gens[j] = gens[j], gens[i]
                else:
                    gens[i] = [-x for x in gens[i]]
            assert Lattice(gens) == lat

    def test_distinct_lattices_differ(self):
        fam = build_family()
        assert fam.L1 != fam.L2
        assert fam.L1 != fam.M

    def test_alternative_generators(self):
        fam = build_family()
        assert Lattice(ALT_L2_COLUMNS) == fam.L2
        assert same_span(ALT_L2_COLUMNS, fam.L2.generators)
        assert Lattice(ALT_L1_COLUMNS) == fam.L1
        assert same_span(ALT_L1_COLUMNS, fam.L1.generators)

    def test_classical_first_lattice_needs_the_sign_flip(self):
        fam = build_family()
        flip = lambda v: tuple(s * x for s, x in zip(SIGN_FLIP, v))
        classical = tuple(flip(col) for col in ALT_L1_COLUMNS)
        assert Lattice(tuple(flip(col) for col in classical)) == fam.L1
        # without the flip the columns do not even lie in the base lattice
        assert not any(fam.L.contains(col) for col in classical)


SIGN_PATTERNS = tuple(product((1, -1), repeat=4))


def _parity(tau) -> int:
    return (-1) ** sum(tau[i] > tau[j] for i in range(4) for j in range(i + 1, 4))


def _signed_image(v, tau, signs):
    """Slot i of v, times signs[i], moved to slot tau[i]."""
    out = [0] * 4
    for i, x in enumerate(v):
        out[tau[i]] = signs[i] * x
    return tuple(out)


def _witnesses(tau, target) -> list:
    """The sign patterns whose signed permutation carries L1 onto target,
    by Hermite normal form equality."""
    gens = build_family().L1.generators
    return [
        signs
        for signs in SIGN_PATTERNS
        if Lattice(tuple(_signed_image(g, tau, signs) for g in gens)) == target
    ]


def _form(v, w, p: ParamPoint):
    return sum(x * y * c for x, y, c in zip(v, w, p))


class TestSignedPermutationWitnesses:
    """An odd permutation of the eigenbasis slots, with two opposite sign
    patterns, carries L1 onto L2; an even one carries L1 onto itself.  A
    transposition's witness is an isometry exactly where the two swapped
    parameters coincide, so "pairwise different" is needed."""

    @pytest.mark.parametrize("tau", list(permutations(range(4))), ids=str)
    def test_two_sign_patterns_per_permutation(self, tau):
        fam = build_family()
        onto, away = (fam.L2, fam.L1) if _parity(tau) < 0 else (fam.L1, fam.L2)
        signs = _witnesses(tau, onto)
        assert len(signs) == 2
        assert signs[1] == tuple(-x for x in signs[0])
        assert _witnesses(tau, away) == []

    @pytest.mark.parametrize("swap", list(combinations(range(4), 2)), ids=str)
    def test_transposition_preserves_the_form_exactly_at_its_coincidence(self, swap):
        tau = list(range(4))
        tau[swap[0]], tau[swap[1]] = swap[1], swap[0]
        fam = build_family()
        gens = fam.L1.generators
        for pair in combinations(range(4), 2):
            coords = [1, 2, 3, 4]
            coords[pair[1]] = coords[pair[0]]
            point = ParamPoint(*coords)
            for signs in _witnesses(tuple(tau), fam.L2):
                images = [_signed_image(g, tau, signs) for g in gens]
                preserved = all(
                    _form(images[i], images[j], point) == _form(gens[i], gens[j], point)
                    for i in range(4)
                    for j in range(i, 4)
                )
                assert preserved == (pair == swap), (pair, signs)


class TestStructure:
    def test_indices(self):
        fam = build_family()
        assert fam.L1.index_in(fam.L) == 9
        assert fam.L2.index_in(fam.L) == 9
        assert fam.L12.index_in(fam.L1) == 3
        assert fam.L12.index_in(fam.L2) == 3
        assert fam.M.index_in(fam.L1) == 9

    def test_tripled_base_equals_m(self):
        fam = build_family()
        tripled = Lattice(tuple(tuple(3 * x for x in g) for g in fam.L.generators))
        assert tripled == fam.M
        assert same_span(tripled.generators, fam.M.generators)

    def test_index_requires_containment(self):
        fam = build_family()
        with pytest.raises(ValueError):
            fam.L.index_in(fam.M)


class TestContains:
    def test_examples(self):
        fam = build_family()
        assert fam.L1.contains((3, 1, -1, -1))
        assert not fam.M.contains((1, 0, 0, 0))
        for lat in fam:
            assert lat.contains((0, 0, 0, 0))

    def test_matches_solver(self):
        rng = random.Random(47)
        fam = build_family()
        for lat in fam:
            for _ in range(200):
                v = tuple(rng.randint(-9, 9) for _ in range(4))
                assert lat.contains(v) == solve_membership(lat.generators, v)

    def test_matches_the_loop_division_on_a_box(self):
        box = list(product(range(-4, 5), repeat=4))
        for lat in build_family():
            assert [lat.contains(v) for v in box] == [loop_contains(lat, v) for v in box]

    def test_phi_matches_the_generator_oracle_on_a_box(self):
        for v in product(range(-4, 5), repeat=4):
            assert phi(v) == generator_phi(v)

    def test_rejects_non_integer_generators(self):
        # no silent truncation: int(1.9) would give the unit lattice
        unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        for bad in (1.9, Fraction(3, 2), Fraction(1), "1", True):
            with pytest.raises(TypeError):
                Lattice(((bad, 0, 0, 0),) + unit[1:])


# vectors that are not four ints, each next to the L1 member (-1, 3, -1, 1)
MALFORMED = {
    "five entries": ((-1, 3, -1, 1, 5), ValueError),
    "float entry": ((-1.0, 3, -1, 1), TypeError),
    "bool entry": ((-1, 3, -1, True), TypeError),
    "three entries": ((-1, 3, -1), ValueError),
}


@pytest.mark.parametrize("vector, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_vectors_are_refused(vector, error):
    # no truncation to four entries, no float images, no IndexError
    for call in (build_family().L1.contains, coset_label, psi, phi):
        with pytest.raises(error):
            call(vector)
    # every lattice refuses with the message of the loop division
    for lat in build_family():
        with pytest.raises(error) as got:
            lat.contains(vector)
        with pytest.raises(error) as expected:
            loop_contains(lat, vector)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("form", [iter, list, tuple], ids=["iterator", "list", "tuple"])
def test_labels_any_iterable_of_four_ints(form):
    # an iterator is read once: membership and the label see the same entries
    assert coset_label(form((-1, 3, -1, 1))) == CosetLabel(0, 1)
    assert psi(form((3, 1, -1, -1))) == (-3, -1, -1, -1)
    for call in (coset_label, psi):
        with pytest.raises(ValueError, match=r"^\(1, 0, 0, 0\) is not in L1$"):
            call(form((1, 0, 0, 0)))


class TestEnumeration:
    def test_nine_shortest_in_l1(self):
        fam = build_family()
        got = fam.L1.vectors(12)
        expected = tuple(sorted(
            [(0, 0, 0, 0)]
            + list(COSET_REPS)
            + [tuple(-x for x in v) for v in COSET_REPS]
        ))
        assert got == expected
        assert all(v == (0, 0, 0, 0) or sum(phi(v)) == 12 for v in got)

    def test_budget_zero(self):
        fam = build_family()
        assert fam.L.vectors(0) == ((0, 0, 0, 0),)

    def test_m_has_no_short_vectors(self):
        fam = build_family()
        assert fam.M.vectors(35) == ((0, 0, 0, 0),)
        assert len(fam.M.vectors(36)) == 9

    def test_matches_naive_scan(self):
        fam = build_family()
        for lat in fam:
            for budget in (0, 5, 8, 12, 24):
                assert list(lat.vectors(budget)) == naive_shell(lat.generators, budget)
        assert list(fam.L1.vectors(40)) == naive_shell(fam.L1.generators, 40)

    def test_matches_the_recursive_walk(self):
        # whole tuples, so the order counts too
        fam = build_family()
        for lat in fam:
            for budget in (*range(49), 80):
                assert lat.vectors(budget) == walk_scan(lat, budget), (lat.name, budget)
        assert fam.L1.vectors(160) == walk_scan(fam.L1, 160)

    def test_lexicographic_and_deterministic(self):
        fam = build_family()
        shell = fam.L1.vectors(24)
        assert list(shell) == sorted(shell)
        assert fam.L1.vectors(24) == shell

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            build_family().L.vectors(-1)

    @pytest.mark.parametrize("budget", [True, 40.0, Fraction(40)], ids=repr)
    def test_rejects_a_budget_that_is_not_an_int(self, budget):
        with pytest.raises(TypeError):
            build_family().L1.vectors(budget)


class TestProjection:
    def test_m_projects_to_zero(self):
        fam = build_family()
        for v in fam.M.vectors(36):
            assert project_mod3(v) == (0, 0, 0, 0)

    def test_l1_is_the_fiber_over_c1(self):
        fam = build_family()
        c1 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[0])
        for v in fam.L.vectors(8):
            assert fam.L1.contains(v) == (project_mod3(v) in c1)

    def test_l2_is_the_fiber_over_c2(self):
        fam = build_family()
        c2 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[1])
        for v in fam.L.vectors(8):
            assert fam.L2.contains(v) == (project_mod3(v) in c2)

    def test_first_generator_lands_in_c1(self):
        fam = build_family()
        c1 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[0])
        image = project_mod3(fam.L.generators[0])
        assert any(image) and image in c1

    def test_additive(self):
        rng = random.Random(53)
        fam = build_family()
        shell = fam.L.vectors(20)
        for _ in range(100):
            v, w = rng.choice(shell), rng.choice(shell)
            total = tuple(a + b for a, b in zip(v, w))
            expected = tuple((a + b) % 3 for a, b in zip(project_mod3(v), project_mod3(w)))
            assert project_mod3(total) == expected

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            project_mod3((1, 0, 0, 0))


class TestNorms:
    def test_phi_of_first_representative(self):
        assert phi((-1, 3, -1, 1)) == (1, 9, 1, 1)

    def test_inner_poly_example(self):
        expected = ParamPolynomial(dict(zip(UNIT_MONOS, (-3, 3, 1, -1))))
        assert inner_poly((-1, 3, -1, 1), (3, 1, -1, -1)) == expected

    def test_norm_zero(self):
        assert norm_poly((0, 0, 0, 0)).is_zero

    def test_inner_matches_poly_evaluation(self):
        # the diagonal Gram matrix: <v, w> = a*v0*w0 + b*v1*w1 + c*v2*w2 + d*v3*w3
        rng = random.Random(59)
        for _ in range(50):
            v = tuple(rng.randint(-5, 5) for _ in range(4))
            w = tuple(rng.randint(-5, 5) for _ in range(4))
            p = random_admissible_point(rng)
            assert evaluate(inner_poly(v, w), p) == sum(s * x * y for s, x, y in zip(p, v, w))
            assert evaluate(norm_poly(v), p) == sum(s * x * x for s, x in zip(p, v))


class TestCosetLabels:
    def test_representative_labels(self):
        for i, rep in enumerate(COSET_REPS):
            assert coset_label(rep) == CosetLabel(i, 1)
            assert coset_label(tuple(-x for x in rep)) == CosetLabel(i, -1)

    def test_examples(self):
        for i, v in EXPECTED_EXTRA_MINIMAL.items():
            assert coset_label(v) == CosetLabel(i, 1)
        fam = build_family()
        for m in fam.M.vectors(36):
            assert coset_label(m).is_zero

    def test_negation(self):
        fam = build_family()
        for v in fam.L1.vectors(24):
            assert coset_label(tuple(-x for x in v)) == -coset_label(v)

    def test_labels_partition_the_shell(self):
        fam = build_family()
        shell = fam.L1.vectors(24)
        seen = {label: 0 for label in ALL_LABELS}
        for v in shell:
            seen[coset_label(v)] += 1
        assert sum(seen.values()) == len(shell)
        assert len(ALL_LABELS) == 9

    def test_label_matches_rep_difference(self):
        # v minus its signed representative lies in M
        fam = build_family()
        for v in fam.L1.vectors(24):
            rep = coset_label(v).representative()
            assert fam.M.contains(tuple(x - y for x, y in zip(v, rep)))

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            coset_label((1, 0, 0, 0))

    def test_nine_distinct_residues(self):
        residues = {tuple(x % 3 for x in label.representative()) for label in ALL_LABELS}
        assert len(residues) == 9 and set(_LABEL_BY_RESIDUE) == residues

    def test_residue_in_table_exactly_for_l1(self):
        # 3Z^4 meets L in 3L = M, so the nine residues of L1 are hit by no
        # other vector of L
        fam = build_family()
        for v in fam.L.vectors(40):
            assert (tuple(x % 3 for x in v) in _LABEL_BY_RESIDUE) == fam.L1.contains(v)

    def test_representatives_project_to_the_labeled_words(self):
        for i, rep in enumerate(COSET_REPS):
            assert project_mod3(rep) == C1_LABELED_WORDS[i]

    def test_opposite_classes_share_a_sign_matrix(self):
        for label in ALL_LABELS:
            assert (-label).diag == label.diag


class TestPsi:
    def test_identity_on_m(self):
        fam = build_family()
        for m in fam.M.vectors(36):
            assert psi(m) == m

    def test_diagonal_action_example(self):
        assert psi((3, 1, -1, -1)) == (-3, -1, -1, -1)

    def test_round_trip(self):
        # psi is injective and onto the L2 shell; the sign matrix of the
        # class of v carries psi(v) back to v
        fam = build_family()
        shell = fam.L1.vectors(20)
        preimage = {psi(v): v for v in shell}
        assert len(preimage) == len(shell)
        assert sorted(preimage) == list(fam.L2.vectors(20))
        for w, v in preimage.items():
            label = coset_label(v)
            sign = (1, 1, 1, 1) if label.is_zero else K4[label.index].diag
            assert tuple(s * x for s, x in zip(sign, w)) == v

    def test_preserves_squared_coordinates(self):
        fam = build_family()
        for v in fam.L1.vectors(24):
            assert phi(psi(v)) == phi(v)

    def test_bijection_between_shells(self):
        fam = build_family()
        for budget in (12, 24):
            image = sorted(psi(v) for v in fam.L1.vectors(budget))
            assert image == list(fam.L2.vectors(budget))

    def test_odd(self):
        fam = build_family()
        for v in fam.L1.vectors(24):
            assert psi(tuple(-x for x in v)) == tuple(-x for x in psi(v))

    def test_not_additive(self):
        v, w = (-1, 3, -1, 1), (1, -1, -1, 3)
        total = tuple(a + b for a, b in zip(v, w))
        assert psi(total) == (0, -2, -2, 4)
        assert tuple(a + b for a, b in zip(psi(v), psi(w))) == (-2, 2, 0, 4)
        assert psi(total) != tuple(a + b for a, b in zip(psi(v), psi(w)))

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            psi((1, 0, 0, 0))
        fam = build_family()
        outside = next(w for w in fam.L2.vectors(12) if not fam.L1.contains(w))
        with pytest.raises(ValueError):
            psi(outside)  # in L2 but not in L1

    def test_defined_on_the_intersection_consistently(self):
        # a generator of both sublattices whose class is matched by the
        # identity element is fixed by psi
        fam = build_family()
        shared = (-1, 3, -1, 1)
        assert fam.L1.contains(shared) and fam.L2.contains(shared)
        assert coset_label(shared) == CosetLabel(0, 1) and K4[0].diag == (1, 1, 1, 1)
        assert psi(shared) == shared


class TestHermiteNormalForm:
    def test_canonical_shape(self):
        fam = build_family()
        for lat in fam:
            hnf = lat.hnf
            for i in range(4):
                assert hnf[i][i] > 0
                for j in range(i):
                    assert hnf[i][j] == 0
                for r in range(i):
                    assert 0 <= hnf[r][i] < hnf[i][i]

    def test_equality_matches_mutual_membership(self):
        rng = random.Random(61)
        fam = build_family()
        lattices = list(fam)
        for _ in range(20):
            a, b = rng.choice(lattices), rng.choice(lattices)
            assert (a == b) == same_span(a.generators, b.generators)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            hermite_normal_form(((1, 0, 0, 0), (2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
