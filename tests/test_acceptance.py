"""Acceptance suite: the verification anchors, and what they leave out.

``run_verification`` re-derives each published fact and compares it with the
data frozen in ``isopair.verification``; every anchor must pass at the
smallest sound budget and at 40.  The other tests cover what the anchors
lack: the refusal below the sound budget, a library check or refusal
(``ValueError``) under an anchor, reported as that anchor's failure while
``verify`` still lists every anchor, a broken premise of each proved
anchor (the kernels, the four-group, the class representatives) failing
that anchor, a broken premise of each other anchor that no frozen table
reaches (the code graph and matching, the family's lattices, the sign flip,
the theta route's L2) failing it, the pair's vector counts at budgets 36,
80 and 160, which no anchor compares, isospectrality at random points, 50
random certificates, Conway and Sloane's range of classical integral pairs,
and the ``psi`` bijection on the full budget-40 shell.  Each passing check
prints a status line so a verbose run reads as a checklist.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from isopair import (
    ParamPoint,
    ParamPolynomial,
    Route,
    Verdict,
    build_family,
    certify,
    collapse_counts,
    phi,
    psi,
    rep_series,
    run_verification,
)
from isopair import cli, codes, discrepancy, lattices, theta, verification
from isopair.discrepancy import MIN_PAIR_BUDGET
from isopair.lattices import ALT_L1_COLUMNS, ALT_L2_COLUMNS, Lattice
from isopair.verification import SCHIEMANN

from conftest import SMALL, admissible_samples

ANCHORS = (
    "code census",
    "code orbits",
    "intersection graph",
    "code matching",
    "basis change",
    "lattice indices",
    "common sublattice",
    "alternative generators",
    "isospectrality",
    "kernel identity",
    "class relations",
    "route equivalence",
    "class decomposition",
    "minimal vectors",
    "minimal pairs",
    "leading coefficients",
)


def report(label):
    print(f"acceptance ({label}): PASS")


@pytest.mark.parametrize("budget", [MIN_PAIR_BUDGET, 40])
def test_anchors(budget):
    start = time.monotonic()
    results = run_verification(budget)
    elapsed = time.monotonic() - start
    assert tuple(result.anchor for result in results) == ANCHORS
    for result in results:
        assert result.ok, result
        report(f"{result.anchor}, budget {budget}")
    assert elapsed < 1.0, f"verification took {elapsed:.2f}s"


def _first_monomial_doubled(entry):
    (e, poly, (c, u, v)), second = entry
    return (e, poly, (2 * c, u, v)), second


# each frozen table that ``verification`` reads, corrupted there, and the
# anchors that must then fail
CORRUPTIONS = {
    "EXPECTED_PAIR_TABLE": ("EXPECTED_PAIR_TABLE", lambda table: table[:-1], ("minimal pairs",)),
    "EXPECTED_EXTRA_MINIMAL": (
        "EXPECTED_EXTRA_MINIMAL", lambda extra: {**extra, 2: extra[0]}, ("minimal vectors",)
    ),
    "LEADING_ENTRY-reversed": (
        "LEADING_ENTRY", lambda entry: entry[::-1], ("minimal pairs", "leading coefficients")
    ),
    "LEADING_ENTRY-polynomial": (
        "LEADING_ENTRY",
        lambda entry: (entry[0], (entry[1][0], entry[0][1], entry[1][2])),
        ("leading coefficients",),
    ),
    "LEADING_ENTRY-monomial": (
        "LEADING_ENTRY", _first_monomial_doubled, ("leading coefficients",)
    ),
    "SCHIEMANN_TERM": (
        "SCHIEMANN_TERM", lambda term: (term[0], -term[1]), ("leading coefficients",)
    ),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_corrupted_table_fails_its_anchor(monkeypatch, case):
    constant, corrupt, failing = CORRUPTIONS[case]
    monkeypatch.setattr(verification, constant, corrupt(getattr(verification, constant)))
    failed = [result for result in run_verification(MIN_PAIR_BUDGET) if not result.ok]
    assert tuple(result.anchor for result in failed) == failing
    assert all(result.witness for result in failed)


# a library check that fails under an anchor is that anchor's FAIL, not an
# escape from ``run_verification``; the caches the checks fill are cleared
# before and after, so no result from outside a test hides its corruption
# and no corrupted result outlives it
@pytest.fixture
def clear_check_caches():
    caches = (codes.selfdual_codes, codes._c1_c2)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def failures(results):
    return {result.anchor: result.witness for result in results if not result.ok}


def test_corrupted_census_fails_its_anchors(monkeypatch, capsys, clear_check_caches):
    generators = ((1, 0, 0, 0), (0, 1, 0, 0)), *codes.SELFDUAL_GENERATORS[1:]
    monkeypatch.setattr(codes, "SELFDUAL_GENERATORS", generators)
    results = run_verification(MIN_PAIR_BUDGET)
    assert tuple(result.anchor for result in results) == ANCHORS
    assert failures(results)["code census"] == "self-dual census does not match the canonical list"
    assert cli.main(["verify", "--budget", str(MIN_PAIR_BUDGET)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert [line.startswith("FAIL") for line in lines] == [not result.ok for result in results]
    assert lines[0].endswith("  self-dual census does not match the canonical list")


def test_broken_four_group_is_reported(monkeypatch, capsys, clear_check_caches):
    shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    g0, g1, g2, g3 = codes.K4
    monkeypatch.setattr(codes, "K4", (g0, codes.K4Element("g1", shear, g1.diag), g2, g3))
    assert cli.main(["codes", "graph"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    witness = f"g1 maps {codes.selfdual_codes()[0]} outside the codes"
    assert err == f"error: internal consistency failure: {witness}\n"
    assert failures(run_verification(MIN_PAIR_BUDGET))["code orbits"] == witness


def test_orbit_failure_fails_only_code_orbits(monkeypatch):
    # ``intersection graph`` compares the graph with the stated orbits, so
    # a broken orbit computation fails the one anchor that runs it
    def broken(codes):
        raise AssertionError("expected two orbits, found 3")

    monkeypatch.setattr(codes, "orbit_partition", broken)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {
        "code orbits": "expected two orbits, found 3"
    }


def _with_cross_term(coeffs):
    # an extra l0 l1 k2 k3 on the a^2 coefficient: still a (2, 2) form, so
    # the probe pairs must see it
    def corrupted(l, k):
        vector = coeffs(l, k)
        vector[0] += l[0] * l[1] * k[2] * k[3]
        return vector

    return corrupted


def _unsigned_g1_g3(k4):
    # g1 and g3 alone separate the slots (0, 1) and (2, 3)
    g0, g1, g2, g3 = k4
    return g0, g1._replace(diag=g0.diag), g2, g3._replace(diag=g0.diag)


def _swap_middle(words):
    return words[0], words[2], words[1], words[3]


def _respanned(name, source):
    """A ``build_family`` corruption: the lattice ``name`` spanned by the
    generators of ``source``, under its own name."""

    def corrupt(build):
        fam = build()
        lattice = Lattice(getattr(fam, source).generators, name)
        return lambda: fam._replace(**{name: lattice})

    return corrupt


# a premise broken in the library (its owner, its name and the corruption),
# for each proved anchor and each anchor that no frozen table reaches, the
# anchors that must then fail, and some of them with their witnesses
PREMISE_CORRUPTIONS = {
    "pairwise_coeffs": (
        verification,
        "pairwise_coeffs",
        _with_cross_term,
        ("kernel identity",),
        {"kernel identity": "kernels disagree at (1, 1, 0, 0), (0, 0, 1, 1)"},
    ),
    "K4": (
        codes,
        "K4",
        _unsigned_g1_g3,
        ("basis change", "class relations"),
        {"class relations": "no sign matrix that keeps M separates slot (0, 1)"},
    ),
    "COSET_REPS": (
        lattices,
        "COSET_REPS",
        lambda reps: (reps[0], reps[2], *reps[2:]),
        ("isospectrality", "class relations"),
        {"isospectrality": "the images (-3, -1, -1, -1) and (-3, -1, -1, -1) lie in one coset of M"},
    ),
    # eight labels for the nine classes of L1 modulo M
    "ALL_LABELS": (
        verification,
        "ALL_LABELS",
        lambda labels: labels[:-1],
        ("isospectrality", "class decomposition"),
        {"isospectrality": "[L1:M] = 9, not 8", "class decomposition": "[L1:M] = 9, not 8"},
    ),
    "intersection_dim": (
        codes.TernaryCode,
        "intersection_dim",
        # dimensions zero and one exchanged
        lambda method: lambda self, other: {1: 1, 3: 0, 9: 2}[len(self.words & other.words)],
        ("intersection graph",),
        {"intersection graph": "12 edges, not the complete bipartite graph on the orbits"},
    ),
    "C2_LABELED_WORDS": (
        codes,
        "C2_LABELED_WORDS",
        _swap_middle,
        ("code matching",),
        {"code matching": "g1 does not exchange the labeled words at index 1"},
    ),
    "L-from-L1": (
        verification,
        "build_family",
        _respanned("L", "L1"),
        ("basis change", "lattice indices", "common sublattice"),
        {"lattice indices": "[L:L1] = 1, expected 9"},
    ),
    "L12-from-M": (
        verification,
        "build_family",
        _respanned("L12", "M"),
        ("lattice indices", "common sublattice"),
        {"common sublattice": "M is not index 3 in the intersection"},
    ),
    "SIGN_FLIP": (
        verification,
        "SIGN_FLIP",
        lambda flip: (1, 1, 1, 1),
        ("alternative generators",),
        {"alternative generators": "classical first lattice unexpectedly meets the base lattice"},
    ),
    # the theta route enumerates L1 twice, so its difference is zero
    "theta-L2-from-L1": (
        discrepancy,
        "build_family",
        _respanned("L2", "L1"),
        ("route equivalence",),
        {"route equivalence": "the two discrepancy routes differ at budget 24"},
    ),
    # the two cases where the library code under an anchor raises
    # ``ValueError``: ``Lattice.index_in`` refuses a lattice outside the
    # ambient one, and the theta route a difference that 128 does not divide
    "L12-is-L": (
        verification,
        "build_family",
        lambda build: lambda: build()._replace(L12=build().L),
        ("lattice indices", "common sublattice"),
        {"lattice indices": "L is not a sublattice of L1"},
    ),
    "theta-L2-from-L12": (
        discrepancy,
        "build_family",
        _respanned("L2", "L12"),
        ("route equivalence",),
        {"route equivalence": "coefficient at (18, 2, 2, 2) times 1/128 is not an integer"},
    ),
}


@pytest.mark.parametrize("case", PREMISE_CORRUPTIONS)
def test_broken_premise_fails_its_anchors(monkeypatch, case):
    owner, name, corrupt, failing, witnesses = PREMISE_CORRUPTIONS[case]
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    results = run_verification(MIN_PAIR_BUDGET)
    assert tuple(result.anchor for result in results) == ANCHORS
    failed = failures(results)
    assert tuple(failed) == failing
    assert {anchor: failed[anchor] for anchor in witnesses} == witnesses
    assert all(failed.values())


@pytest.mark.parametrize("case", ["L12-is-L", "theta-L2-from-L12"])
def test_value_error_under_an_anchor_keeps_the_verify_table(monkeypatch, capsys, case):
    owner, name, corrupt, failing, witnesses = PREMISE_CORRUPTIONS[case]
    [(anchor, witness)] = witnesses.items()
    monkeypatch.setattr(owner, name, corrupt(getattr(owner, name)))
    assert cli.main(["verify", "--budget", str(MIN_PAIR_BUDGET)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    statuses = ["FAIL" if a in failing else "ok" for a in ANCHORS]
    assert [line.split()[0] for line in lines] == statuses
    assert f"  {witness}" in lines[ANCHORS.index(anchor)]


def _corrupt_pair_kernel(monkeypatch, corrupt):
    """Replace the pair kernel by ``corrupt`` of it, in ``discrepancy``,
    which defines it, and in ``verification``, whose anchor reads it; returns
    the certificates of three points, on both routes, from before."""
    points = [(p, 40, route) for p in (SCHIEMANN, SMALL, ParamPoint(13, 1, 5, 2))
              for route in Route]
    expected = [certify(*args) for args in points]
    kernel = corrupt(discrepancy.pair_discrepancy_vector)
    for module in (discrepancy, verification):
        monkeypatch.setattr(module, "pair_discrepancy_vector", kernel)
    return points, expected


def test_doubled_pair_kernel_fails_only_its_anchor(monkeypatch):
    # doubled pair kernels still pass the chain-form check, -24 x2 x4 and
    # -192 x1 x3, but are not the stated polynomials; certify reads the
    # stated entry, so no certificate changes
    points, expected = _corrupt_pair_kernel(
        monkeypatch, lambda kernel: lambda l, k: tuple(2 * x for x in kernel(l, k))
    )
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {"leading coefficients": (
        "coefficient at (10, 10, 2, 2) is -24*b*d + 24*b*c + 24*a*d - 24*a*c; "
        "coefficient at (25, 5, 5, 1) is -192*a*c + 192*a*b"
    )}
    assert [certify(*args) for args in points] == expected


def _first_row_negated(kernel):
    def corrupted(l, k):
        vector = kernel(l, k)
        if tuple(x + y for x, y in zip(phi(l), phi(k))) == (10, 10, 2, 2):
            return tuple(-x for x in vector)
        return vector

    return corrupted


def test_positive_pair_kernel_fails_its_anchor_with_the_chain_witness(monkeypatch):
    # the first row's kernel negated, +12 x2 x4 in chain coordinates: the
    # chain-form check refuses it under ``leading coefficients``, no other
    # anchor reads the kernel, and no certificate changes
    points, expected = _corrupt_pair_kernel(monkeypatch, _first_row_negated)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {"leading coefficients": (
        "coefficient at (10, 10, 2, 2) has chain coefficient 12 on x2*x4"
    )}
    assert [certify(*args) for args in points] == expected


@pytest.mark.parametrize(
    "constant, value, witness",
    [
        ("BOX_RADIUS", 2,
         "class 0: the box [-2, 2]^4 gives [], expected [(-4, 0, 2, -2), (-1, 3, -1, 1)]"),
        ("M_PERIOD", 6, "6 e_0 does not lie in M"),
    ],
    ids=["box", "period"],
)
def test_shrunk_box_fails_only_minimal_vectors(monkeypatch, constant, value, witness):
    # [-2, 2]^4 misses the minimal vectors of class 0, and 6 e_j, which would
    # bound a box by 3, does not lie in M
    monkeypatch.setattr(verification, constant, value)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {"minimal vectors": witness}


def test_missing_leading_term_fails_its_anchor(monkeypatch):
    # the certificate at the tie point without its second term: its total
    # is still right, so only the whole list of terms shows the gap
    certify = verification.certify

    def one_term(*args):
        cert = certify(*args)
        return cert._replace(terms=cert.terms[:1])

    monkeypatch.setattr(verification, "certify", one_term)
    failed = failures(run_verification(MIN_PAIR_BUDGET))
    assert list(failed) == ["leading coefficients"]
    assert failed["leading coefficients"].startswith("coefficient at (10, 10, 2, 2) is ")


def test_inconclusive_verdict_fails_its_anchor(monkeypatch):
    # the certificate at the integral example as a repeated point gives it:
    # the anchor stops at the verdict, before a comparison of no terms
    certify = verification.certify

    def inconclusive(*args):
        cert = certify(*args)
        return cert._replace(
            min_exponent=None, terms=(), total=None, verdict=Verdict.INCONCLUSIVE
        )

    monkeypatch.setattr(verification, "certify", inconclusive)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {
        "leading coefficients": "verdict Inconclusive at the integral example"
    }


def test_positive_chain_coefficient_fails_its_anchor(monkeypatch):
    # the certificate with its first coefficient negated, +12(b-a)(d-c): the
    # stated entry passes its proof, and the anchor's comparison of the
    # certificate with the entry sees the sign
    certify = verification.certify

    def negated_first(*args):
        cert = certify(*args)
        first = cert.terms[0]
        poly = ParamPolynomial({mono: -x for mono, x in first.polynomial.terms.items()})
        return cert._replace(terms=(first._replace(polynomial=poly), *cert.terms[1:]))

    monkeypatch.setattr(verification, "certify", negated_first)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {"leading coefficients": (
        "coefficient at (10, 10, 2, 2) is 12*b*d - 12*b*c - 12*a*d + 12*a*c; "
        "coefficient at (25, 5, 5, 1) is -96*a*c + 96*a*b"
    )}


def compare_vector_counts(budget: int, counts=rep_series) -> None:
    """The spectra of the pair as vector counts up to the budget, which the
    ``isospectrality`` anchor proves at every budget through the coset map;
    a difference fails at its least exponent."""
    fam = build_family()
    s1, s2 = counts(fam.L1, budget), counts(fam.L2, budget)
    if s1 != s2:
        e = min(e for e in s1.keys() | s2.keys() if s1.get(e) != s2.get(e))
        n1, n2 = s1.get(e, 0), s2.get(e, 0)
        raise AssertionError(f"L1 has {n1} vectors at exponent {e}, L2 has {n2}")


@pytest.mark.parametrize("budget", [36, 80, 160])
def test_the_pair_has_equal_vector_counts(budget):
    compare_vector_counts(budget)


def test_missing_spectrum_term_fails_the_count_comparison(monkeypatch):
    # L2's counts without their last exponent: the coset map still proves
    # the premises, so every anchor passes, and only the count comparison
    # sees the gap, at that exponent
    dropped = []

    def one_short(lattice, budget):
        counts = rep_series(lattice, budget)
        if lattice is build_family().L2:
            e = max(counts)
            dropped.append((e, counts.pop(e)))
        return counts

    monkeypatch.setattr(theta, "rep_series", one_short)
    assert failures(run_verification(MIN_PAIR_BUDGET)) == {}
    assert dropped == []  # no anchor reads a count
    with pytest.raises(AssertionError) as error:
        compare_vector_counts(MIN_PAIR_BUDGET, one_short)
    [(e, count)] = dropped
    assert str(error.value) == f"L1 has {count} vectors at exponent {e}, L2 has 0"


def test_the_count_comparison_names_the_least_differing_exponent():
    def shifted(lattice, budget):
        counts = dict(rep_series(lattice, budget))
        if lattice is build_family().L1:
            low, high = sorted(counts)[1], max(counts)
            counts[low] += 1
            counts[high] += 1
        return counts

    fam = build_family()
    low = sorted(rep_series(fam.L1, 80))[1]
    n = rep_series(fam.L2, 80)[low]
    with pytest.raises(AssertionError) as error:
        compare_vector_counts(80, shifted)
    assert str(error.value) == f"L1 has {n + 1} vectors at exponent {low}, L2 has {n}"


def test_budget_below_threshold_rejected():
    with pytest.raises(ValueError, match=r"^verification budget must be at least 36, got 35$"):
        run_verification(MIN_PAIR_BUDGET - 1)


def test_isospectral_at_desk_scale():
    fam = build_family()
    s1 = rep_series(fam.L1, 40)
    s2 = rep_series(fam.L2, 40)
    points = [SCHIEMANN, SMALL] + admissible_samples(101, 10)
    for p in points:
        assert collapse_counts(s1, p) == collapse_counts(s2, p)
    report(f"equal collapsed spectra at {len(points)} points, budget 40")


def test_random_certificates():
    start = time.monotonic()
    for p in admissible_samples(107, 50):
        cert = certify(p, 40)
        assert cert.verdict is Verdict.NON_ISOMETRIC
        assert cert.total < 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"50 certificates took {elapsed:.1f}s"
    report(f"50 certificates in {elapsed:.1f}s")


def _integrality_forms(columns) -> set:
    # the entry (i, j) of the classical Gram B^T diag(a, b, c, d) B / 12 is
    # sum_k B_ki B_kj x_k / 12 at x = (a, b, c, d); B's columns are the basis
    return {tuple(u * w for u, w in zip(ci, cj)) for i, ci in enumerate(columns)
            for cj in columns[i:]}


def _integral_residues(forms) -> frozenset:
    return frozenset(r for r in product(range(12), repeat=4)
                     if all(sum(f * x for f, x in zip(form, r)) % 12 == 0 for form in forms))


def _classical_gram(columns, p) -> list:
    return [[sum(Fraction(ci[k] * cj[k] * p[k], 12) for k in range(4)) for cj in columns]
            for ci in columns]


def test_conway_sloane_range():
    # Conway and Sloane checked the classical integral pairs of determinant
    # up to 10^4; the Gram of either basis has determinant abcd, as
    # det B = +-144
    forms1, forms2 = _integrality_forms(ALT_L1_COLUMNS), _integrality_forms(ALT_L2_COLUMNS)
    assert len(forms1) == len(forms2) == 10 and len(forms1 | forms2) == 16
    residues = _integral_residues(forms1)
    assert len(residues) == 48 and _integral_residues(forms2) == residues
    # d steps through the residues allowed after those of a, b and c
    allowed: dict = {}
    for r in sorted(residues):
        allowed.setdefault(r[:3], []).append(r[3] or 12)
    limit = 10**4
    points = []
    for a in range(1, limit + 1):
        for b in range(1, limit // a + 1):
            for c in range(1, limit // (a * b) + 1):
                top = limit // (a * b * c)
                for d0 in allowed.get((a % 12, b % 12, c % 12), ()):
                    points.extend((a, b, c, d) for d in range(d0, top + 1, 12))
    assert len(points) == 10_394
    distinct = [p for p in points if len(set(p)) == 4]
    shapes = sorted({tuple(sorted(p)) for p in distinct})
    assert (len(distinct), len(shapes)) == (552, 23)
    assert shapes[0] == min(shapes, key=lambda p: p[0] * p[1] * p[2] * p[3]) == (1, 7, 13, 19)
    for p in distinct:
        for columns in (ALT_L1_COLUMNS, ALT_L2_COLUMNS):
            assert all(x.denominator == 1 for row in _classical_gram(columns, p) for x in row), p
    for budget in (40, 80):
        for route in Route:
            for p in distinct:
                assert certify(ParamPoint(*p), budget, route).verdict is Verdict.NON_ISOMETRIC, p
    report(f"{len(distinct)} integral points of determinant up to 10^4, {len(shapes)} up to order")


def test_psi_properties():
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
    report(f"bijection and norm preservation on {len(shell)} vectors; non-additive")
