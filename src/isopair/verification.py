"""End-to-end verification anchors.

Each anchor re-derives one published fact about the construction -- the code
census, the orbit and graph structure, the basis-change identities, the
lattice equalities and indices, the kernel and route identities, the
minimal-vector and minimal-pair tables, and the leading coefficients of the
discrepancy -- and compares it against the expected data frozen here.  This
module is the one statement of that data, but for two facts that the
package reads from ``discrepancy`` and this module imports: the extra
minimal vectors ``EXPECTED_EXTRA_MINIMAL``, which the pair table reads,
and the leading entry ``LEADING_ENTRY``, which ``certify`` reads.  The
tests read it all from here.

Four anchors prove a fact at every budget and every point from finite
premises.  ``kernel identity`` compares the two kernels on the 100 pairs
built from ``FORM_PROBES``, which fix a form of degree (2, 2).
``isospectrality`` proves that the coset map ``psi`` is a ``phi``-keeping
bijection from L1 onto L2.  ``class relations`` checks the premises of the
class-series identities, not the series, and ``class decomposition`` that
the nine labels name every class of L1 modulo M.
``minimal vectors`` proves that the seven stated minimal vectors are every
order-minimal class member: ``12 e_j`` lies in M, so the box ``[-6, 6]^4``
holds them all, and the minimal members of the box, walked on L1's normal
form, are the stated ones.  The code, lattice and table anchors check
finite data as they stand; ``minimal pairs`` checks the table of those
seven vectors, and that its order-minimal rows lie at the entry's
exponents, and reads no shell.  ``leading coefficients`` proves each
stated row of the entry from its table row, with no series: the pair's
kernel is the stated polynomial, and its chain form (``check_chain_form``,
the paper's theorem) is the stated monomial alone.  It then compares a
certificate's terms with the entry, so only the budget of that
certificate depends on the budget ``verify`` is given.  One truncation
remains, where no finite premise is checked: ``route equivalence``
compares the two discrepancy routes at budget 24.  The tests keep the
series-level checks: the two lattices' vector counts, ``theta11`` under
both kernels, the relations over all 81 ordered label pairs
(``check_relations``), the 81-pair decomposition sum and the leading entry
against both routes' series.

A check fails as the library's cross-checks do, by raising ``AssertionError``
with its witness; ``_result`` makes any such raise, the check's own or one
from the library code under it, that anchor's failure, and so too a
``ValueError`` that the library code under a check raises.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import codes as codes_mod
from .discrepancy import (
    EXPECTED_EXTRA_MINIMAL,
    LEADING_ENTRY,
    MIN_PAIR_BUDGET,
    Route,
    Verdict,
    _class_slots,
    _order_minimal,
    certify,
    check_chain_form,
    delta_series,
    minimal_pair_table,
    minimal_rows,
    pair_discrepancy_vector,
)
from .lattices import (
    ALL_LABELS,
    ALT_L1_COLUMNS,
    ALT_L2_COLUMNS,
    COSET_REPS,
    CosetLabel,
    Lattice,
    SIGN_FLIP,
    STANDARD_BASIS_COLUMNS,
    _J_MINUS_2I,
    _matvec,
    build_family,
    coset_label,
    from_standard,
    phi,
    psi,
)
from .qarith import QUAD_SLOTS, ParamPoint, ParamPolynomial, check_budget
from .theta import defining_coeffs, pairwise_coeffs

# the two K4 orbits of the eight self-dual codes, by canonical index
EXPECTED_ORBITS = (frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7}))

EXPECTED_PAIR_TABLE = (
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

# Schiemann's integral example, where both leading rows collapse to the
# exponent 144 with total coefficient -432 - 576 = -1008
SCHIEMANN = ParamPoint(1, 7, 13, 19)
SCHIEMANN_TERM = (144, -1008)

# 12 e_j lies in M, so a class member with |v_j| > 6 has the class member
# v -/+ 12 e_j strictly below it: every order-minimal vector lies in the
# box [-BOX_RADIUS, BOX_RADIUS]^4
M_PERIOD = 12
BOX_RADIUS = M_PERIOD // 2

# the e_i and the e_i + e_j: a quadratic form in four variables is fixed by
# its values there
FORM_PROBES = tuple(
    tuple(int(n in support) for n in range(4))
    for support in [(i,) for i in range(4)] + list(combinations(range(4), 2))
)


class AnchorResult(namedtuple("AnchorResult", "anchor ok witness", defaults=(None,))):
    """One anchor's outcome: its name, whether it passed, and for a failure
    the witness."""

    __slots__ = ()


def _result(name: str, check) -> AnchorResult:
    """Run one anchor's check.  An ``AssertionError`` from the check, or from
    the library code it calls, fails the anchor with its message as the
    witness, and so does a ``ValueError`` from that library code (a lattice
    that is not a sublattice, a theta difference that 128 does not divide);
    any other exception propagates."""
    try:
        check()
    except (AssertionError, ValueError) as exc:
        return AnchorResult(name, False, str(exc))
    return AnchorResult(name, True)


def _check_code_census() -> None:
    subspaces = codes_mod.two_dim_subspaces()
    if len(subspaces) != 130:
        raise AssertionError(f"scanned {len(subspaces)} 2-dimensional subspaces, expected 130")
    # raises unless the search finds exactly the canonical eight
    codes_mod.selfdual_codes()


def _check_orbits() -> None:
    # ``orbit_partition`` raises for an image outside the eight codes, which
    # ``code census`` proves self-dual, so K4 keeps self-duality
    parts = codes_mod.orbit_partition(codes_mod.selfdual_codes())
    if parts != EXPECTED_ORBITS:
        raise AssertionError(f"orbit partition {tuple(sorted(p) for p in parts)}")


def _check_graph() -> None:
    edges = codes_mod.intersection_graph(codes_mod.selfdual_codes())
    if edges != codes_mod.complete_bipartite(EXPECTED_ORBITS):
        raise AssertionError(f"{len(edges)} edges, not the complete bipartite graph on the orbits")


def _check_matching() -> None:
    c1 = codes_mod.TernaryCode.from_generators(*codes_mod.SELFDUAL_GENERATORS[0])
    for w in sorted(c1.words):
        if any(w):
            codes_mod.matching_element(w)
    for i in range(4):
        g = codes_mod.K4[i]
        v, w = codes_mod.C1_LABELED_WORDS[i], codes_mod.C2_LABELED_WORDS[i]
        if g.apply_word(v) != w or g.apply_word(w) != v:
            raise AssertionError(f"{g} does not exchange the labeled words at index {i}")
        if codes_mod.matching_element(v) is not g:
            raise AssertionError(f"labeled word {i} matches {codes_mod.matching_element(v)}")


def _check_basis_change() -> None:
    base = build_family().L.generators
    derived = tuple(from_standard(col) for col in STANDARD_BASIS_COLUMNS)
    if derived != base:
        raise AssertionError("base generators differ from the converted standard columns")
    std = Lattice(STANDARD_BASIS_COLUMNS, "std")
    if std.covolume != 1:
        raise AssertionError(f"standard-basis matrix has |det| {std.covolume}, expected 1")
    # conjugating the standard matrices by the eigenbasis matrix must give
    # the diagonal forms: g_std * u_j = diag_j * u_j columnwise, here for
    # the integer columns 4 u_j of J - 2I
    for g in codes_mod.K4:
        for j in range(4):
            col = tuple(row[j] for row in _J_MINUS_2I)
            if _matvec(g.standard, col) != tuple(g.diag[j] * x for x in col):
                raise AssertionError(f"{g} is not diagonal on eigenvector {j}")


def _check_indices() -> None:
    fam = build_family()
    checks = (
        (fam.L1, fam.L, 9),
        (fam.L2, fam.L, 9),
        (fam.L12, fam.L1, 3),
        (fam.L12, fam.L2, 3),
        (fam.M, fam.L1, 9),
        (fam.M, fam.L2, 9),
        (fam.M, fam.L, 81),
    )
    for sub, ambient, expected in checks:
        got = sub.index_in(ambient)
        if got != expected:
            raise AssertionError(f"[{ambient.name}:{sub.name}] = {got}, expected {expected}")


def _check_common_sublattice() -> None:
    fam = build_family()
    tripled = Lattice(tuple(tuple(3 * x for x in g) for g in fam.L.generators), "3L")
    if tripled != fam.M:
        raise AssertionError("3L and M have different normal forms")
    if fam.M.index_in(fam.L12) != 3:
        raise AssertionError("M is not index 3 in the intersection")


def _check_alt_generators() -> None:
    fam = build_family()
    if Lattice(ALT_L2_COLUMNS, "altL2") != fam.L2:
        raise AssertionError("alternative generators do not span L2")
    if Lattice(ALT_L1_COLUMNS, "altL1") != fam.L1:
        raise AssertionError("alternative generators do not span L1")
    classical_first = tuple(tuple(s * x for s, x in zip(SIGN_FLIP, col)) for col in ALT_L1_COLUMNS)
    if any(fam.L.contains(col) for col in classical_first):
        # the flip genuinely matters: the classical form is isometric to L1
        # but lies outside the base lattice entirely
        raise AssertionError("classical first lattice unexpectedly meets the base lattice")


def _keeps(lattice: Lattice, diag) -> bool:
    """Whether a diagonal sign matrix maps the lattice onto itself.  Its
    determinant is +-1, so an image inside the lattice is the whole lattice:
    it suffices that each generator's image lies in it."""
    return all(
        lattice.contains(tuple(s * x for s, x in zip(diag, g))) for g in lattice.generators
    )


def _check_isospectral() -> None:
    # the coset map proves it at every budget and point.  psi applies one
    # four-group sign matrix g to the whole class r + M of a representative
    # r (the class is read mod 3, and M lies in 3Z^4), and g M = M, so it
    # maps r + M onto psi(r) + M.  Distinct images mod M mean distinct
    # classes, which with [L1:M] = 9 cover L1; the images lie in L2 and with
    # [L2:M] = 9 cover it.  So psi is a bijection from L1 onto L2, and as a
    # sign matrix on each class it keeps phi.
    fam = build_family()
    for g in codes_mod.K4:
        if not _keeps(fam.M, g.diag):
            raise AssertionError(f"{g} does not map M onto M")
    images = []
    for label in ALL_LABELS:
        rep = label.representative()
        if not fam.L1.contains(rep):
            raise AssertionError(f"the representative {rep} of {label} lies outside L1")
        image = psi(rep)
        if not fam.L2.contains(image):
            raise AssertionError(f"psi maps the representative {rep} of {label} outside L2")
        images.append(image)
    for u, w in combinations(images, 2):
        if fam.M.contains(tuple(x - y for x, y in zip(u, w))):
            raise AssertionError(f"the images {u} and {w} lie in one coset of M")
    for lattice in (fam.L1, fam.L2):
        index = fam.M.index_in(lattice)
        if index != len(images):
            raise AssertionError(f"[{lattice.name}:M] = {index}, not {len(images)}")


def _check_kernel_identity() -> None:
    # both kernels are bihomogeneous of degree (2, 2) in (l, k) (the tests
    # pin this).  For each probe k their difference is a quadratic form in
    # l that vanishes at every probe, so it vanishes for every l; then for
    # each l it is a quadratic form in k that vanishes at every probe.  So
    # agreement on these 100 pairs is agreement on every pair.
    for l in FORM_PROBES:
        for k in FORM_PROBES:
            if defining_coeffs(l, k) != pairwise_coeffs(l, k):
                raise AssertionError(f"kernels disagree at {l}, {k}")


def _check_class_premises() -> None:
    """The finite premises of the class restriction (see the ``discrepancy``
    module docstring): equal and opposite labels leave no slot; each
    representative lies in its class and negation maps it into the opposite
    class, so negation maps each class onto its opposite; and for each slot
    some four-group sign matrix that maps M onto M separates it, an
    involution of the zero class that negates the slot's kernel."""
    fam = build_family()
    L1, M = fam.L1, fam.M
    for label in ALL_LABELS:
        for other in (label, -label):
            if _class_slots(label, other):
                raise AssertionError(f"classes {label} and {other} leave a slot")
        rep = label.representative()
        if not L1.contains(rep) or coset_label(rep) != label:
            raise AssertionError(f"the representative {rep} of {label} lies outside its class")
        opposite = coset_label(tuple(-x for x in rep))
        if opposite != -label:
            raise AssertionError(f"negation maps {label} into {opposite}")
    keepers = [g.diag for g in codes_mod.K4 if _keeps(M, g.diag)]
    for s, t in combinations(range(4), 2):
        if not any(diag[s] != diag[t] for diag in keepers):
            raise AssertionError(f"no sign matrix that keeps M separates slot ({s}, {t})")


def _check_routes() -> None:
    if delta_series(24, Route.FROM_THETA) != delta_series(24, Route.FROM_PSI_KERNEL):
        raise AssertionError("the two discrepancy routes differ at budget 24")


def _check_decomposition() -> None:
    # the nine labels name the nine classes of L1 modulo M, so the 81
    # ordered label pairs cover L1 x L1, and the class restriction (whose
    # premises ``class relations`` checks) leaves the six distinct positive
    # pairs, whose sum ``route equivalence`` compares at budget 24
    fam = build_family()
    if fam.M.index_in(fam.L1) != len(ALL_LABELS):
        raise AssertionError(f"[L1:M] = {fam.M.index_in(fam.L1)}, not {len(ALL_LABELS)}")


def _check_min_vectors() -> None:
    # the box holds every order-minimal vector, so its minimal members are
    # the class's minimal vectors, and they must be the stated ones
    fam = build_family()
    for j in range(4):
        if not fam.M.contains(tuple(M_PERIOD * (n == j) for n in range(4))):
            raise AssertionError(f"{M_PERIOD} e_{j} does not lie in M")
    r = BOX_RADIUS
    box: dict[CosetLabel, list] = {}
    for v in fam.L1._walk_box(r):
        box.setdefault(coset_label(v), []).append(v)
    for i, rep in enumerate(COSET_REPS):
        found = sorted(_order_minimal(box.get(CosetLabel(i, 1), []), phi))
        extra = EXPECTED_EXTRA_MINIMAL.get(i)
        expected = sorted([rep] if extra is None else [rep, extra])
        if found != expected:
            raise AssertionError(
                f"class {i}: the box [-{r}, {r}]^4 gives {found}, expected {expected}"
            )


def _check_min_pairs() -> None:
    rows = minimal_pair_table(MIN_PAIR_BUDGET)
    table = tuple(((row.i, row.j), row.exponent) for row in rows)
    if table != EXPECTED_PAIR_TABLE:
        raise AssertionError(f"pair table has {len(table)} rows and differs from the expected 18")
    leading = tuple(row.exponent for row in minimal_rows(rows))
    if leading != tuple(e for e, _, _ in LEADING_ENTRY):
        raise AssertionError(f"order-minimal rows {leading}")


def _check_leading(budget: int) -> None:
    # each stated row from its table row: the pair's kernel must pass the
    # chain-form check and be the stated polynomial, and its chain form
    # the stated monomial alone (the ``certify`` docstring gives why this
    # proves the entry at every point and budget)
    table = {row.exponent: row for row in minimal_rows(minimal_pair_table(MIN_PAIR_BUDGET))}
    wrong = []
    for e, poly, (c, u, v) in LEADING_ENTRY:
        row = table.get(e)
        if row is None:
            wrong.append(f"no order-minimal table row at {e}")
            continue
        vector = pair_discrepancy_vector(*row.vectors)
        chain = check_chain_form(e, vector)
        kernel = ParamPolynomial._of_vector(vector)
        if kernel != poly:
            wrong.append(f"coefficient at {e} is {kernel}")
        elif chain != [c if slot == (u, v) else 0 for slot in QUAD_SLOTS]:
            wrong.append(f"coefficient at {e} is not {c}*x{u + 1}*x{v + 1} in chain coordinates")
    if wrong:
        raise AssertionError("; ".join(wrong))
    # the integral example is a tie, so its certificate holds both rows, in
    # their order
    cert = certify(SCHIEMANN, budget)
    if cert.verdict is not Verdict.NON_ISOMETRIC:
        raise AssertionError(f"verdict {cert.verdict.value} at the integral example")
    found = [(term.exponent_vector, term.polynomial) for term in cert.terms]
    if found != [(e, poly) for e, poly, _ in LEADING_ENTRY]:
        raise AssertionError("; ".join(f"coefficient at {e} is {poly}" for e, poly in found))
    if (cert.min_exponent, cert.total) != SCHIEMANN_TERM:
        raise AssertionError(f"leading term ({cert.min_exponent}, {cert.total})")


def run_verification(budget: int) -> list[AnchorResult]:
    """Run every anchor; raises ``TypeError`` for a budget that is not an
    ``int`` and ``ValueError`` for one below ``MIN_PAIR_BUDGET``."""
    if check_budget(budget) < MIN_PAIR_BUDGET:
        raise ValueError(f"verification budget must be at least {MIN_PAIR_BUDGET}, got {budget}")
    checks = (
        ("code census", _check_code_census),
        ("code orbits", _check_orbits),
        ("intersection graph", _check_graph),
        ("code matching", _check_matching),
        ("basis change", _check_basis_change),
        ("lattice indices", _check_indices),
        ("common sublattice", _check_common_sublattice),
        ("alternative generators", _check_alt_generators),
        ("isospectrality", _check_isospectral),
        ("kernel identity", _check_kernel_identity),
        ("class relations", _check_class_premises),
        ("route equivalence", _check_routes),
        ("class decomposition", _check_decomposition),
        ("minimal vectors", _check_min_vectors),
        ("minimal pairs", _check_min_pairs),
        ("leading coefficients", lambda: _check_leading(budget)),
    )
    return [_result(name, check) for name, check in checks]
