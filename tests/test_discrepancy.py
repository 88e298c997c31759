import os
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import floor, isqrt, prod

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

import isopair
from isopair import (
    ALL_LABELS,
    COSET_REPS,
    Certificate,
    CosetLabel,
    FormalQSeries,
    Kernel,
    Lattice,
    ParamPoint,
    ParamPolynomial,
    Route,
    Verdict,
    build_family,
    certify,
    check_relations,
    coset_label,
    delta_series,
    exp_below,
    minimal_pair_table,
    minimal_rows,
    phi,
    psi,
    rep_series,
    run_verification,
    theta11,
)
from isopair import discrepancy, qarith, verification
from isopair.discrepancy import (
    LEADING_ENTRY,
    MIN_PAIR_BUDGET,
    CertTerm,
    RelationReport,
    _CHAIN_MAP,
    check_chain_form,
    check_route,
    pair_discrepancy_vector,
)
from isopair.qarith import QUAD_MONOS, QUAD_SLOTS, check_budget
from isopair.verification import (
    EXPECTED_EXTRA_MINIMAL,
    EXPECTED_PAIR_TABLE,
    SCHIEMANN,
    SCHIEMANN_TERM,
)

from conftest import (
    CANCELLING_TIE,
    COPRIME,
    SMALL,
    VARIABLES,
    ZERO_SECOND_ROW,
    add_series,
    admissible_samples,
    class_pair_series,
    collapse_points,
    evaluate,
    fraction_collapse,
    fraction_delta,
    fraction_evaluate,
    fraction_pair_sum,
    mono_vector,
    pair_discrepancy_kernel,
    poly_series,
    scale_series,
    sigma,
)

BOLD_FIRST, BOLD_SECOND = (e for e, _, _ in LEADING_ENTRY)

COORDINATES = st.builds(Fraction, st.integers(1, 400), st.integers(1, 20))


@st.composite
def admissible_points(draw) -> ParamPoint:
    """Four distinct positive rationals in a drawn order; about half are tie
    points, 5b + d = 15a + 3c once sorted, where both leading exponents
    collapse to one value."""
    values = draw(st.lists(COORDINATES, min_size=4, max_size=4, unique=True))
    if draw(st.booleans()):
        a, b, c, _ = sorted(values)
        d = 15 * a + 3 * c - 5 * b
        assume(d > c)
        values = [a, b, c, d]
    return ParamPoint(*draw(st.permutations(values)))


def _off_by_one_theta11(lattice, budget, kernel):
    """``theta11`` with one added to the ``a^2`` term of L1's invariant at q^0."""
    series = theta11(lattice, budget, kernel)
    if lattice == build_family().L1:
        one = FormalQSeries(budget, {(0, 0, 0, 0): [1] + [0] * (len(QUAD_MONOS) - 1)})
        series = add_series(series, one)
    return series


class TestRoutes:
    @pytest.mark.parametrize("budget", [12, 24, 36, 40])
    def test_equivalence(self, budget):
        series = delta_series(budget)
        assert series == fraction_delta(budget)
        assert series == delta_series(budget, Route.FROM_THETA)

    def test_matches_the_fraction_oracle_at_budget_80(self):
        assert delta_series(80) == fraction_delta(80)

    def test_theta_route_refuses_a_difference_not_divisible_by_128(self, monkeypatch):
        # one extra unit in the L1 invariant leaves 1/128 at q^0, which the
        # route must refuse rather than round
        monkeypatch.setattr(discrepancy, "theta11", _off_by_one_theta11)
        with pytest.raises(ValueError, match="not an integer"):
            delta_series(24, Route.FROM_THETA)

    def test_integer_pair_kernel_matches_the_polynomial_one(self):
        shell = build_family().L1.vectors(24)
        for l in shell[::7]:
            for k in shell[::5]:
                vector = pair_discrepancy_vector(l, k)
                single = FormalQSeries(0, {(0, 0, 0, 0): vector})
                assert single.coefficient((0, 0, 0, 0)) == pair_discrepancy_kernel(l, k)

    def test_m_pairs_contribute_nothing(self):
        fam = build_family()
        zero = CosetLabel.zero()
        assert class_pair_series(zero, zero, 40).is_zero
        # directly: the bijection is the identity on M, so each kernel is zero
        for m in fam.M.vectors(36):
            for m2 in fam.M.vectors(36):
                assert pair_discrepancy_kernel(m, m2).is_zero

    def test_collapse_at_the_integral_example(self):
        collapsed = delta_series(40, Route.FROM_PSI_KERNEL).collapse(SCHIEMANN)
        assert collapsed[0] == SCHIEMANN_TERM
        assert collapsed[1] == (Fraction(168), Fraction(1152))

    def test_collapse_at_small_point(self):
        collapsed = delta_series(40, Route.FROM_PSI_KERNEL).collapse(SMALL)
        assert collapsed[0] == (Fraction(44), Fraction(-12))

    def test_first_coefficient_vanishes_when_a_equals_b(self):
        poly = delta_series(40, Route.FROM_PSI_KERNEL).coefficient(BOLD_FIRST)
        for point in (ParamPoint(2, 2, 5, 7), ParamPoint(Fraction(1, 3), Fraction(1, 3), 1, 9)):
            assert evaluate(poly, point) == 0


class TestClassSeries:
    def test_corollary_decomposition(self):
        # the six distinct positive class pairs sum to the discrepancy
        total = add_series(
            *(class_pair_series(CosetLabel(i, 1), CosetLabel(j, 1), 24)
              for i, j in combinations(range(4), 2))
        )
        assert total == fraction_delta(24)

    def test_all_ordered_pairs_sum_to_eight_discrepancies(self):
        # the 81 ordered label pairs cover L1 x L1; the class-decomposition
        # anchor proves this from finite premises
        pairs = product(ALL_LABELS, repeat=2)
        total = add_series(*(class_pair_series(*pair, 24) for pair in pairs))
        assert scale_series(total, Fraction(1, 8)) == delta_series(24, Route.FROM_PSI_KERNEL)

    @pytest.mark.parametrize("label1", ALL_LABELS, ids=str)
    def test_every_label_pair_matches_the_fraction_oracle(self, label1):
        # all 81 ordered pairs, including the zero class, equal and opposite
        # classes, and class 0, on which psi is the identity
        shell = build_family().L1.vectors(24)
        members = {label: [v for v in shell if coset_label(v) == label] for label in ALL_LABELS}
        for label2 in ALL_LABELS:
            expected = fraction_pair_sum(members[label1], members[label2], 24)
            assert class_pair_series(label1, label2, 24) == expected, (label1, label2)

    def test_bold_coefficients_sit_in_their_class_series(self):
        v0, v1, v2 = (CosetLabel(i, 1) for i in range(3))
        first = class_pair_series(v0, v2, 40).coefficient(BOLD_FIRST)
        second = class_pair_series(v1, v2, 40).coefficient(BOLD_SECOND)
        assert (first, second) == tuple(poly for _, poly, _ in LEADING_ENTRY)


@lru_cache(maxsize=None)
def built_series() -> dict:
    """Series as the package builds them: the six class series, ``theta11``
    under both kernels and both discrepancy routes."""
    fam = build_family()
    built = {
        f"class-{i}{j}-40": class_pair_series(CosetLabel(i, 1), CosetLabel(j, 1), 40)
        for i, j in combinations(range(4), 2)
    }
    for kernel in Kernel:
        built[f"theta11-{kernel.value}-24"] = theta11(fam.L1, 24, kernel)
    for route, budget in product(Route, (24, 40)):
        built[f"delta-{route.value}-{budget}"] = delta_series(budget, route)
    return built


@pytest.mark.parametrize("name", sorted(built_series()))
def test_built_series_hold_nonzero_ten_int_tuples(name):
    series = built_series()[name]
    assert not series.is_zero
    for vector in series.terms.values():
        assert type(vector) is tuple and len(vector) == len(QUAD_MONOS)
        assert all(type(x) is int for x in vector) and any(vector)


IDENTITY_FIELDS = ("name", "generators", "hnf", "covolume")


def _labelled_budgets(monkeypatch) -> list:
    """The budgets of the L1 shells labelled from here on, in call order."""
    budgets = []
    labelled_shell = discrepancy._labelled_shell

    def counted(budget):
        budgets.append(budget)
        return labelled_shell(budget)

    monkeypatch.setattr(discrepancy, "_labelled_shell", counted)
    return budgets


class TestCaches:
    def test_distinct_budgets_stay_within_the_bounds(self):
        fam = build_family()
        for budget in range(30):
            delta_series(budget)
        for route in Route:
            for budget in range(36, 53):
                certify(SCHIEMANN, budget, route)
        for budget in range(10, 200, 10):
            fam.L1.vectors(budget)
            rep_series(fam.L1, budget)
            theta11(fam.M, budget)
        # a lattice carries its identity and nothing keyed on a budget
        assert Lattice.__slots__ == IDENTITY_FIELDS
        for lattice in fam:
            assert not hasattr(lattice, "__dict__")

    def test_certify_sweep_labels_no_shell(self, monkeypatch):
        budgets = _labelled_budgets(monkeypatch)
        for route in Route:
            for budget in [*range(36, 53), 160]:
                certify(SCHIEMANN, budget, route)
        # the stated entry serves every budget and route asked for
        assert budgets == []

    def test_call_forms_share_the_class_series(self, monkeypatch):
        sums = []
        pair_series = discrepancy.pair_series

        def counted(*args):
            sums.append(args[2])
            return pair_series(*args)

        monkeypatch.setattr(discrepancy, "pair_series", counted)
        budgets = _labelled_budgets(monkeypatch)
        forms = (
            delta_series(36),
            delta_series(36, Route.FROM_PSI_KERNEL),
            delta_series(36, route=Route.FROM_PSI_KERNEL),
        )
        assert forms[0] == forms[1] == forms[2]
        # whatever the call form, the psi route labels its shell once and
        # sums the six class series at its budget, once each
        assert budgets == [36] * 3
        assert sums == [36] * 18

    def test_relations_label_one_shell(self, monkeypatch):
        budgets = _labelled_budgets(monkeypatch)
        assert check_relations(24).ok
        assert budgets == [24]

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "after-int-call"])
    def test_float_budget_is_refused(self, warm):
        fam = build_family()
        calls = (
            lambda budget: certify(SCHIEMANN, budget),
            lambda budget: delta_series(budget),
            lambda budget: theta11(fam.L1, budget),
        )
        for call in calls:
            if warm:
                call(40)
            with pytest.raises(TypeError):
                call(40.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: delta_series(24, "theta"),
            lambda: certify(SCHIEMANN, 40, "theta"),
            lambda: theta11(build_family().L1, 4, "defining"),
            # a member of the other enum is refused too
            lambda: delta_series(24, Kernel.PAIRWISE),
            lambda: theta11(build_family().L1, 4, Route.FROM_THETA),
        ],
        ids=["delta_series", "certify", "theta11", "delta_series-kernel", "theta11-route"],
    )
    def test_route_or_kernel_outside_its_enum_is_refused(self, call, monkeypatch):
        budgets = _labelled_budgets(monkeypatch)
        with pytest.raises(TypeError):
            call()
        # refused before a shell is labelled
        assert budgets == []


V0, V1, ZERO = CosetLabel(0, 1), CosetLabel(1, 1), CosetLabel.zero()

# identity -> the ordered class pairs whose series get one extra term, which
# makes it the first to fail; the checks made up to the failure (nine for
# equal classes, then two per ordered pair, then one per zero-class pair);
# and the labels it reports
RELATION_BREAKS = {
    "equal-classes": ([(V0, V0)], 2, ("[+v0]",)),
    "symmetry": ([(V0, V1)], 9 + 2 * 9 + 2 * 3 + 1, ("[+v0]", "[+v1]")),
    "sign-invariance": ([(V0, V1), (V1, V0)], 9 + 2 * 9 + 2 * 3 + 2, ("[+v0]", "[+v1]")),
    "zero-class": ([(ZERO, V0), (ZERO, -V0), (V0, ZERO), (-V0, ZERO)], 9 + 2 * 81 + 2, ("[+v0]",)),
}


class TestRelations:
    def test_all_hold_at_budget_24(self):
        report = check_relations(24)
        assert report.ok, report
        assert report.checked == 9 + 2 * 81 + 9

    @pytest.mark.parametrize("violated", RELATION_BREAKS)
    def test_first_violation_is_reported(self, monkeypatch, violated):
        pairs, checked, labels = RELATION_BREAKS[violated]
        witness = (1, 2, 3, 4)
        extra = FormalQSeries(24, {witness: [1] + [0] * (len(QUAD_MONOS) - 1)})
        class_sum = discrepancy._class_sum

        def perturbed(shell, label1, label2, budget):
            series = class_sum(shell, label1, label2, budget)
            return add_series(series, extra) if (label1, label2) in pairs else series

        monkeypatch.setattr(discrepancy, "_class_sum", perturbed)
        assert check_relations(24) == RelationReport(False, checked, violated, labels, witness)

    def test_specific_identities(self):
        v0, v2 = CosetLabel(0, 1), CosetLabel(2, 1)
        assert class_pair_series(v0, v0, 24).is_zero
        assert class_pair_series(CosetLabel.zero(), v2, 24).is_zero
        assert class_pair_series(v0, -v2, 24) == class_pair_series(v0, v2, 24)
        assert class_pair_series(v0, v2, 24) == class_pair_series(v2, v0, 24)
        assert not class_pair_series(v0, v2, 24).is_zero


@lru_cache(maxsize=None)
def _box(radius: int) -> tuple:
    """The vectors of L1 in the box [-radius, radius]^4."""
    L1 = build_family().L1
    return tuple(v for v in product(range(-radius, radius + 1), repeat=4) if L1.contains(v))


def _box_minimal(label: CosetLabel, radius: int) -> set:
    """The order-minimal members of a class among the box's vectors."""
    members = [v for v in _box(radius) if coset_label(v) == label]
    return {v for v in members if not any(exp_below(phi(w), phi(v)) for w in members)}


def _stated_minimal(i: int) -> set:
    """The stated minimal vectors of class i: its representative and its
    extra minimal vector, if it has one."""
    extra = EXPECTED_EXTRA_MINIMAL.get(i)
    return {COSET_REPS[i]} if extra is None else {COSET_REPS[i], extra}


class TestMinimalVectors:
    @pytest.mark.parametrize("radius, count", [(2, 1), (6, 209)])
    def test_walk_is_the_box(self, radius, count):
        # the walk on the normal form, the product oracle and the box's
        # vectors of the shell that holds the box, in one order
        L1 = build_family().L1
        walked = tuple(L1._walk_box(radius))
        shell = tuple(v for v in L1.vectors(4 * radius * radius) if max(map(abs, v)) <= radius)
        assert walked == _box(radius) == shell
        assert len(walked) == count

    @pytest.mark.parametrize("j", range(4))
    def test_twelve_e_j_lies_in_m_and_six_e_j_does_not(self, j):
        # so v -/+ 12 e_j is a class member below any v with |v_j| > 6
        M = build_family().M
        assert M.contains(tuple(12 * int(i == j) for i in range(4)))
        assert not M.contains(tuple(6 * int(i == j) for i in range(4)))

    @pytest.mark.parametrize("i", range(4))
    def test_box_bound_holds_every_minimal_vector(self, i):
        # every order-minimal class member lies in [-6, 6]^4, and there the
        # minimal members are the stated ones
        assert _box_minimal(CosetLabel(i, 1), 6) == _stated_minimal(i)

    def test_smaller_box_misses_a_minimal_vector(self):
        v = EXPECTED_EXTRA_MINIMAL[0]
        label = coset_label(v)
        assert label == CosetLabel(0, 1)
        assert v not in _box_minimal(label, 2)

    def test_dominated_members_are_excluded(self):
        label = CosetLabel(2, 1)
        minimal = _box_minimal(label, 6)
        fam = build_family()
        others = [
            v for v in fam.L1.vectors(36) if coset_label(v) == label and v not in minimal
        ]
        assert others, "budget 36 should contain non-minimal class members"
        for v in others:
            assert any(exp_below(phi(m), phi(v)) for m in minimal)


class TestMinimalPairTable:
    def test_minimal_rows(self):
        leading = minimal_rows(minimal_pair_table(36))
        assert tuple((row.i, row.j) for row in leading) == ((0, 2), (2, 5))
        assert not exp_below(BOLD_FIRST, BOLD_SECOND) and not exp_below(BOLD_SECOND, BOLD_FIRST)

    def test_table_stable_under_larger_budget(self):
        table = tuple(((row.i, row.j), row.exponent) for row in minimal_pair_table(44))
        assert table == EXPECTED_PAIR_TABLE

    def test_budget_must_cover_the_table(self):
        with pytest.raises(ValueError, match=r"^pair table needs budget >= 36 to see every"):
            minimal_pair_table(MIN_PAIR_BUDGET - 1)

    def test_threshold_is_the_leading_exponents_square_sum(self):
        # 36 is what the leading coefficients need; the minimal vectors have
        # square sums of at most 24: 12 for the representatives, 24 for the
        # extra ones
        assert MIN_PAIR_BUDGET == max(sum(e) for e, _, _ in LEADING_ENTRY) == 36
        for i in range(4):
            sums = {v: sum(phi(v)) for v in _box_minimal(CosetLabel(i, 1), 6)}
            extra = {EXPECTED_EXTRA_MINIMAL[i]: 24} if i in EXPECTED_EXTRA_MINIMAL else {}
            assert sums == {COSET_REPS[i]: 12, **extra}

    def test_every_distinct_class_pair_is_dominated(self):
        # any pair of shell vectors from distinct nonzero classes either hits a
        # bold exponent or lies strictly above one of them, or at least has a
        # larger evaluated exponent at every sampled admissible point
        fam = build_family()
        shell = fam.L1.vectors(36)
        labels = {v: coset_label(v) for v in shell}
        samples = admissible_samples(83, 10)
        for l in shell:
            for k in shell:
                lab_l, lab_k = labels[l], labels[k]
                if lab_l.is_zero or lab_k.is_zero or lab_l.index == lab_k.index:
                    continue
                e = tuple(x + y for x, y in zip(phi(l), phi(k)))
                if e in (BOLD_FIRST, BOLD_SECOND):
                    continue
                above_first = exp_below(BOLD_FIRST, e)
                above_second = exp_below(BOLD_SECOND, e)
                sigma_above = all(
                    sigma(e, p) > min(sigma(BOLD_FIRST, p), sigma(BOLD_SECOND, p))
                    for p in samples
                )
                assert above_first or above_second or sigma_above, (l, k, e)


@pytest.mark.parametrize("budget", ["36", None, True], ids=repr)
@pytest.mark.parametrize("entry", [run_verification, minimal_pair_table], ids=lambda f: f.__name__)
def test_budget_type_checked_before_the_threshold(entry, budget):
    with pytest.raises(TypeError, match=rf"^budget must be an int, got {re.escape(repr(budget))}$"):
        entry(budget)


class TestCertify:
    def test_integral_example(self):
        cert = certify(SCHIEMANN, 40)
        assert cert.verdict is Verdict.NON_ISOMETRIC
        assert (cert.min_exponent, cert.total) == SCHIEMANN_TERM
        values = {tuple(t.exponent_vector): t.value for t in cert.terms}
        assert values == {BOLD_FIRST: Fraction(-432), BOLD_SECOND: Fraction(-576)}

    def test_small_point(self):
        cert = certify(SMALL, 40)
        assert cert.verdict is Verdict.NON_ISOMETRIC
        assert cert.min_exponent == 44
        assert cert.total == -12
        assert tuple(t.exponent_vector for t in cert.terms) == (BOLD_FIRST,)

    def test_unsorted_params_are_sorted_first(self):
        cert = certify(ParamPoint(19, 7, 1, 13), 40)
        assert cert.sorted_params == SCHIEMANN
        assert type(cert.params) is tuple and type(cert.sorted_params) is tuple
        assert cert.permutation == (2, 1, 3, 0)
        assert cert.total == SCHIEMANN_TERM[1]
        assert cert.verdict is Verdict.NON_ISOMETRIC

    def test_repeated_parameter_is_inconclusive(self):
        cert = certify(ParamPoint(1, 1, 2, 3), 40)
        assert cert.verdict is Verdict.INCONCLUSIVE
        assert cert.terms == () and cert.total is None and cert.min_exponent is None

    @pytest.mark.parametrize("budget", [40.0, True], ids=["float", "bool"])
    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    @pytest.mark.parametrize("point", [ParamPoint(1, 1, 2, 3), SCHIEMANN], ids=["repeated", "distinct"])
    def test_budget_type_checked_first(self, point, route, budget):
        with pytest.raises(TypeError) as shell_error:
            build_family().L1.vectors(budget)
        with pytest.raises(TypeError) as error:
            certify(point, budget, route)
        assert str(error.value) == str(shell_error.value)

    @pytest.mark.parametrize(
        "point", [(1, 7, 13, 19), [1, 7, 13, 19], "1 7 13 19"], ids=["tuple", "list", "str"]
    )
    def test_point_type_checked_after_the_budget_and_route(self, point):
        with pytest.raises(TypeError, match=r"^point must be a ParamPoint, got "):
            certify(point, 40)
        with pytest.raises(TypeError, match=r"^point must be a ParamPoint, got "):
            certify(point, MIN_PAIR_BUDGET - 1)
        # the budget and the route are checked first
        with pytest.raises(TypeError, match=r"^budget must be an int"):
            certify(point, 40.0)
        with pytest.raises(TypeError, match=r"^route must be a Route"):
            certify(point, 40, "psi")

    def test_int_subclass_budget_gives_the_same_certificate(self):
        class Budget(int):
            pass

        for point in (SCHIEMANN, COPRIME):
            cert = certify(point, Budget(40))
            assert cert == certify(point, 40) and repr(cert) == repr(certify(point, 40))
            assert cert.to_json_dict() == certify(point, 40).to_json_dict()

    @pytest.mark.parametrize(
        "budget, route, check, value",
        [
            (True, Route.FROM_PSI_KERNEL, check_budget, True),
            (40.0, Route.FROM_PSI_KERNEL, check_budget, 40.0),
            (40, "psi", check_route, "psi"),
        ],
        ids=["bool", "float", "str-route"],
    )
    def test_type_errors_are_the_shared_checks(self, budget, route, check, value):
        with pytest.raises(TypeError) as expected:
            check(value)
        with pytest.raises(TypeError) as error:
            certify(SCHIEMANN, budget, route)
        assert str(error.value) == str(expected.value)
        assert str(error.value).endswith(f", got {value!r}")

    def test_warm_certify_enters_only_its_helpers(self):
        # the Python frames a warm call enters in the package, and the
        # records' generated constructors; on 3.10 and 3.11 a comprehension
        # is a frame of its own, so this also pins that none is on the path
        package = os.path.dirname(isopair.__file__) + os.sep
        records = {
            CertTerm.__new__.__code__: "CertTerm.__new__",
            Certificate.__new__.__code__: "Certificate.__new__",
        }
        for point, terms in ((COPRIME, 1), (SCHIEMANN, 2)):
            certify(point, 40)
            entered = set()

            def profile(frame, event, arg):
                code = frame.f_code
                if event == "call" and (code.co_filename.startswith(package) or code in records):
                    entered.add(records.get(code, code.co_name))

            sys.setprofile(profile)
            try:
                cert = certify(point, 40)
            finally:
                sys.setprofile(None)
            assert len(cert.terms) == terms
            assert entered == {"certify", "_sort_cleared"}

    def test_certify_on_either_route_runs_no_enum_frame(self):
        # the route is only checked, by its type, and selects nothing: no
        # Python frame of enum.py runs on either route
        for route in Route:
            files = set()

            def profile(frame, event, arg):
                if event == "call":
                    files.add(os.path.basename(frame.f_code.co_filename))

            sys.setprofile(profile)
            try:
                certify(SCHIEMANN, 40, route)
            finally:
                sys.setprofile(None)
            assert "enum.py" not in files, files

    def test_no_polynomial_arithmetic_on_the_hot_path(self, monkeypatch):
        # a warm certify works on the integer chain monomials of its leading
        # entry: the point is cleared and sorted once per call; polynomials
        # have no arithmetic, and nothing builds weights, collapses a whole
        # series or clears the point again
        names = ("_sort_cleared", "_weights", "_cleared", "_collapse")
        calls = {name: 0 for name in names}

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)

            return call

        for name in ("__mul__", "__rmul__", "__add__", "__sub__", "__neg__", "evaluate"):
            assert not hasattr(ParamPolynomial, name), name
        certify(SCHIEMANN, 40)
        monkeypatch.setattr(
            discrepancy, "_sort_cleared", counted("_sort_cleared", discrepancy._sort_cleared)
        )
        for name in ("_weights", "_cleared"):
            monkeypatch.setattr(qarith, name, counted(name, getattr(qarith, name)))
        monkeypatch.setattr(
            FormalQSeries, "_collapse", counted("_collapse", FormalQSeries._collapse)
        )
        points = collapse_points(101, 20)
        assert all(len(set(p)) == 4 for p in points)
        terms = sum(len(certify(p, 40).terms) for p in points)
        # the tie points of ``collapse_points`` give two terms
        assert terms == len(points) + len(points) // 4
        assert calls == {
            "_sort_cleared": len(points), "_weights": 0, "_cleared": 0, "_collapse": 0,
        }

    def test_budget_below_threshold_rejected(self):
        with pytest.raises(ValueError, match=r"^certification needs budget >= 36 to cover the"):
            certify(SCHIEMANN, MIN_PAIR_BUDGET - 1)

    def test_nonpositive_params_rejected(self):
        with pytest.raises(ValueError):
            certify(ParamPoint(1, 2, 3, Fraction(-1, 2)), 40)

    def test_negative_leading_coefficient_on_samples(self):
        for p in admissible_samples(89, 20):
            cert = certify(p, 40)
            assert cert.verdict is Verdict.NON_ISOMETRIC
            assert cert.total < 0
            assert all(t.value < 0 for t in cert.terms)

    def test_certificate_terms_match_min_sigma(self):
        for p in admissible_samples(97, 10):
            cert = certify(p, 40)
            expected_min = min(sigma(BOLD_FIRST, p), sigma(BOLD_SECOND, p))
            assert cert.min_exponent == expected_min
            for term in cert.terms:
                assert sigma(term.exponent_vector, p) == expected_min

    def test_scaling_the_point_scales_the_certificate(self):
        # exponents are linear and coefficients quadratic in the point, and
        # scaling changes the point's common denominator
        for p in collapse_points(41, 40):
            unsorted = ParamPoint(*reversed(p))
            cert = certify(unsorted, 40)
            for k in (Fraction(3, 7), Fraction(5), Fraction(11, 2)):
                scaled = certify(ParamPoint(*(k * x for x in unsorted)), 40)
                assert scaled.permutation == cert.permutation == (3, 2, 1, 0)
                assert scaled.min_exponent == k * cert.min_exponent
                assert scaled.total == k * k * cert.total
                assert [t.value for t in scaled.terms] == [k * k * t.value for t in cert.terms]

    def test_coprime_denominators_match_the_fraction_reference(self):
        p = ParamPoint(Fraction(13, 4), Fraction(1, 7), Fraction(5, 11), Fraction(2, 9))
        ordered = ParamPoint(*sorted(p))
        cert = certify(p, 40)
        assert cert.sorted_params == ordered and cert.permutation == (1, 3, 2, 0)
        assert (cert.min_exponent, cert.total) == fraction_collapse(fraction_delta(40), ordered)[0]
        for term in cert.terms:
            assert sigma(term.exponent_vector, ordered) == cert.min_exponent
            assert term.value == fraction_evaluate(term.polynomial, ordered)

    @given(admissible_points())
    def test_certificates_match_the_fraction_reference(self, p):
        ordered = ParamPoint(*sorted(p))
        cert = certify(p, 40)
        assert cert.sorted_params == ordered
        assert (cert.min_exponent, cert.total) == fraction_collapse(fraction_delta(40), ordered)[0]
        assert cert.total == sum(term.value for term in cert.terms)
        for term in cert.terms:
            assert sigma(term.exponent_vector, ordered) == cert.min_exponent
            assert term.value == fraction_evaluate(term.polynomial, ordered)

    def test_certify_builds_no_pair_table(self, monkeypatch):
        # the stated entry holds the table's two leading rows, which the
        # anchors prove; certify reads no table and evaluates no kernel
        calls = []

        def counted(name, function):
            def call(*args):
                calls.append(name)
                return function(*args)

            return call

        for name in ("minimal_pair_table", "minimal_rows", "pair_discrepancy_vector"):
            monkeypatch.setattr(discrepancy, name, counted(name, getattr(discrepancy, name)))
        for point in (SCHIEMANN, SMALL, COPRIME):
            certify(point, 40)
        assert calls == []

    def test_json_dict_round_trips(self):
        cert = certify(SCHIEMANN, 40)
        payload = cert.to_json_dict()
        point = ParamPoint(*(Fraction(x) for x in payload["sorted_params"]))
        total = Fraction(0)
        for term in payload["terms"]:
            value = sum(
                Fraction(coeff) * prod(x**power for x, power in zip(point, mono))
                for mono, coeff in term["polynomial"]
            )
            assert value == Fraction(term["value"])
            total += value
        assert total == Fraction(payload["total"])
        assert payload["verdict"] == "NonIsometric"


def check_series_leads_at_the_entry(series: FormalQSeries) -> None:
    """The entry against a series: each row's polynomial is the series'
    coefficient at its exponent, and every other exponent of the series
    lies strictly above a row in the suffix order."""
    exponents = tuple(e for e, _, _ in LEADING_ENTRY)
    for e, poly, _ in LEADING_ENTRY:
        assert series.coefficient(e) == poly, e
    for e in series.terms:
        assert e in exponents or any(exp_below(f, e) for f in exponents), e


class TestLeadingData:
    def test_rows_are_the_kernels_of_the_minimal_pairs(self):
        # each stated row is its order-minimal table pair's kernel, in
        # table order
        rows = minimal_rows(minimal_pair_table(MIN_PAIR_BUDGET))
        assert [
            (row.exponent, ParamPolynomial._of_vector(pair_discrepancy_vector(*row.vectors)))
            for row in rows
        ] == [(e, poly) for e, poly, _ in LEADING_ENTRY]

    @pytest.mark.parametrize(
        "budget, route, count",
        [
            (40, Route.FROM_PSI_KERNEL, 200),
            (40, Route.FROM_THETA, 8),
            (36, Route.FROM_PSI_KERNEL, 8),
            (44, Route.FROM_PSI_KERNEL, 8),
        ],
        ids=["psi-40", "theta-40", "psi-36", "psi-44"],
    )
    def test_derived_entry_gives_the_stated_certificates(self, monkeypatch, budget, route, count):
        # the entry built from the pair table, the pair kernels and their
        # chain forms, as the anchors prove it, certifies every point as the
        # stated one does
        points = collapse_points(331, count)
        stated = [certify(p, budget, route).to_json_dict() for p in points]
        monkeypatch.setattr(discrepancy, "LEADING_ENTRY", _derived_entry())
        for p, expected in zip(points, stated):
            assert certify(p, budget, route).to_json_dict() == expected, p
        # the ties reach the certificate as two terms
        ties = sum(len(payload["terms"]) == 2 for payload in stated)
        assert ties >= count // 4

    @pytest.mark.parametrize(
        "budget, route, count",
        [
            (36, Route.FROM_PSI_KERNEL, 200),
            (40, Route.FROM_PSI_KERNEL, 200),
            (80, Route.FROM_PSI_KERNEL, 200),
            (160, Route.FROM_PSI_KERNEL, 20),
            (40, Route.FROM_THETA, 200),
        ],
        ids=["psi-36", "psi-40", "psi-80", "psi-160", "theta-40"],
    )
    def test_rows_lead_where_the_whole_series_does(self, budget, route, count):
        series = delta_series(budget, route)
        assert [(e, poly) for e, poly, _ in LEADING_ENTRY] == [
            (e, series.coefficient(e)) for e, _, _ in LEADING_ENTRY
        ]
        # each row's chain monomial is the one nonzero entry of the chain
        # form of its polynomial
        for _, poly, (coefficient, u, v) in LEADING_ENTRY:
            assert chain_form(mono_vector(poly)) == [
                coefficient if slot == (u, v) else 0 for slot in QUAD_SLOTS
            ]
        for p in collapse_points(337, count):
            cert = certify(p, budget, route)
            ordered = ParamPoint(*cert.sorted_params)
            assert (cert.min_exponent, cert.total) == series.collapse(ordered)[0], p

    @pytest.mark.parametrize(
        "budget, route",
        [
            (36, Route.FROM_PSI_KERNEL),
            (40, Route.FROM_PSI_KERNEL),
            (80, Route.FROM_PSI_KERNEL),
            (160, Route.FROM_PSI_KERNEL),
            (40, Route.FROM_THETA),
            (80, Route.FROM_THETA),
        ],
        ids=["psi-36", "psi-40", "psi-80", "psi-160", "theta-40", "theta-80"],
    )
    def test_whole_series_lies_at_or_above_a_leading_row(self, budget, route):
        # the stated entry's rows are the series' coefficients, and every
        # other exponent of the series lies strictly above a row
        check_series_leads_at_the_entry(delta_series(budget, route))

    @pytest.mark.parametrize(
        "entry, point, terms",
        [(CANCELLING_TIE, SCHIEMANN, 2), (ZERO_SECOND_ROW, COPRIME, 1)],
        ids=["tie", "one-leader"],
    )
    def test_cancelling_leaders_fail_every_call(self, monkeypatch, entry, point, terms):
        # the leaders' values sum to zero, at a tie and at a one-term point,
        # so the collapse does not lead at the least row key
        assert len(certify(point, 40).terms) == terms
        monkeypatch.setattr(discrepancy, "LEADING_ENTRY", entry)
        for route in (*Route, *Route):
            with pytest.raises(
                AssertionError,
                match=r"^collapsed series does not lead at the minimal pair exponent$",
            ):
                certify(point, 40, route)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda series: scale_series(series, 2),
            lambda series: add_series(series, FormalQSeries(
                series.budget, {(1, 0, 0, 0): [1] + [0] * (len(QUAD_MONOS) - 1)})),
            lambda series: add_series(series, FormalQSeries(
                series.budget, {BOLD_FIRST: [-1] + [0] * (len(QUAD_MONOS) - 1)})),
        ],
        ids=["doubled", "term-below", "second-chain-monomial"],
    )
    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    def test_a_corrupted_route_leaves_its_certificates_unchanged(
        self, monkeypatch, corrupt, route
    ):
        # certify reads no series, so each route's series is an oracle of
        # the tests: corrupted, it leaves that route's certificates as they
        # were, and fails the tests' comparison with the entry
        points = (SCHIEMANN, COPRIME, SMALL)
        expected = [certify(p, 40, route) for p in points]
        good = delta_series

        def series(budget, chosen):
            return corrupt(good(budget, chosen)) if chosen is route else good(budget, chosen)

        monkeypatch.setattr(discrepancy, "delta_series", series)
        corrupted = series(MIN_PAIR_BUDGET, route)
        assert corrupted != good(MIN_PAIR_BUDGET)
        with pytest.raises(AssertionError):
            check_series_leads_at_the_entry(corrupted)
        assert [certify(p, 40, route) for p in points] == expected


# The chain coordinates x = (x1, x2, x3, x4) of a sorted point: a = x1,
# b = x1 + x2, c = x1 + x2 + x3 and d = x1 + x2 + x3 + x4, all positive at a
# pairwise-distinct point.  p_s p_t is then the sum of x_i x_j over i <= s,
# j <= t, so a form on ``QUAD_MONOS`` in (a, b, c, d) maps to one on
# ``QUAD_MONOS`` in x by this fixed integer matrix, one row per x-slot.
CHAIN_MAP = tuple(
    tuple(
        sum((min(i, j), max(i, j)) == (u, v) for i in range(s + 1) for j in range(t + 1))
        for s, t in QUAD_SLOTS
    )
    for u, v in QUAD_SLOTS
)


def chain_form(vector) -> list[int]:
    return [sum(m * x for m, x in zip(row, vector)) for row in CHAIN_MAP]


def negative_in_chain_coordinates(vector) -> bool:
    """Whether a form is negative at every pairwise-distinct sorted point
    because its chain form has no positive and some negative coefficient:
    every x_i x_j is positive there."""
    chain = chain_form(vector)
    return all(x <= 0 for x in chain) and any(x < 0 for x in chain)


class TestChainCoordinates:
    """The paper's theorem on the leading rows: each is one negative
    monomial in the chain coordinates, so every leading value, and a tie's
    sum, is negative at every pairwise-distinct point."""

    def test_chain_map_matches_sympy(self):
        p, x = sympy.symbols("a b c d"), sympy.symbols("x1:5")
        chain = dict(zip(p, (sum(x[: i + 1]) for i in range(4))))
        for column, (s, t) in enumerate(QUAD_SLOTS):
            form = sympy.Poly(sympy.expand((p[s] * p[t]).subs(chain)), *x)
            expected = [int(form.coeff_monomial(mono)) for mono in QUAD_MONOS]
            assert [row[column] for row in CHAIN_MAP] == expected, (s, t)

    @given(admissible_points())
    def test_every_row_value_is_negative_at_a_sorted_point(self, p):
        ordered = ParamPoint(*sorted(p))
        for _, poly, _ in LEADING_ENTRY:
            assert fraction_evaluate(poly, ordered) < 0, poly

    def test_package_chain_map_is_the_checked_one(self):
        assert _CHAIN_MAP == CHAIN_MAP

    @pytest.mark.parametrize("route", list(Route), ids=lambda r: r.value)
    def test_leading_rows_are_negative_chain_monomials(self, route):
        # each route's budget-36 series, at the one entry's exponents
        rows = LEADING_ENTRY
        series = delta_series(MIN_PAIR_BUDGET, route)
        chains = {e: chain_form(series.terms[e]) for e, _, _ in rows}
        # -12 x2 x4 and -96 x1 x3
        expected = {BOLD_FIRST: {(1, 3): -12}, BOLD_SECOND: {(0, 2): -96}}
        assert {
            e: {slot: x for slot, x in zip(QUAD_SLOTS, chain) if x} for e, chain in chains.items()
        } == expected
        assert all(negative_in_chain_coordinates(mono_vector(poly)) for _, poly, _ in rows)
        # the package's check returns the chain form it checked, and the
        # entry keeps its one monomial
        assert all(check_chain_form(e, mono_vector(poly)) == chains[e] for e, poly, _ in rows)
        assert {e: {(u, v): c} for e, _, (c, u, v) in rows} == expected

    def test_a_positive_mutant_row_fails(self):
        # +24(b - a)(d - c) turns the row -12(b - a)(d - c) into +12 x2 x4
        a, b, c, d = VARIABLES
        (e, poly, _), _ = LEADING_ENTRY
        assert e == BOLD_FIRST
        mutant = mono_vector(24 * (b - a) * (d - c) + poly)
        assert chain_form(mutant) == [12 if slot == (1, 3) else 0 for slot in QUAD_SLOTS]
        assert not negative_in_chain_coordinates(mutant)
        with pytest.raises(
            AssertionError,
            match=r"^coefficient at \(10, 10, 2, 2\) has chain coefficient 12 on x2\*x4$",
        ):
            check_chain_form(e, mutant)

    def test_a_unit_chain_coefficient_fails(self):
        # a^2 is x1*x1 in chain coordinates: the least positive coefficient
        with pytest.raises(
            AssertionError,
            match=r"^coefficient at \(10, 10, 2, 2\) has chain coefficient 1 on x1\*x1$",
        ):
            check_chain_form(BOLD_FIRST, [1] + [0] * (len(QUAD_MONOS) - 1))

    def test_a_zero_row_fails(self):
        with pytest.raises(
            AssertionError,
            match=r"^coefficient at \(10, 10, 2, 2\) has no negative chain coefficient$",
        ):
            check_chain_form(BOLD_FIRST, [0] * len(QUAD_MONOS))

    def test_a_positive_mutant_row_fails_its_anchor(self, monkeypatch):
        # +24(b - a)(d - c) turns the first row's kernel into +12 x2 x4
        a, b, c, d = VARIABLES
        expected = _certificates()
        _shift_first_row(monkeypatch, mono_vector(24 * (b - a) * (d - c)))
        assert _failures() == {"leading coefficients": (
            "coefficient at (10, 10, 2, 2) has chain coefficient 12 on x2*x4"
        )}
        assert _certificates() == expected

    def test_a_second_chain_monomial_fails_its_anchor(self, monkeypatch):
        # -a^2 turns the first row's kernel into -12 x2 x4 - x1 x1: still
        # negative at every sorted point, but not the stated row
        a, b, c, d = VARIABLES
        shift = mono_vector(-1 * (a * a))
        assert chain_form(shift) == [-1 if slot == (0, 0) else 0 for slot in QUAD_SLOTS]
        expected = _certificates()
        _shift_first_row(monkeypatch, shift)
        assert _failures() == {"leading coefficients": (
            "coefficient at (10, 10, 2, 2) is -12*b*d + 12*b*c + 12*a*d - 12*a*c - a^2"
        )}
        assert _certificates() == expected

    def test_a_third_row_fails_minimal_pairs(self, monkeypatch):
        # certify reads exactly two rows: a repeated first row is proved by
        # its kernel, but the table's order-minimal rows are not the entry's
        good = minimal_rows

        def rows(table):
            first, second = good(table)
            return first, second, first

        expected = _certificates()
        _patch_both(monkeypatch, "minimal_rows", rows)
        assert _failures() == {
            "minimal pairs": "order-minimal rows ((10, 10, 2, 2), (25, 5, 5, 1), (10, 10, 2, 2))"
        }
        assert _certificates() == expected

    def test_two_table_rows_at_one_exponent_fail_their_anchors(self, monkeypatch):
        # a second table pair at the first row's exponent: the series'
        # coefficient there would be the sum of two kernels, not the one
        # kernel the entry states, and the second row has no table pair
        good = minimal_rows

        def rows(table):
            first, _ = good(table)
            return first, first._replace(i=first.j, j=first.i, vectors=first.vectors[::-1])

        expected = _certificates()
        _patch_both(monkeypatch, "minimal_rows", rows)
        assert _failures() == {
            "minimal pairs": "order-minimal rows ((10, 10, 2, 2), (10, 10, 2, 2))",
            "leading coefficients": "no order-minimal table row at (25, 5, 5, 1)",
        }
        assert _certificates() == expected


def _derived_entry() -> tuple:
    """The leading entry built from the order-minimal table rows: each
    row's exponent, its pair kernel as a polynomial, and the one nonzero
    entry of that kernel's chain form as ``(coefficient, u, v)``."""
    entry = []
    for row in minimal_rows(minimal_pair_table(MIN_PAIR_BUDGET)):
        vector = pair_discrepancy_vector(*row.vectors)
        chain = check_chain_form(row.exponent, vector)
        (monomial,) = [(x, u, v) for (u, v), x in zip(QUAD_SLOTS, chain) if x]
        entry.append((row.exponent, ParamPolynomial._of_vector(vector), monomial))
    return tuple(entry)


def _certificates() -> list:
    return [certify(p, 40, route) for p in (SCHIEMANN, COPRIME, SMALL) for route in Route]


def _failures() -> dict:
    return {r.anchor: r.witness for r in run_verification(MIN_PAIR_BUDGET) if not r.ok}


def _patch_both(monkeypatch, name, value):
    """Replace ``name`` in ``discrepancy``, which defines it, and in
    ``verification``, whose anchors read it."""
    for module in (discrepancy, verification):
        monkeypatch.setattr(module, name, value)


def _shift_first_row(monkeypatch, shift):
    """Add ``shift`` to the pair kernel of the first leading row, which the
    ``leading coefficients`` anchor reads."""
    good_kernel = pair_discrepancy_vector

    def kernel(l, k):
        vector = good_kernel(l, k)
        if tuple(x + y for x, y in zip(phi(l), phi(k))) == BOLD_FIRST:
            return tuple(x + y for x, y in zip(vector, shift))
        return vector

    _patch_both(monkeypatch, "pair_discrepancy_vector", kernel)


def _moved(x, tau):
    out = [0] * 4
    for i, xi in enumerate(x):
        out[tau[i]] = xi
    return tuple(out)


def _sign(tau) -> int:
    return (-1) ** sum(tau[i] > tau[j] for i in range(4) for j in range(i + 1, 4))


def _permuted(series: FormalQSeries, tau) -> FormalQSeries:
    """The series with exponent slot and monomial slot i both moved to tau[i]."""
    return poly_series(
        series.budget,
        {
            _moved(e, tau): ParamPolynomial(
                {_moved(m, tau): c for m, c in series.coefficient(e).as_pairs()}
            )
            for e in series
        },
    )


class TestAlternating:
    """The discrepancy is alternating under S4: with suitable signs, an odd
    permutation of the eigenbasis slots carries L1 onto L2 and an even one
    carries L1 onto itself, so the discrepancy collapses to zero wherever
    two parameters coincide."""

    @pytest.mark.parametrize(
        "budget, route",
        [
            (24, Route.FROM_PSI_KERNEL),
            (24, Route.FROM_THETA),
            (40, Route.FROM_PSI_KERNEL),
            (40, Route.FROM_THETA),
            (80, Route.FROM_PSI_KERNEL),
        ],
    )
    def test_series_is_alternating(self, budget, route):
        series = delta_series(budget, route)
        assert not series.is_zero
        for tau in permutations(range(4)):
            assert _permuted(series, tau) == scale_series(series, _sign(tau)), tau

    @pytest.mark.parametrize("budget", [24, 40])
    def test_permuted_invariant_of_l1(self, budget):
        # a signed permutation moves the exponent and monomial slots of the
        # pair sum together: an odd tau carries the L1 invariant onto the L2
        # one, an even tau leaves it fixed
        fam = build_family()
        first, second = theta11(fam.L1, budget), theta11(fam.L2, budget)
        assert first != second
        for tau in permutations(range(4)):
            assert _permuted(first, tau) == (second if _sign(tau) < 0 else first), tau

    @pytest.mark.parametrize(
        "coords",
        [(1, 1, 2, 3), (1, 2, 2, 3), (1, 3, 5, 3), (Fraction(1, 2), Fraction(1, 2), Fraction(7, 3), 5)],
    )
    @pytest.mark.parametrize("budget", [40, 80])
    def test_collapse_vanishes_at_repeated_parameters(self, coords, budget):
        assert delta_series(budget).collapse(ParamPoint(*coords)) == ()


def ellipsoid_shell(lattice: Lattice, p: ParamPoint, bound: Fraction) -> list:
    """The vectors ``v`` of the lattice with ``a*v0^2 + b*v1^2 + c*v2^2 +
    d*v3^2 <= bound`` at ``p = (a, b, c, d)`` (Fincke & Pohst 1985): for a
    diagonal Gram matrix the integer points of the ellipsoid follow from
    nested ``isqrt`` bounds on one coordinate after another, and membership
    filters them."""
    out = []

    def walk(prefix, rest):
        if len(prefix) == 4:
            if lattice.contains(prefix):
                out.append(prefix)
            return
        x = p[len(prefix)]
        r = isqrt(floor(rest / x))
        for v in range(-r, r + 1):
            walk(prefix + (v,), rest - x * v * v)

    walk((), bound)
    return out


def ellipsoid_discrepancy(p: ParamPoint, bound: Fraction) -> dict:
    """The discrepancy at a sorted point, up to the exponent ``bound``: 1/8 of
    ``<l,k>^2 - <psi l,psi k>^2`` summed in Fractions over the ordered pairs
    of L1 with ``norm(l) + norm(k) <= bound``, as exponent -> nonzero
    coefficient.  It reads neither the suffix order nor a budget."""
    shell = ellipsoid_shell(build_family().L1, p, bound)

    def inner(v, w):
        return sum(x * s * t for x, s, t in zip(p, v, w))

    norms = {v: inner(v, v) for v in shell}
    images = {v: psi(v) for v in shell}
    coefficients: dict = {}
    for l in shell:
        for k in shell:
            x = norms[l] + norms[k]
            if x <= bound:
                kernel = inner(l, k) ** 2 - inner(images[l], images[k]) ** 2
                coefficients[x] = coefficients.get(x, 0) + kernel
    return {x: c / 8 for x, c in coefficients.items() if c}


# Schiemann's point and two more lie on the tie 5b + d = 15a + 3c, where both
# leading rows collapse to one exponent
ELLIPSOID_POINTS = {
    "schiemann": SCHIEMANN,
    "coprime": COPRIME,
    "hundredth": ParamPoint(Fraction(1, 100), 1, 2, 3),
    "thousandth": ParamPoint(Fraction(1, 1000), 1, Fraction(1001, 1000), 2),
    "tie-integer": ParamPoint(1, 2, 3, 14),
    "tie-rational": ParamPoint(Fraction(1, 2), 1, Fraction(5, 3), Fraction(15, 2)),
}


class TestEllipsoidOracle:
    """The certificate's claim checked pointwise by enumeration: below its
    minimal exponent the discrepancy has no term, and at it the coefficient
    is the certificate's total."""

    @pytest.mark.parametrize("name", sorted(ELLIPSOID_POINTS))
    def test_certificate_matches_the_ellipsoid_sum(self, name):
        p = ELLIPSOID_POINTS[name]
        cert = certify(p, 40)
        assert cert.verdict is Verdict.NON_ISOMETRIC
        a, b, c, d = point = ParamPoint(*cert.sorted_params)
        assert len(cert.terms) == (2 if 5 * b + d == 15 * a + 3 * c else 1)
        bound = cert.min_exponent
        assert ellipsoid_discrepancy(point, bound) == {bound: cert.total}

    def test_shell_matches_the_budget_scan_at_schiemann(self):
        # at (1, 7, 13, 19) every vector of norm at most 144 has a
        # coordinate-square sum of at most 144
        shell = ellipsoid_shell(build_family().L1, SCHIEMANN, Fraction(144))
        scan = build_family().L1.vectors(144)
        norms = [sum(x * s * s for x, s in zip(SCHIEMANN, v)) for v in scan]
        assert shell == [v for v, n in zip(scan, norms) if n <= 144] and len(shell) == 23
