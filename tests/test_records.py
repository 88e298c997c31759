"""The value semantics of the package's nine record types.

Each record is an immutable value: equal fields give equal records with
equal hashes, a field cannot be assigned, and ``repr`` shows
``Name(field=value, ...)``.  The constructors that validate their fields
keep refusing what they refuse.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import isopair
from isopair import (
    K4,
    Certificate,
    CosetLabel,
    K4Element,
    LatticeFamily,
    ParamPoint,
    Verdict,
    build_family,
    certify,
)
from isopair.discrepancy import CertTerm, PairRow, RelationReport
from isopair.verification import AnchorResult


def _family_with_m_first():
    fam = build_family()
    return LatticeFamily(fam.M, fam.L1, fam.L2, fam.L12, fam.L)


# name: (a fresh record, its field names, a record differing in one field)
RECORDS = {
    "ParamPoint": (
        lambda: ParamPoint(1, 7, 13, 19),
        ("a", "b", "c", "d"),
        lambda: ParamPoint(1, 7, 13, 20),
    ),
    "CosetLabel": (lambda: CosetLabel(2, -1), ("index", "sign"), lambda: CosetLabel(2, 1)),
    "K4Element": (
        lambda: K4Element("g1", K4[1].standard, K4[1].diag),
        ("name", "standard", "diag"),
        lambda: K4Element("g1", K4[1].standard, K4[2].diag),
    ),
    "LatticeFamily": (
        lambda: LatticeFamily(*build_family()),
        ("L", "L1", "L2", "L12", "M"),
        _family_with_m_first,
    ),
    "RelationReport": (
        lambda: RelationReport(False, 3, "symmetry", ("[+v0]", "[+v1]"), (1, 9, 1, 1)),
        ("ok", "checked", "violated", "labels", "witness"),
        lambda: RelationReport(False, 3, "symmetry", ("[+v0]", "[+v1]"), (1, 9, 1, 3)),
    ),
    "PairRow": (
        lambda: PairRow(0, 1, (2, 10, 2, 10), ((-1, 3, -1, 1), (1, -1, -1, 3))),
        ("i", "j", "exponent", "vectors"),
        lambda: PairRow(0, 2, (2, 10, 2, 10), ((-1, 3, -1, 1), (1, -1, -1, 3))),
    ),
    "CertTerm": (
        lambda: certify(ParamPoint(1, 7, 13, 19)).terms[0],
        ("exponent_vector", "polynomial", "value"),
        lambda: certify(ParamPoint(1, 7, 13, 19)).terms[1],
    ),
    "Certificate": (
        lambda: certify(ParamPoint(19, 7, 1, 13)),
        ("params", "sorted_params", "permutation", "budget", "min_exponent", "terms",
         "total", "verdict"),
        lambda: certify(ParamPoint(19, 7, 1, 14)),
    ),
    "AnchorResult": (
        lambda: AnchorResult("minimal pairs", False, "pair table has 17 rows"),
        ("anchor", "ok", "witness"),
        lambda: AnchorResult("minimal pairs", True),
    ),
}
NAMES = sorted(RECORDS)


@pytest.mark.parametrize("name", NAMES)
def test_equal_fields_give_equal_records_and_hashes(name):
    make, _, other = RECORDS[name]
    first, second = make(), make()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != other()


@pytest.mark.parametrize("name", NAMES)
def test_fields_cannot_be_assigned(name):
    make, fields, _ = RECORDS[name]
    record = make()
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_names_every_field(name):
    make, fields, _ = RECORDS[name]
    record = make()
    shown = ", ".join(f"{field}={getattr(record, field)!r}" for field in fields)
    assert repr(record) == f"{name}({shown})"


def test_family_iterates_in_construction_order():
    fam = build_family()
    assert tuple(fam) == (fam.L, fam.L1, fam.L2, fam.L12, fam.M)
    assert [lattice.name for lattice in fam] == ["L", "L1", "L2", "L12", "M"]


def test_point_coerces_to_fractions():
    p = ParamPoint(1, "7/2", Fraction(13), 19)
    assert p == (Fraction(1), Fraction(7, 2), Fraction(13), Fraction(19))
    assert all(type(x) is Fraction for x in p)
    assert str(p) == "(1, 7/2, 13, 19)"


@pytest.mark.parametrize(
    "index, sign", [(4, 1), (-1, 1), (0, 0), (0, 2), (None, 1), (None, -1)], ids=repr
)
def test_label_refuses_a_bad_index_or_sign(index, sign):
    with pytest.raises(ValueError):
        CosetLabel(index, sign)


@pytest.mark.parametrize(
    "index, sign",
    [(True, 1), (1, True), (1.0, 1), (1, 1.0), (None, False), (None, 0.0)],
    ids=repr,
)
def test_label_refuses_a_non_int_index_or_sign(index, sign):
    # ``True`` would print as ``[+vTrue]``, and ``1.0`` fails later as a
    # tuple index in ``representative`` and ``diag``
    with pytest.raises(TypeError, match=r"^coset label index and sign must be ints, got "):
        CosetLabel(index, sign)


def test_certificate_defaults():
    cert = Certificate((Fraction(1),) * 4, (Fraction(1),) * 4, (0, 1, 2, 3), 40)
    assert (cert.min_exponent, cert.terms, cert.total, cert.verdict) == (
        None, (), None, Verdict.INCONCLUSIVE
    )
    assert certify(ParamPoint(1, 1, 2, 3)) == Certificate(
        (1, 1, 2, 3), (1, 1, 2, 3), (0, 1, 2, 3), 40
    )


def test_relation_report_and_anchor_defaults():
    report = RelationReport(True, 10)
    assert (report.violated, report.labels, report.witness) == (None, (), None)
    assert AnchorResult("code census", True).witness is None


def test_no_record_is_built_past_its_constructor():
    # a namedtuple's _make and _replace skip a validating __new__
    for path in Path(isopair.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "._make(" not in text and "._replace(" not in text, path.name



# a namedtuple's ``_replace`` builds its result through ``_make``; both go
# through the validating constructor, so they refuse what it refuses
def test_replace_refuses_a_nonpositive_parameter():
    with pytest.raises(ValueError, match=r"^parameters must be positive, got \(-1, 7, 13, 19\)$"):
        certify(ParamPoint(1, 7, 13, 19)._replace(a=-1))


def test_replace_refuses_a_bool_parameter():
    with pytest.raises(TypeError, match=r"^refusing bool True; pass int, Fraction or string$"):
        certify(ParamPoint(1, 7, 13, 19)._replace(a=True))


def test_replace_refuses_a_float_parameter():
    with pytest.raises(TypeError, match=r"^refusing inexact float 1.5; pass int, Fraction or string$"):
        certify(ParamPoint(1, 7, 13, 19)._replace(a=1.5))


def test_make_refuses_a_bad_coset_label():
    with pytest.raises(ValueError, match=r"^bad coset label \(7, 9\)$"):
        CosetLabel._make([7, 9])


def test_make_and_replace_build_what_the_constructor_builds():
    point = ParamPoint(1, 7, 13, 19)._replace(a="1/2")
    assert point == ParamPoint(Fraction(1, 2), 7, 13, 19) and type(point.a) is Fraction
    assert ParamPoint._make(["1/2", 7, 13, 19]) == point
    assert CosetLabel(1, 1)._replace(sign=-1) == CosetLabel(1, -1)
    assert CosetLabel._make([None, 0]) == CosetLabel.zero()
    with pytest.raises(TypeError, match=r"^coset label index and sign must be ints"):
        CosetLabel(1, 1)._replace(sign=True)
