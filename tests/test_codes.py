from itertools import product

import pytest

from isopair import (
    K4,
    TernaryCode,
    intersection_graph,
    matching_element,
    orbit_partition,
    selfdual_codes,
    two_dim_subspaces,
)
from isopair import codes
from isopair.codes import (
    C1_LABELED_WORDS,
    C2_LABELED_WORDS,
    SELFDUAL_GENERATORS,
    normalize,
    word_dot,
)
from isopair.lattices import _matvec

from conftest import generator_matvec, generator_normalize, generator_span_pair, generator_word_dot

IDENTITY = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def span_pair(g1, g2) -> frozenset:
    """The nine words two independent words span."""
    return TernaryCode.from_generators(g1, g2).words


def matmul(m, n):
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(4)) for j in range(4)) for i in range(4)
    )


class TestK4:
    def test_group_table(self):
        g0, g1, g2, g3 = K4
        assert g0.standard == IDENTITY
        assert g3.standard == matmul(g2.standard, g1.standard)
        for g in K4:
            assert matmul(g.standard, g.standard) == IDENTITY
            assert tuple(x * x for x in g.diag) == (1, 1, 1, 1)

    def test_orthogonal(self):
        for g in K4:
            m = g.standard
            transpose = tuple(tuple(m[j][i] for j in range(4)) for i in range(4))
            assert matmul(transpose, m) == IDENTITY

    def test_preserves_ternary_form(self):
        words = list(product(range(3), repeat=4))[:30]
        for g in K4:
            for u in words:
                for v in words:
                    assert word_dot(g.apply_word(u), g.apply_word(v)) == word_dot(u, v)


def spanned_word_pairs() -> frozenset:
    """Reference census: the span of every independent pair of the 80
    nonzero words, 3160 pairs in all."""
    nonzero = [w for w in product(range(3), repeat=4) if any(w)]
    seen = set()
    for i, g1 in enumerate(nonzero):
        for g2 in nonzero[i + 1 :]:
            try:
                seen.add(span_pair(g1, g2))
            except ValueError:
                continue  # dependent pair
    return frozenset(seen)


class TestCensus:
    def test_130_subspaces(self):
        assert len(two_dim_subspaces()) == 130

    def test_matches_the_span_of_every_word_pair(self):
        assert two_dim_subspaces() == spanned_word_pairs()

    def test_each_line_lies_in_13_subspaces(self):
        nonzero = [w for w in product(range(3), repeat=4) if any(w)]
        lines = {frozenset({(0, 0, 0, 0), w, normalize(tuple(2 * x for x in w))}) for w in nonzero}
        assert len(lines) == 40
        subspaces = two_dim_subspaces()
        for line in lines:
            assert sum(line <= words for words in subspaces) == 13, sorted(line)

    def test_echelon_pairs_are_listed_once_in_normal_form(self):
        pairs = codes._echelon_generator_pairs()
        assert codes._echelon_generator_pairs() is pairs
        assert len(set(pairs)) == 130
        assert all(normalize(w) == w for pair in pairs for w in pair)

    def test_census_normalizes_only_the_canonical_generators(self, monkeypatch):
        # the census spans its pairs as listed; only the eight canonical
        # pairs it is compared with are normalized, once per word
        calls = []
        monkeypatch.setattr(codes, "normalize", lambda w: calls.append(w) or normalize(w))
        selfdual_codes.cache_clear()
        try:
            assert len(two_dim_subspaces()) == 130
            assert calls == []
            selfdual_codes()
            assert calls == [w for pair in SELFDUAL_GENERATORS for w in pair]
        finally:
            selfdual_codes.cache_clear()

    def test_eight_selfdual(self):
        eight = selfdual_codes()
        assert len(eight) == 8
        # every pair of words is orthogonal, not just the generators
        for code in eight:
            for u in code.words:
                for v in code.words:
                    assert word_dot(u, v) == 0

    def test_first_code_generators(self):
        first = selfdual_codes()[0]
        assert first == TernaryCode.from_generators((1, 0, -1, -1), (0, 1, 1, -1))

    def test_canonical_generators_reduced(self):
        for code in selfdual_codes():
            g1, g2 = code.generators
            assert g1[0] == 1 and g1[1] == 0
            assert g2[0] == 0 and g2[1] == 1


class TestAction:
    def test_identity_fixes_codes(self):
        for code in selfdual_codes():
            assert code.transformed(K4[0]) == code

    def test_orbits(self):
        eight = selfdual_codes()
        orbit1 = {eight.index(eight[0].transformed(g)) for g in K4}
        orbit2 = {eight.index(eight[1].transformed(g)) for g in K4}
        assert orbit1 == {0, 2, 4, 6}  # C1, C3, C5, C7
        assert orbit2 == {1, 3, 5, 7}  # C2, C4, C6, C8
        assert orbit_partition(eight) == (frozenset(orbit1), frozenset(orbit2))

    def test_transformed_spans_the_image_words(self):
        for code in selfdual_codes():
            for g in K4:
                image = code.transformed(g)
                assert image.words == frozenset(g.apply_word(w) for w in code.words)
                assert image.generators == tuple(g.apply_word(w) for w in code.generators)

    def test_selfduality_preserved(self):
        for code in selfdual_codes():
            for g in K4:
                assert codes._selfdual_pair(*code.transformed(g).generators)


class TestGraph:
    def test_complete_bipartite(self):
        eight = selfdual_codes()
        edges = intersection_graph(eight)
        assert len(edges) == 16
        parts = orbit_partition(eight)
        assert edges == frozenset(frozenset({i, j}) for i in parts[0] for j in parts[1])

    def test_specific_edges(self):
        eight = selfdual_codes()
        edges = intersection_graph(eight)
        assert frozenset({0, 1}) in edges  # C1 -- C2
        assert frozenset({0, 2}) not in edges  # C1 -/- C3


class TestMatching:
    def test_labeled_words(self):
        c1 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[0])
        c2 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[1])
        for i in range(4):
            v, w = C1_LABELED_WORDS[i], C2_LABELED_WORDS[i]
            assert v in c1 and w in c2
            assert K4[i].apply_word(v) == w
            assert K4[i].apply_word(w) == v

    def test_examples(self):
        assert matching_element((1, -1, 1, 0)) is K4[0]
        g = matching_element((-1, 0, 1, 1))
        assert g is K4[2]
        assert g.apply_word((-1, 0, 1, 1)) == normalize((0, -1, -1, -1))

    def test_unique_for_every_nonzero_word(self):
        c1 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[0])
        c2 = TernaryCode.from_generators(*SELFDUAL_GENERATORS[1])
        for w in sorted(c1.words):
            if not any(w):
                continue
            hits = [g for g in K4 if g.apply_word(w) in c2]
            assert len(hits) == 1
            assert matching_element(w) is hits[0]

    def test_spans_c1_and_c2_once(self, monkeypatch):
        # the anchor's eight calls, one per nonzero word of C1, from an
        # empty cache
        words = [w for w in sorted(span_pair(*SELFDUAL_GENERATORS[0])) if any(w)]
        spans = []
        build = TernaryCode.from_generators.__func__

        def counted(cls, g1, g2):
            spans.append((g1, g2))
            return build(cls, g1, g2)

        monkeypatch.setattr(TernaryCode, "from_generators", classmethod(counted))
        codes._c1_c2.cache_clear()
        assert len(words) == 8
        for w in words:
            matching_element(w)
        assert spans == list(SELFDUAL_GENERATORS[:2])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            matching_element((0, 0, 0, 0))
        with pytest.raises(ValueError):
            matching_element((1, 0, 0, 0))


def test_word_normalization():
    assert normalize((-1, 0, 1, -2)) == (2, 0, 1, 1)
    with pytest.raises(ValueError):
        normalize((1, 2, 0))


def _outcome(f, *args):
    """What a call returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


WORDS = list(product((-1, 0, 1), repeat=4))  # all 81 words, unreduced


class TestWordPrimitivesOracle:
    """The unpacked primitives against the generator-expression oracles of
    ``conftest``, values and exceptions alike."""

    def test_normalize_on_every_word(self):
        for w in WORDS:
            assert _outcome(normalize, w) == _outcome(generator_normalize, w)

    @pytest.mark.parametrize("w", [(), (1, 2, 3), (1, 2, 3, 4, 5), [4, -1, 2, 7], 5, "0120"], ids=repr)
    def test_normalize_off_the_words(self, w):
        assert _outcome(normalize, w) == _outcome(generator_normalize, w)

    def test_word_dot_on_every_pair(self):
        reduced = [generator_normalize(w) for w in WORDS]
        for u in reduced:
            for v in reduced:
                assert word_dot(u, v) == generator_word_dot(u, v)

    def test_matvec_on_every_word(self):
        shear = ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, -2), (3, 0, 0, 1))
        for m in [g.standard for g in K4] + [shear]:
            for w in WORDS:
                assert _matvec(m, w) == generator_matvec(m, w)

    def test_span_pair_on_every_pair(self):
        dependent = 0
        for u in WORDS:
            for v in WORDS:
                got = _outcome(span_pair, u, v)
                assert got == _outcome(generator_span_pair, u, v)
                dependent += isinstance(got, tuple)
        # pairs with u or v zero, or v = +-u for nonzero u
        assert dependent == 81 + 80 + 80 * 2
