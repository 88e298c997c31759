"""Ternary codes in F_3^4 and the Kleinian four-group acting on them.

Words are 4-tuples over {0, 1, 2}; the sign convention maps -1 to 2.  A code
here is always a 2-dimensional linear subspace of F_3^4 (9 words), self-dual
when the standard bilinear form vanishes on it.  Of the 130 two-dimensional
subspaces exactly eight are self-dual.  Each subspace has exactly one
reduced echelon generator pair: pivot columns p1 < p2, leading ones, a zero
above the second pivot, and free entries elsewhere after each pivot, so
3^(5 - p1 - p2) pairs per pivot choice and 81 + 27 + 9 + 9 + 3 + 1 = 130 in
all.  A code is built from a generator pair and keeps it;
``two_dim_subspaces`` spans exactly these pairs, and ``selfdual_codes``
runs the census over them.  Every span is checked to have nine words, and
F_3^4 has (3^4-1)(3^4-3)/((3^2-1)(3^2-3)) = 130 two-dimensional subspaces,
so 130 distinct spans are all of them: a subspace missed, or spanned twice
in place of another, shows as a count below 130.

The four-group K4 acts on F_3^4 through signed permutation matrices, each
paired with its diagonal form on eigenbasis coordinates from
``lattices.K4_DIAGS``, and permutes the eight codes in two orbits of four;
joining two codes whenever their intersection has dimension one yields the
complete bipartite graph on the two orbits.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from .lattices import K4_DIAGS, _matvec

Word = tuple[int, int, int, int]
Matrix = tuple[tuple[int, int, int, int], ...]


def normalize(w) -> Word:
    try:
        a, b, c, d = w
    except (TypeError, ValueError):
        # not four entries: reduce what there is, for the message (or for
        # the TypeError of a non-iterable)
        w = tuple(x % 3 for x in w)
        raise ValueError(f"words live in F_3^4, got {w!r}") from None
    return a % 3, b % 3, c % 3, d % 3


def word_dot(u: Word, v: Word) -> int:
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3) % 3


def _selfdual_pair(g1: Word, g2: Word) -> bool:
    """Whether the form vanishes on the span of two normalized words."""
    return word_dot(g1, g1) == word_dot(g2, g2) == word_dot(g1, g2) == 0


def _matmul(m: Matrix, n: Matrix) -> Matrix:
    return tuple(tuple(sum(m[i][k] * n[k][j] for k in range(4)) for j in range(4)) for i in range(4))


class K4Element(namedtuple("K4Element", "name standard diag")):
    """One of the four involutions: a signed permutation on standard
    coordinates, a diagonal sign matrix on eigenbasis coordinates."""

    __slots__ = ()

    def apply_word(self, w: Word) -> Word:
        return normalize(_matvec(self.standard, w))

    def __str__(self):
        return self.name


_ID = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_G1 = ((0, 0, 1, 0), (0, 0, 0, -1), (1, 0, 0, 0), (0, -1, 0, 0))
_G2 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))

K4 = (
    K4Element("g0", _ID, K4_DIAGS[0]),
    K4Element("g1", _G1, K4_DIAGS[1]),
    K4Element("g2", _G2, K4_DIAGS[2]),
    K4Element("g3", _matmul(_G2, _G1), K4_DIAGS[3]),
)


def _span(g1: Word, g2: Word) -> frozenset[Word]:
    """All 9 words i*g1 + j*g2 of two words already in normal form; requires
    the generators to be independent."""
    a0, a1, a2, a3 = g1
    b0, b1, b2, b3 = g2
    # i*g1 + j*g2 for i, then j, in 0, 1, 2
    words = frozenset((
        (0, 0, 0, 0),
        g2,
        (-b0 % 3, -b1 % 3, -b2 % 3, -b3 % 3),
        g1,
        ((a0 + b0) % 3, (a1 + b1) % 3, (a2 + b2) % 3, (a3 + b3) % 3),
        ((a0 - b0) % 3, (a1 - b1) % 3, (a2 - b2) % 3, (a3 - b3) % 3),
        (-a0 % 3, -a1 % 3, -a2 % 3, -a3 % 3),
        ((b0 - a0) % 3, (b1 - a1) % 3, (b2 - a2) % 3, (b3 - a3) % 3),
        (-(a0 + b0) % 3, -(a1 + b1) % 3, -(a2 + b2) % 3, -(a3 + b3) % 3),
    ))
    if len(words) != 9:
        raise ValueError(f"{g1} and {g2} do not span a 2-dimensional subspace")
    return words


class TernaryCode:
    """A 2-dimensional code, built from a generator pair by
    ``from_generators``: it stores the normalized pair and the nine words
    they span.

    The codes of the census are built from their reduced echelon pairs, so
    the eight self-dual codes carry those as ``generators``; a transformed
    code carries the images of its original's generators instead.
    """

    __slots__ = ("words", "generators")

    def __init__(self, generators: tuple[Word, Word], words: frozenset[Word]):
        self.generators = generators
        self.words = words

    @classmethod
    def from_generators(cls, g1: Word, g2: Word) -> "TernaryCode":
        g1, g2 = normalize(g1), normalize(g2)
        return cls((g1, g2), _span(g1, g2))

    def __contains__(self, w) -> bool:
        return normalize(w) in self.words

    @property
    def is_selfdual(self) -> bool:
        return _selfdual_pair(*self.generators)

    def intersection_dim(self, other: "TernaryCode") -> int:
        common = len(self.words & other.words)
        return {1: 0, 3: 1, 9: 2}[common]

    def transformed(self, g: K4Element) -> "TernaryCode":
        g1, g2 = self.generators
        return TernaryCode.from_generators(g.apply_word(g1), g.apply_word(g2))

    def __eq__(self, other):
        if not isinstance(other, TernaryCode):
            return NotImplemented
        return self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return f"TernaryCode{self.generators}"


# Canonical numbering C1..C8 of the eight self-dual codes, by generator pair.
SELFDUAL_GENERATORS: tuple[tuple[Word, Word], ...] = (
    ((1, 0, -1, -1), (0, 1, 1, -1)),
    ((1, 0, -1, 1), (0, 1, 1, 1)),
    ((1, 0, -1, 1), (0, 1, -1, -1)),
    ((1, 0, 1, 1), (0, 1, 1, -1)),
    ((1, 0, 1, -1), (0, 1, 1, 1)),
    ((1, 0, -1, -1), (0, 1, -1, 1)),
    ((1, 0, 1, 1), (0, 1, -1, 1)),
    ((1, 0, 1, -1), (0, 1, -1, -1)),
)

# Labeled nonzero words of C1 and C2: the unique K4 element mapping the i-th
# C1 word into C2 is K4[i], and it exchanges the two words.
C1_LABELED_WORDS: tuple[Word, ...] = tuple(
    normalize(w) for w in ((1, -1, 1, 0), (0, 1, 1, -1), (-1, 0, 1, 1), (-1, -1, 0, -1))
)
C2_LABELED_WORDS: tuple[Word, ...] = tuple(
    normalize(w) for w in ((1, -1, 1, 0), (1, 1, 0, -1), (0, -1, -1, -1), (1, 0, -1, 1))
)


@lru_cache(maxsize=1)
def _echelon_generator_pairs() -> tuple[tuple[Word, Word], ...]:
    """The 130 reduced echelon generator pairs, listed once per process.
    Their entries are 0, 1 and 2, so the words are in normal form."""
    # for pivot columns p1 < p2: g1 has 1 at p1, 0 at p2 and before p1; g2
    # has 1 at p2 and 0 before it; every other entry is free
    pairs = []
    for p1, p2 in combinations(range(4), 2):
        free1 = [i for i in range(p1 + 1, 4) if i != p2]
        free2 = list(range(p2 + 1, 4))
        for values in product(range(3), repeat=len(free1) + len(free2)):
            g1, g2 = [0] * 4, [0] * 4
            g1[p1] = g2[p2] = 1
            for i, x in zip(free1, values):
                g1[i] = x
            for i, x in zip(free2, values[len(free1) :]):
                g2[i] = x
            pairs.append((tuple(g1), tuple(g2)))
    return tuple(pairs)


def two_dim_subspaces() -> frozenset[frozenset[Word]]:
    """All 2-dimensional subspaces of F_3^4 (there are 130), spanned from
    their reduced echelon generator pairs."""
    return frozenset([_span(g1, g2) for g1, g2 in _echelon_generator_pairs()])


@lru_cache(maxsize=1)
def selfdual_codes() -> tuple[TernaryCode, ...]:
    """The eight self-dual codes, found by exhaustive search over the
    reduced echelon generator pairs and returned in canonical numbering;
    the search runs once per process.  Self-duality is tested on each pair's
    generators, and only the pairs that pass are spanned."""
    pairs = [pair for pair in _echelon_generator_pairs() if _selfdual_pair(*pair)]
    # the pairs are in normal form already
    found = {code: code for code in (TernaryCode(pair, _span(*pair)) for pair in pairs)}
    expected = [TernaryCode.from_generators(*gens) for gens in SELFDUAL_GENERATORS]
    if set(found) != set(expected):
        raise AssertionError("self-dual census does not match the canonical list")
    return tuple(found[code] for code in expected)


def orbit_partition(codes: tuple[TernaryCode, ...]) -> tuple[frozenset[int], frozenset[int]]:
    """The two K4 orbits, as 0-based index sets; the orbit of the first code
    comes first.  Raises ``AssertionError`` if an image of a code lies
    outside ``codes`` or the orbits are not two."""
    index = {code: i for i, code in enumerate(codes)}
    orbits: list[frozenset[int]] = []
    assigned: set[int] = set()
    for i, code in enumerate(codes):
        if i in assigned:
            continue
        orbit = set()
        for g in K4:
            image = code.transformed(g)
            if image not in index:
                raise AssertionError(f"{g} maps {code} outside the codes")
            orbit.add(index[image])
        orbits.append(frozenset(orbit))
        assigned |= orbit
    if len(orbits) != 2:
        raise AssertionError(f"expected two orbits, found {len(orbits)}")
    return orbits[0], orbits[1]


def intersection_graph(codes: tuple[TernaryCode, ...]) -> frozenset[frozenset[int]]:
    """Edges {i, j} joining codes whose intersection has dimension one."""
    edges = set()
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            if codes[i].intersection_dim(codes[j]) == 1:
                edges.add(frozenset({i, j}))
    return frozenset(edges)


def complete_bipartite(parts: tuple[frozenset[int], frozenset[int]]) -> frozenset[frozenset[int]]:
    """The edges of the complete bipartite graph on two disjoint index sets:
    each pair {i, j} with i in the first set and j in the second."""
    return frozenset(frozenset({i, j}) for i in parts[0] for j in parts[1])


@lru_cache(maxsize=1)
def _c1_c2() -> tuple[TernaryCode, TernaryCode]:
    """C1 and C2, spanned once per process from their canonical generators
    (not read from the census, so the matching stays independent of it)."""
    return (TernaryCode.from_generators(*SELFDUAL_GENERATORS[0]),
            TernaryCode.from_generators(*SELFDUAL_GENERATORS[1]))


def matching_element(w: Word) -> K4Element:
    """The unique K4 element carrying a nonzero word of C1 into C2."""
    w = normalize(w)
    c1, c2 = _c1_c2()
    if w not in c1 or not any(w):
        raise ValueError(f"{w} is not a nonzero word of C1")
    hits = [g for g in K4 if g.apply_word(w) in c2]
    if len(hits) != 1:
        raise AssertionError(f"expected exactly one match for {w}, got {len(hits)}")
    return hits[0]
