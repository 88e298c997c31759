"""The rank-4 lattice family behind the isospectral pair.

All lattice vectors carry integer coordinates with respect to the orthogonal
eigenbasis of the four-group action, in which the Gram matrix is
diag(a, b, c, d) and the group acts by diagonal sign matrices.  The base
lattice L, the two index-9 sublattices L1 and L2 cut out by the self-dual
codes C1 and C2, their intersection L12, and the common sublattice M = 3L
are all generated by fixed integer matrices.  Each lattice is held as its
Hermite normal form, an upper-triangular basis: membership is triangular
division by its rows, and the vectors of a budget shell, or of a box, are
enumerated along it coordinate by coordinate.  The construction is therefore
parameter-independent: one integral lattice serves every parameter point,
and inner products become one-line formulas
``<v, w> = a*v0*w0 + b*v1*w1 + c*v2*w2 + d*v3*w3``.

L1 splits into nine classes modulo M: zero and the signed representatives
``COSET_REPS``.  Since [Z^4 : L] = 16 is prime to 3, 3Z^4 meets L in 3L = M,
so two vectors of L lie in one class exactly when their coordinates agree
mod 3, and ``coset_label`` reads the class off those residues.  The
norm-preserving bijection ``psi`` from L1 onto L2 acts on each class by its
diagonal sign matrix ``CosetLabel.diag``: the identity on M, the i-th
four-group matrix on the class of the i-th representative.  It preserves the
squared-coordinate tuple ``phi`` of every vector exactly, which is what
makes the two lattices isospectral at every parameter point, but it is not
additive.  The four matrices are ``K4_DIAGS``, stated here so that
``certify`` and ``delta`` never load the code census.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import isqrt

from .qarith import Expo, check_budget

Vec = tuple[int, int, int, int]
Matrix = tuple[tuple[int, int, int, int], ...]

# Columns of the standard-basis generator matrix of L (determinant +1, so L
# is the full integer lattice in standard coordinates).
STANDARD_BASIS_COLUMNS: tuple[Vec, ...] = (
    (1, -1, 1, 0),
    (0, 1, 1, -1),
    (1, 1, 0, -1),
    (1, 0, 1, -1),
)

# J - 2I, where J is the all-ones matrix: four times the eigenbasis matrix U
# (columns u_i = (all-ones - 2 e_i)/4) and at the same time its integer
# inverse, since (J - 2I)^2 = 4I.
_J_MINUS_2I: Matrix = (
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
)

# The four-group's sign matrices on eigenbasis coordinates, g0..g3 of ``codes.K4``.
K4_DIAGS: tuple[Vec, ...] = ((1, 1, 1, 1), (-1, 1, -1, 1), (-1, -1, 1, 1), (1, -1, -1, 1))


def _matvec(m: Matrix, v) -> tuple[int, ...]:
    v0, v1, v2, v3 = v
    return tuple([r0 * v0 + r1 * v1 + r2 * v2 + r3 * v3 for r0, r1, r2, r3 in m])


def _columns(m: Matrix) -> tuple[Vec, ...]:
    return tuple(tuple(m[i][j] for i in range(4)) for j in range(4))


def hermite_normal_form(rows) -> Matrix:
    """Canonical basis of the integer row span of a nonsingular 4x4 matrix.

    Upper triangular with positive diagonal; in each column the entries above
    the pivot are reduced to [0, pivot).  Two generator matrices span the
    same lattice exactly when their forms coincide.
    """
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        while True:
            nz = [r for r in range(col, n) if m[r][col] != 0]
            if not nz:
                raise ValueError("matrix is singular")
            r0 = min(nz, key=lambda r: abs(m[r][col]))
            m[col], m[r0] = m[r0], m[col]
            rest = [r for r in range(col + 1, n) if m[r][col] != 0]
            if not rest:
                break
            for r in rest:
                q = m[r][col] // m[col][col]
                m[r] = [x - q * y for x, y in zip(m[r], m[col])]
        if m[col][col] < 0:
            m[col] = [-x for x in m[col]]
        for r in range(col):
            q = m[r][col] // m[col][col]
            if q:
                m[r] = [x - q * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(r) for r in m)


class Lattice:
    """An integer lattice of full rank in eigenbasis coordinates.

    ``generators`` are four integer vectors; the stored Hermite normal form
    identifies the lattice as a set, so equality is set equality.
    """

    __slots__ = ("name", "generators", "hnf", "covolume")

    def __init__(self, generators, name: str = ""):
        gens = tuple(tuple(g) for g in generators)
        if len(gens) != 4 or any(len(g) != 4 for g in gens):
            raise ValueError("need four integer 4-vectors")
        # ``type`` refuses ``True`` as an entry, as ``check_expo`` does
        if any(type(x) is not int for g in gens for x in g):
            raise TypeError(f"generator entries must be integers, got {gens!r}")
        self.name = name
        self.generators = gens
        self.hnf = hermite_normal_form(gens)
        self.covolume = self.hnf[0][0] * self.hnf[1][1] * self.hnf[2][2] * self.hnf[3][3]

    def contains(self, v) -> bool:
        """Whether v is an integer combination of the generators: triangular
        division by the normal-form rows leaves no remainder.  A vector that
        is not four ints is refused as a generator is."""
        v0, v1, v2, v3 = _four_ints(v)
        (p0, h01, h02, h03), (_, p1, h12, h13), (_, _, p2, h23), (_, _, _, p3) = self.hnf
        if v0 % p0:
            return False
        c = v0 // p0
        v1 -= c * h01
        v2 -= c * h02
        v3 -= c * h03
        if v1 % p1:
            return False
        c = v1 // p1
        v2 -= c * h12
        v3 -= c * h13
        if v2 % p2:
            return False
        return not (v3 - v2 // p2 * h23) % p3

    def __eq__(self, other):
        if not isinstance(other, Lattice):
            return NotImplemented
        return self.hnf == other.hnf

    def __hash__(self):
        return hash(self.hnf)

    def index_in(self, ambient: "Lattice") -> int:
        """The index [ambient : self]; requires containment."""
        if not all(ambient.contains(g) for g in self.generators):
            raise ValueError(f"{self.name or 'lattice'} is not a sublattice of {ambient.name}")
        return self.covolume // ambient.covolume

    def vectors(self, budget: int) -> tuple[Vec, ...]:
        """All lattice vectors whose squared coordinates sum to at most
        ``budget``, in lexicographic order; nothing is cached, so each call
        is one scan.

        The bound is parameter-free.  Every evaluated square norm is at least
        ``min(a, b, c, d)`` times the coordinate-square sum, so a budget of at
        least ``T / min(a, b, c, d)`` captures every vector of norm up to
        ``T`` at a point (a, b, c, d).
        """
        if check_budget(budget) < 0:
            raise ValueError("budget must be non-negative")
        return tuple(self._scan(budget))

    def _scan(self, budget: int):
        # triangular enumeration on the normal form (Fincke & Pohst),
        # unrolled over the four coordinates: once x_0..x_{i-1} are fixed,
        # x_i is the offset o_i their rows leave plus a multiple c_i of the
        # pivot p_i, inside the interval [-r_i, r_i] the remaining square
        # budget allows; each loop runs in increasing x_i, so the vectors
        # come out in lexicographic order
        (p0, h01, h02, h03), (_, p1, h12, h13), (_, _, p2, h23), (_, _, _, p3) = self.hnf
        r0 = isqrt(budget)
        for x0 in range(-r0 + r0 % p0, r0 + 1, p0):
            c0 = x0 // p0
            o1, rest0 = c0 * h01, budget - x0 * x0
            r1 = isqrt(rest0)
            for x1 in range(-r1 + (o1 + r1) % p1, r1 + 1, p1):
                c1 = (x1 - o1) // p1
                o2, rest1 = c0 * h02 + c1 * h12, rest0 - x1 * x1
                r2 = isqrt(rest1)
                for x2 in range(-r2 + (o2 + r2) % p2, r2 + 1, p2):
                    o3 = c0 * h03 + c1 * h13 + (x2 - o2) // p2 * h23
                    r3 = isqrt(rest1 - x2 * x2)
                    for x3 in range(-r3 + (o3 + r3) % p3, r3 + 1, p3):
                        yield (x0, x1, x2, x3)

    def _walk_box(self, r: int):
        # ``_scan``'s recursion with the bound r on every coordinate: the
        # lattice vectors of the box [-r, r]^4, in lexicographic order
        (p0, h01, h02, h03), (_, p1, h12, h13), (_, _, p2, h23), (_, _, _, p3) = self.hnf
        for x0 in range(-r + r % p0, r + 1, p0):
            c0 = x0 // p0
            o1 = c0 * h01
            for x1 in range(-r + (o1 + r) % p1, r + 1, p1):
                c1 = (x1 - o1) // p1
                o2 = c0 * h02 + c1 * h12
                for x2 in range(-r + (o2 + r) % p2, r + 1, p2):
                    o3 = c0 * h03 + c1 * h13 + (x2 - o2) // p2 * h23
                    for x3 in range(-r + (o3 + r) % p3, r + 1, p3):
                        yield (x0, x1, x2, x3)

    def __repr__(self):
        return f"Lattice({self.name or self.generators!r})"


def _scale(v: Vec, c: int) -> Vec:
    return tuple(c * x for x in v)


class LatticeFamily(namedtuple("LatticeFamily", "L L1 L2 L12 M")):
    """The five lattices of the construction, all in eigenbasis coordinates;
    iterating yields them in the order L, L1, L2, L12, M."""

    __slots__ = ()


@lru_cache(maxsize=1)
def build_family() -> LatticeFamily:
    """Construct L, L1, L2, L12 and M from the fixed integer generators.

    The base generators are the eigenbasis coordinates of the standard-basis
    columns, i.e. (J - 2I) times ``STANDARD_BASIS_COLUMNS``; scaling the
    third and fourth (resp. second and fourth, resp. all but the first) by 3
    produces L1, L2 and L12, and M is 3L.
    """
    l_gens = tuple(_matvec(_J_MINUS_2I, col) for col in STANDARD_BASIS_COLUMNS)
    l0, l1, l2, l3 = l_gens
    return LatticeFamily(
        L=Lattice(l_gens, "L"),
        L1=Lattice((l0, l1, _scale(l2, 3), _scale(l3, 3)), "L1"),
        L2=Lattice((l0, _scale(l1, 3), l2, _scale(l3, 3)), "L2"),
        L12=Lattice((l0, _scale(l1, 3), _scale(l2, 3), _scale(l3, 3)), "L12"),
        M=Lattice(tuple(_scale(g, 3) for g in l_gens), "M"),
    )


# Alternative generator matrices for the pair (columns).  ALT_L2_COLUMNS is
# the classical presentation of the second lattice; the classical first
# lattice is SIGN_FLIP applied to ALT_L1_COLUMNS, an isometry of every
# diagonal form diag(a, b, c, d).
ALT_L2_COLUMNS: tuple[Vec, ...] = _columns(
    ((-3, 1, 1, 1), (-1, -3, -1, 1), (-1, 1, -3, -1), (-1, -1, 1, -3))
)
ALT_L1_COLUMNS: tuple[Vec, ...] = _columns(
    ((3, 1, 1, 1), (1, -3, 1, -1), (-1, 1, 3, -1), (-1, -1, 1, 3))
)
SIGN_FLIP: Vec = (1, -1, 1, 1)

# Representatives of the nine cosets of M in L1: zero and +-rep_i.
COSET_REPS: tuple[Vec, ...] = (
    (-1, 3, -1, 1),
    (1, -1, -1, 3),
    (3, 1, -1, -1),
    (-1, -1, -3, -1),
)


def _four_ints(v) -> Vec:
    """The four coordinates of v.  ``ValueError`` for another number of
    entries, ``TypeError`` for an entry that is not an ``int`` (``True`` and
    ``1.0`` included), as ``Lattice`` refuses a generator."""
    if type(v) is not tuple:
        v = tuple(v)  # one pass over an iterator, kept for the messages
    try:
        v0, v1, v2, v3 = v
    except ValueError:
        raise ValueError(f"need an integer 4-vector, got {v!r}") from None
    if type(v0) is not int or type(v1) is not int or type(v2) is not int or type(v3) is not int:
        raise TypeError(f"vector entries must be integers, got {v!r}")
    return v0, v1, v2, v3


def phi(v) -> Expo:
    """Squared coordinates: the parameter-free shadow of the square norm.  A
    vector that is not four ints is refused as ``Lattice.contains`` refuses
    it."""
    v0, v1, v2, v3 = _four_ints(v)
    return (v0 * v0, v1 * v1, v2 * v2, v3 * v3)


def from_standard(x) -> Vec:
    """Eigenbasis coordinates of a standard-coordinate integer vector."""
    return _matvec(_J_MINUS_2I, x)


class CosetLabel(namedtuple("CosetLabel", "index sign")):
    """One of the nine classes of L1 modulo M: zero, or (index, sign) naming
    a signed representative.  An immutable record; the constructor refuses
    a sign, or an index other than ``None``, that is not an ``int`` (a
    ``bool`` or ``1.0`` included) with ``TypeError``, and any other (index,
    sign) with ``ValueError``.  ``_make``, and so ``_replace``, go through
    the constructor and check alike."""

    __slots__ = ()

    def __new__(cls, index: int | None, sign: int):
        if type(sign) is not int or (index is not None and type(index) is not int):
            raise TypeError(f"coset label index and sign must be ints, got ({index!r}, {sign!r})")
        if index is None:
            if sign != 0:
                raise ValueError("the zero class has sign 0")
        elif index not in (0, 1, 2, 3) or sign not in (-1, 1):
            raise ValueError(f"bad coset label ({index}, {sign})")
        return super().__new__(cls, index, sign)

    @classmethod
    def _make(cls, iterable) -> "CosetLabel":
        return cls(*iterable)

    @classmethod
    def zero(cls) -> "CosetLabel":
        return cls(None, 0)

    @property
    def is_zero(self) -> bool:
        return self.index is None

    def __neg__(self) -> "CosetLabel":
        return self if self.is_zero else CosetLabel(self.index, -self.sign)

    @property
    def diag(self) -> tuple[int, int, int, int]:
        """The diagonal sign matrix by which psi acts on this class: the
        identity on the zero class, the i-th four-group matrix on the class
        of the i-th representative and of its negative."""
        return K4_DIAGS[0 if self.is_zero else self.index]

    def representative(self) -> Vec:
        if self.is_zero:
            return (0, 0, 0, 0)
        rep = COSET_REPS[self.index]
        return rep if self.sign > 0 else tuple(-x for x in rep)

    def __str__(self):
        if self.is_zero:
            return "[0]"
        return f"[{'+' if self.sign > 0 else '-'}v{self.index}]"


ALL_LABELS: tuple[CosetLabel, ...] = (CosetLabel.zero(),) + tuple(
    CosetLabel(i, s) for i in range(4) for s in (1, -1)
)

# the residues mod 3 of the nine representatives, one per class
_LABEL_BY_RESIDUE = {
    tuple(x % 3 for x in label.representative()): label for label in ALL_LABELS
}


def coset_label(v) -> CosetLabel:
    """The class of a vector of L1 modulo M, read off its coordinates mod 3."""
    if type(v) is not tuple:
        v = tuple(v)  # one pass over an iterator
    if not build_family().L1.contains(v):
        raise ValueError(f"{v} is not in L1")
    v0, v1, v2, v3 = v
    return _LABEL_BY_RESIDUE[v0 % 3, v1 % 3, v2 % 3, v3 % 3]


def psi(v) -> Vec:
    """The norm-preserving bijection from L1 to L2: the sign matrix of the
    class of v applied to v."""
    if type(v) is not tuple:
        v = tuple(v)  # one pass over an iterator
    s0, s1, s2, s3 = coset_label(v).diag
    v0, v1, v2, v3 = v
    return (s0 * v0, s1 * v1, s2 * v2, s3 * v3)
