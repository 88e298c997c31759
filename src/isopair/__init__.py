"""Exact construction and certification of an isospectral, non-isometric
four-parameter family of rank-4 lattice pairs.

The two lattices of the pair share every representation number at every
positive parameter point, yet a degree-2 invariant separates them whenever
the four parameters are pairwise different.  All arithmetic is exact:
rational scalars, integer lattices, and q-series with polynomial
coefficients that are only evaluated at a parameter point on demand.

Importing the package loads only what ``certify`` and ``delta`` run.  The
records (``ParamPoint``, ``CosetLabel``, ``Certificate`` and the rest) are
immutable ``collections.namedtuple`` subclasses, so no ``dataclasses``
import is paid.  The names of ``codes`` and ``verification`` are exported
lazily: each module is imported on first access to one of its names.
"""

from .discrepancy import (
    Certificate,
    Route,
    Verdict,
    certify,
    check_relations,
    delta_series,
    minimal_pair_table,
    minimal_rows,
)
from .lattices import (
    ALL_LABELS,
    COSET_REPS,
    CosetLabel,
    Lattice,
    LatticeFamily,
    build_family,
    coset_label,
    phi,
    psi,
)
from .qarith import (
    FormalQSeries,
    ParamPoint,
    ParamPolynomial,
    exp_below,
)
from .theta import Kernel, collapse_counts, rep_series, theta11

__version__ = "0.1.0"

# name -> the module that exports it, imported on first access only
_LAZY_EXPORTS = dict.fromkeys(
    ("K4", "K4Element", "TernaryCode", "intersection_graph", "matching_element",
     "orbit_partition", "selfdual_codes", "two_dim_subspaces"),
    "codes",
) | dict.fromkeys(("AnchorResult", "run_verification"), "verification")


def __getattr__(name):
    if name in _LAZY_EXPORTS:
        return getattr(__import__(f"{__name__}.{_LAZY_EXPORTS[name]}", fromlist=[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ALL_LABELS",
    "AnchorResult",
    "COSET_REPS",
    "Certificate",
    "CosetLabel",
    "FormalQSeries",
    "K4",
    "K4Element",
    "Kernel",
    "Lattice",
    "LatticeFamily",
    "ParamPoint",
    "ParamPolynomial",
    "Route",
    "TernaryCode",
    "Verdict",
    "build_family",
    "certify",
    "check_relations",
    "collapse_counts",
    "coset_label",
    "delta_series",
    "exp_below",
    "intersection_graph",
    "matching_element",
    "minimal_pair_table",
    "minimal_rows",
    "orbit_partition",
    "phi",
    "psi",
    "rep_series",
    "run_verification",
    "selfdual_codes",
    "theta11",
    "two_dim_subspaces",
]
