"""Write ref_delta_b80.json: the symbolic budget-80 discrepancy series.

The series comes from the theta route (the difference of the two degree-2
invariants), not from the psi-kernel pair sum that ``isopair delta`` and
``certify`` use, so the benchmark can check their outputs against it.
Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json

from isopair import Route, delta_series
from oracle import REFERENCE_PATH

BUDGET = 80


def main() -> None:
    series = delta_series(BUDGET, Route.FROM_THETA)
    terms = [
        [list(e), [[list(mono), str(coeff)] for mono, coeff in series.coefficient(e).as_pairs()]]
        for e in sorted(series)
    ]
    payload = {"budget": BUDGET, "route": Route.FROM_THETA.value, "terms": terms}
    REFERENCE_PATH.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {len(terms)} terms to {REFERENCE_PATH.name}")


if __name__ == "__main__":
    main()
