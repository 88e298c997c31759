"""Machine-speed calibration.

On a shared machine the same code runs up to a fifth slower or faster from
one few-second stretch to the next, and CPU time shifts with wall time, so
neither can be compared across runs as it is.  ``calibrate`` times a fixed
pure-Python workload of ``Fraction`` and dict arithmetic, the kind isopair's
own work is made of, and does not touch isopair.  An operation timed between
two calibrations is rescaled by ``scale(before, after)`` to seconds at the
speed at which the calibration takes ``REFERENCE_S``.
"""

import time
from fractions import Fraction

# some 30 ms: a longer kernel averages the speed over more of the stretch an
# operation runs in, which steadied the rescaled times more than a 10 ms one
REFERENCE_S = 0.030
ITERATIONS = 3000


def calibrate() -> float:
    """Wall time of the fixed workload, in seconds."""
    start = time.perf_counter()
    acc: dict[int, Fraction] = {}
    x = Fraction(1, 3)
    for i in range(1, ITERATIONS):
        x = x * Fraction(i % 17 + 1, i % 13 + 2) + Fraction(1, i)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000 + 1)
        acc[i % 50] = acc.get(i % 50, 0) + x
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from this stretch's seconds to reference seconds."""
    return 2 * REFERENCE_S / (before + after)
