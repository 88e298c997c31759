"""The package states what its code guarantees, not what a machine
measured: timings belong in README's Benchmarks section and the BENCH files
it cites, so a change that only moves a timing edits no source file.  The
package's caches are listed here, once."""

import importlib
import pkgutil
import re
from pathlib import Path

import isopair
from isopair import Route

PACKAGE = Path(isopair.__file__).resolve().parent
# a BENCH file name, a millisecond or microsecond figure, a machine size
TIMING = re.compile(r"BENCH_|\d ?(ms|us)\b|vCPU")


def test_package_states_no_timing():
    hits = [
        f"{path.relative_to(PACKAGE)}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if TIMING.search(line)
    ]
    assert not hits, "\n".join(hits)


def test_cache_inventory():
    # every cache of the package, by the function that a module defines;
    # none is keyed by a budget, so none grows with the budgets a process
    # asks for
    caches = {}
    for info in pkgutil.iter_modules(isopair.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"isopair.{info.name}")
            caches.update(
                (f"{info.name}.{name}", value.cache_info().maxsize)
                for name, value in vars(module).items()
                if hasattr(value, "cache_info") and value.__module__ == module.__name__
            )
    assert caches == {
        "lattices.build_family": 1,
        "discrepancy._leading_data": len(Route),
        "codes._echelon_generator_pairs": 1,
        "codes.selfdual_codes": 1,
        "codes._c1_c2": 1,
    }
