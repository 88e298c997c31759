"""The package states what its code guarantees, not what a machine
measured: timings belong in README's Benchmarks section and the BENCH files
it cites, so a change that only moves a timing edits no source file."""

import re
from pathlib import Path

import isopair

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
