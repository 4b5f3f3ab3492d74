"""tools/accuracy.py: the committed accuracy ledger.

The summary of the first 1000 instances of each seed-1 pool is pinned.
Each limit sits at the worst of five OpenBLAS kernels
(``OPENBLAS_CORETYPE`` = SkylakeX, Haswell, Sandybridge, Nehalem and
Prescott, numpy 2.4.6 with OpenBLAS 0.3.31, Python 3.11), with the
measured spread next to it: misses and p99 move with the LAPACK kernel.
A later change may tighten a limit; it may loosen one only after
measuring the unchanged solver above it on a new platform.

Mutation it catches, checked on a broken copy: every Cramer value in
``_back_substitute`` moved by 1e-7, below the miss distance, takes the
median log10 error of both pools to -7.00 (the ``five_point`` p99 to
-6.64), far above its limit.
"""

import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "accuracy.py"

LEDGER_COUNT = 1000
LIMITS = {
    # misses at most, accepted at least, p99 and median log10 error at most
    "five_point": (6, 4689, -6.51, -12.48),  # measured 4 .. 6, 4689 .. 4693, -6.94 .. -6.51, -12.57 .. -12.48
    "conic": (0, 4000, -9.60, -14.06),  # measured 0, 4000, -9.68 .. -9.60, -14.14 .. -14.06
}


def _load():
    spec = importlib.util.spec_from_file_location("accuracy", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_instance(capsys):
    assert _load().main(["--problem", "conic", "--seed", "1", "--count", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for index, line in enumerate(lines):
        assert re.fullmatch(rf"{index} 4 0( -\d+\.\d\d){{4}}", line), line


@pytest.mark.parametrize("problem", sorted(LIMITS))
def test_pinned_summary(capsys, problem):
    args = ["--problem", problem, "--seed", "1", "--count", str(LEDGER_COUNT), "--summary"]
    assert _load().main(args) == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(r"misses (\d+) accepted (\d+) p99 (\S+) median (\S+)", line)
    assert match, line
    misses, accepted, p99, median = match.groups()
    max_misses, min_accepted, max_p99, max_median = LIMITS[problem]
    assert int(misses) <= max_misses, line
    assert int(accepted) >= min_accepted, line
    assert float(p99) <= max_p99, line
    assert float(median) <= max_median, line
