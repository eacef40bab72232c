"""Golden output hashes: ``tools/output_hashes.py --quick`` must print the
committed lines of ``tests/golden/output_hashes_quick.txt``, the hashes of
every ``integrator.run``, ``sbq simulate`` and battery output at n = 32 and
64, byte for byte.

The bytes belong to one environment (the file's first line: numpy version,
platform, C library, SIMD features), so elsewhere the test skips, saying
it cannot compare; it never passes without comparing.  A change that moves
bits on purpose regenerates the file (see the tool's docstring).
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "output_hashes_quick.txt"

sys.path.insert(0, str(ROOT / "tools"))
import output_hashes  # noqa: E402


def test_quick_output_hashes_match_golden():
    recorded, *want = GOLDEN.read_text().splitlines()
    here = output_hashes.environment()
    if here != recorded:
        pytest.skip(f"cannot compare: the golden hashes were recorded on {recorded!r}, "
                    f"this environment is {here!r}")
    got = list(output_hashes.hash_lines([32, 64], quick=True))
    changed = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not changed, \
        f"{len(changed)} of {len(want)} lines differ, first: {changed[:3]}"
