"""Golden outputs: each shipped scenario reproduces its committed files.

``tests/golden/<scenario>/`` holds the files that ``simpact run`` writes
for ``scenarios/<scenario>.json``. Comment lines and all text must match
exactly. Numbers must agree to ``RTOL`` relative, so that a different
BLAS does not fail the comparison; numbers below ``ATOL`` in magnitude
are the round-off of zero quantities (an inner product driven to zero,
a momentum component cancelled by an impact) and only need to stay
below it.
"""

import math
import re
from pathlib import Path

import pytest

from simpact.cli import run

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"

RTOL = 1e-9
ATOL = 1e-12

#: A number standing alone: not part of a name such as ``q1`` or ``c2``.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")


def split_numbers(line):
    """The line with its numbers replaced by ``#``, and the numbers."""
    return NUMBER.sub("#", line), [float(x) for x in NUMBER.findall(line)]


def assert_matches(got_path, want_path):
    got = got_path.read_text().splitlines()
    want = want_path.read_text().splitlines()
    assert len(got) == len(want), f"{got_path.name}: {len(got)} lines, want {len(want)}"
    for k, (g, w) in enumerate(zip(got, want), start=1):
        where = f"{got_path.name}:{k}"
        if w.startswith("#"):
            assert g == w, where
            continue
        g_text, g_nums = split_numbers(g)
        w_text, w_nums = split_numbers(w)
        assert g_text == w_text, f"{where}: {g!r} != {w!r}"
        for a, b in zip(g_nums, w_nums):
            assert math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL), f"{where}: {a!r} != {b!r}"


@pytest.mark.parametrize("scenario", sorted(p.name for p in GOLDEN.iterdir()))
def test_scenario_matches_golden(tmp_path, scenario):
    paths = run(SCENARIOS / f"{scenario}.json", out_dir=tmp_path)
    want = sorted(p.name for p in (GOLDEN / scenario).iterdir())
    assert sorted(Path(p).name for p in paths) == want
    for name in want:
        assert_matches(tmp_path / name, GOLDEN / scenario / name)


def test_number_tokens():
    text, nums = split_numbers("    ax              :  0.30000000 ->  0.34586129 (+4.586e-02)")
    assert text == "    ax              :  # ->  # (#)"
    assert nums == [0.3, 0.34586129, 4.586e-02]
    assert split_numbers("q1,p_plus2,c1;c2") == ("q1,p_plus2,c1;c2", [])
    assert split_numbers("0;1,-2.5e-27,nan") == ("#;#,#,nan", [0.0, 1.0, -2.5e-27])
