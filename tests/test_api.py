"""The public API as a whole: its names, and the rules every entry point shares."""

import math
import os
import pathlib
import subprocess
import sys

import pytest

import gaplab
from gaplab import bounds, fdsolver, oracle, potentials

ZERO_NORMS = gaplab.IntervalNorms(0.0, 0.0, 0.0)

# every public entry point that takes an interval length, called with L
TAKES_LENGTH = {
    "break_points": lambda L, r: gaplab.break_points(gaplab.Zero(), L),
    "interval_norms": lambda L, r: gaplab.interval_norms(gaplab.Zero(), L),
    "Grid": lambda L, r: gaplab.Grid(L, 64),
    "solve_extrapolated": lambda L, r: gaplab.solve_extrapolated(gaplab.Zero(), L),
    "prufer_count": lambda L, r: gaplab.prufer_count(gaplab.Zero(), L, 1.0),
    "ground_state_profile": lambda L, r: gaplab.ground_state_profile(gaplab.Zero(), L, 0.0),
    "gap_lower_bound": lambda L, r: gaplab.gap_lower_bound(ZERO_NORMS, L),
    "harnack_floor": lambda L, r: gaplab.harnack_floor(ZERO_NORMS, L),
    "inf_lower_bound": lambda L, r: gaplab.inf_lower_bound(ZERO_NORMS, L),
    "sup_upper_bound": lambda L, r: gaplab.sup_upper_bound(0.0, L),
    "lambda0_upper_bounds": lambda L, r: gaplab.lambda0_upper_bounds(
        gaplab.Zero(), ZERO_NORMS, L
    ),
    "kirsch_comparison_bound": lambda L, r: gaplab.kirsch_comparison_bound(0.5, 1.0, L),
    "verify": lambda L, r: gaplab.verify(gaplab.Zero(), L, r),
}


@pytest.fixture(scope="module")
def zero_result():
    return gaplab.solve_extrapolated(gaplab.Zero(), 1.0, n0=64, levels=2)


@pytest.mark.parametrize("L", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(TAKES_LENGTH))
def test_entry_points_reject_bad_length(zero_result, entry, L):
    with pytest.raises(ValueError, match="interval length must be finite and > 0"):
        TAKES_LENGTH[entry](L, zero_result)


def test_public_names_declared_once_per_module():
    names = gaplab.__all__
    assert len(names) == len(set(names)) == 46
    modules = (potentials, fdsolver, oracle, bounds)
    assert sum(len(m.__all__) for m in modules) == 45  # no name in two lists
    assert set(names) == {"__version__"}.union(*(m.__all__ for m in modules))
    for name in names:
        assert getattr(gaplab, name) is not None


def test_import_loads_neither_scipy_nor_mpmath():
    # a fresh `import gaplab` is the benchmark's setup time: `import
    # scipy.linalg` alone once added 0.30 s to it, and mpmath is imported
    # only by the oracle's secant step
    src = str(pathlib.Path(gaplab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, gaplab; print(sorted({'scipy', 'mpmath'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=600, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
