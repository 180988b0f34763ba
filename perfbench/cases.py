"""Seeded case generators for the benchmark workloads.

The distributions match the ones the acceptance suite draws from
(``tests/conftest.py`` and ``tests/test_acceptance.py``), written out again
here so that an edit to the tests cannot change the benchmark's inputs:

* off-lattice multisteps: 1 to 4 steps with edges anywhere in I, each at
  least 2% of L wide, heights uniform on [0, 3);
* lattice multisteps: 1 to 3 steps with edges on the 1/64 lattice and
  4 L ||v||_1 capped at 18 (L must be an integer);
* capped inverse squares: decay uniform on [0.05, 5), cap on [0.5, 8).
"""

import json
import math
from dataclasses import dataclass

import numpy as np

import gaplab as gl

SUITE_L_RANGE = (0.5, 100.0)
ORACLE_LENGTHS = (1.0, 5.0, 20.0)

# criterion 5: the centered unit step over L in [50, 400].  cells_per_unit
# is 8 rather than the acceptance test's 64 so that one sweep (5 to 8 s
# interpreted on 2 cores) fits a run several times.
SWEEP_CONFIG = {
    "potential": {"type": "step", "height": 1.0, "support": [-0.5, 0.5]},
    "L_min": 50.0,
    "L_max": 400.0,
    "count": 9,
    "cells_per_unit": 8,
    "levels": 3,
}
SWEEP_EXPONENT = (-3.0, 0.3)  # expected gap exponent and its tolerance


def sweep_rows():
    """(L, one-row sweep config JSON) for each L of SWEEP_CONFIG, spaced as
    `gaplab sweep` spaces them."""
    cfg = dict(SWEEP_CONFIG)
    lengths = np.geomspace(cfg.pop("L_min"), cfg.pop("L_max"), cfg.pop("count"))
    return [(float(L), json.dumps({**cfg, "L_values": [float(L)]})) for L in lengths]


@dataclass(frozen=True)
class Case:
    potential: object
    L: float
    n0: int

    @property
    def piecewise(self) -> bool:
        return not isinstance(self.potential, gl.InverseSquareCapped)


def _rng(seed):
    """Generator for any integer seed; numpy refuses negative ones, so a
    seed is taken modulo 2**64 (distinct seeds in that range stay distinct)."""
    return np.random.default_rng(seed % 2**64)


def _pieces_to_potential(pieces):
    return gl.MultiStep(tuple(pieces)) if len(pieces) > 1 else pieces[0]


def random_multistep(rng, L):
    k = int(rng.integers(1, 5))
    half = 0.5 * L
    pieces = []
    for _ in range(64):
        edges = np.sort(rng.uniform(-half, half, 2 * k))
        if np.all(edges[1::2] - edges[0::2] >= 0.02 * L):
            pieces = [
                gl.Step(float(rng.uniform(0.0, 3.0)), (float(a), float(b)))
                for a, b in zip(edges[0::2], edges[1::2])
            ]
            break
    if not pieces:
        pieces = [gl.Step(float(rng.uniform(0.1, 3.0)), (-0.25 * L, 0.25 * L))]
    return _pieces_to_potential(pieces)


def random_lattice_multistep(rng, L):
    if L != int(L):
        raise ValueError("lattice alignment needs an integer L")
    ticks = int(64 * L)
    k = int(rng.integers(1, 4))
    idx = np.sort(rng.choice(np.arange(1, ticks), size=2 * k, replace=False))
    half = 0.5 * L
    # 4 L ||v||_1 <= 18 keeps inf(phi0) above the eigenvector's noise floor
    budget = 18.0 / (4.0 * L)  # remaining l1 allowance
    pieces = []
    for i in range(k):
        a = float(idx[2 * i]) / 64.0 - half
        b = float(idx[2 * i + 1]) / 64.0 - half
        hmax = min(2.5, budget / (b - a))
        if hmax <= 0:
            break
        height = min(float(rng.uniform(0.1, max(0.2, hmax))), hmax)
        budget -= height * (b - a)
        pieces.append(gl.Step(height, (a, b)))
    if not pieces:
        pieces = [gl.Step(min(1.0, budget * 2.0 / L + 0.1), (-0.25 * L, 0.25 * L))]
    return _pieces_to_potential(pieces)


def random_capped(rng):
    return gl.InverseSquareCapped(float(rng.uniform(0.05, 5.0)), float(rng.uniform(0.5, 8.0)))


def suite_cases(seed, count):
    """A slice of the criterion-3 distribution: even cases are off-lattice
    multisteps, odd cases capped inverse squares, n0 = max(512, ceil(64 L)).

    The lengths are not drawn: case i takes the log-midpoint of the i-th of
    ``count`` equal log-width strata of [0.5, 100] (the range over which
    criterion 3 draws L log-uniformly).  Solve time grows with L, so drawn
    lengths would make the batch time depend mostly on how many long
    intervals a seed happens to draw; the seed draws the potentials.
    """
    rng = _rng(seed)
    lo, hi = (math.log(x) for x in SUITE_L_RANGE)
    cases = []
    for i in range(count):
        L = math.exp(lo + (hi - lo) * (i + 0.5) / count)
        p = random_multistep(rng, L) if i % 2 == 0 else random_capped(rng)
        cases.append(Case(p, L, max(512, int(math.ceil(64 * L)))))
    return cases


def oracle_cases(seed, count):
    """Criterion-4 lattice multisteps at L in {1, 5, 20} with the default
    cell count, every fourth case a capped inverse square instead."""
    rng = _rng(seed)
    cases = []
    for i in range(count):
        L = ORACLE_LENGTHS[i % len(ORACLE_LENGTHS)]
        p = random_capped(rng) if i % 4 == 3 else random_lattice_multistep(rng, L)
        cases.append(Case(p, L, gl.default_cell_count(L)))
    return cases
