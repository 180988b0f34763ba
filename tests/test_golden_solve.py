"""Solver and oracle outputs pinned bit for bit in tests/golden/solve_cases.json.

Six criterion-3 cases (random multisteps and capped inverse squares, L drawn
log-uniformly in [0.5, 100]) and six criterion-4 cases (1/64-lattice
multisteps at L in {1, 5, 20}) drawn from a fixed seed with the
``conftest`` generators.  Each record holds the raw eigenvalues per
Richardson level, the error estimates, every check's status and measured
value and the SHA-256 of the ``phi0`` bytes; piecewise cases add the
oracle's exact eigenvalues and the SHA-256 of its ground-state profile.
Floats are stored as ``repr`` strings, which round-trip every double
(nan included).  The same potentials pin that the ground-only solve
(``excited=False``) changes no value and no bit of the ground vector.

Run this file as a script to print the records as JSON.
"""

import hashlib
import json
import math
import pathlib

import numpy as np

from gaplab import (
    InverseSquareCapped,
    SolverError,
    assemble,
    decompose,
    eigenvalues_exact,
    ground_state_profile,
    lowest_two_eigenpairs,
    solve_extrapolated,
    verify,
)
from gaplab.fdsolver import _nested_grids
from conftest import random_capped, random_lattice_multistep, random_multistep

GOLDEN = pathlib.Path(__file__).parent / "golden" / "solve_cases.json"
SEED = 40040


def _cases():
    rng = np.random.default_rng(SEED)
    for i in range(6):
        L = float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))
        p = random_multistep(rng, L) if i % 2 == 0 else random_capped(rng)
        yield "criterion3", p, L, max(512, int(math.ceil(64 * L)))
    for i in range(6):
        L = float((1.0, 5.0, 20.0)[i % 3])
        p = random_lattice_multistep(rng, L)
        base = int(64 * L)
        yield "criterion4", p, L, base * max(1, math.ceil(256 / base))


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _floats(xs):
    return [repr(float(x)) for x in xs]


def _record(kind, p, L, n0):
    rec = {"kind": kind, "potential": repr(p), "L": repr(L), "n0": n0}
    try:
        r = solve_extrapolated(p, L, n0=n0, levels=3)
    except SolverError as exc:
        rec["error"] = str(exc)
        return rec
    rec["raw_lambda0"] = _floats(r.raw_lambda0)
    rec["raw_lambda1"] = _floats(r.raw_lambda1)
    rec["error_estimate"] = _floats(r.error_estimate)
    rec["phi0_sha256"] = _sha(r.phi0)
    rec["checks"] = [[c.name, c.status, repr(c.measured)] for c in verify(p, L, r).checks]
    if not isinstance(p, InverseSquareCapped):
        exact = eigenvalues_exact(decompose(p, L), 2)
        rec["eigenvalues_exact"] = _floats(exact)
        rec["profile_sha256"] = _sha(ground_state_profile(p, L, exact[0]).values)
    return rec


def records():
    return [_record(*case) for case in _cases()]


def test_solve_cases_match_golden():
    assert records() == json.loads(GOLDEN.read_text())


def test_ground_only_solve_matches_both_vectors():
    # excited=False skips the excited vector and nothing else: the same
    # eigenvalues and the same ground-vector bits, on each case's n0 grid
    for _, p, L, n0 in _cases():
        op = assemble(p, _nested_grids(p, L, n0, 1)[0])
        ground, excited = lowest_two_eigenpairs(op)
        ground_only, skipped = lowest_two_eigenpairs(op, excited=False)
        assert (ground_only.value, skipped.value) == (ground.value, excited.value)
        assert ground_only.vector.tobytes() == ground.vector.tobytes()
        assert skipped.vector is None


if __name__ == "__main__":
    print(json.dumps(records(), indent=1))
