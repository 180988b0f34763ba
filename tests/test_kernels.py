"""Kernel shortcuts that save work but never move a result.

``bisect_eigenvalue`` decides a midpoint from an earlier count whenever the
count's monotonicity in the shift settles it, and ``lowest_two_eigenvalues``
seeds those counts around a guess.  ``sturm_count`` takes the shift off the
diagonal before its loop, and ``prufer_theta_piecewise`` skips the layer
lookup for steps inside one layer.  These properties pin down that none of
them changes a single bit of the output: the last two against copies of the
loops as they were before those shortcuts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    DiscreteOperator,
    Grid,
    Step,
    assemble,
    decompose,
    lowest_two_eigenpairs,
    lowest_two_eigenvalues,
    solve_extrapolated,
)
from gaplab import kernels
from conftest import random_capped, random_lattice_multistep, random_multistep

EPS = np.finfo(float).eps


def random_tridiagonal(rng):
    """(diag, off): a general symmetric tridiagonal, or (every other draw) two
    copies of one Neumann block joined by a link of a few eps * ||T||, whose
    lowest two eigenvalues split by about that much."""
    if rng.integers(2):
        n = int(rng.integers(2, 40))
        diag = rng.uniform(-10.0, 10.0, n)
        off = rng.uniform(-5.0, 5.0, n - 1)
        return diag, off
    m = int(rng.integers(2, 20))
    block = 2.0 + rng.uniform(0.0, 1.0, m)
    block[0] -= 1.0
    block[-1] -= 1.0
    diag = np.concatenate([block, block])
    off = np.full(2 * m - 1, -1.0)
    link = -float(rng.uniform(0.1, 100.0)) * EPS * 4.0
    off[m - 1] = link
    diag[[m - 1, m]] -= link
    return diag, off


def _bisect_inputs(diag, off):
    off2 = off * off
    pivmin = max(off2.max(), 1.0) * 1e-250
    radius = 2.0 * np.abs(off).max()
    lo = float(diag.min() - radius)
    hi = float(np.abs(diag).max() + radius)
    return off2, pivmin, lo, hi


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(0, 12))
def test_bisection_with_counted_shifts_matches_plain(seed, k, n_known):
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, lo, hi = _bisect_inputs(diag, off)
    plain = kernels.bisect_eigenvalue(diag, off2, k, lo, hi, pivmin)
    # known shifts anywhere in the enclosure, and some within a few
    # eps * ||T|| of the lowest two eigenvalues, where the counts flip
    lams = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    ulp = EPS * DiscreteOperator(diag, off).norm_inf()
    shifts = list(rng.uniform(lo, hi, n_known))
    shifts += [float(lams[j] + ulp * rng.uniform(-4.0, 4.0))
               for j in rng.integers(0, 2, n_known)]
    counts = {s: kernels.sturm_count(diag, off2, s, pivmin) for s in shifts}
    known = dict(counts)
    reused = kernels.bisect_eigenvalue(diag, off2, k, lo, hi, pivmin, counts)
    assert reused == plain
    # every count it took was recorded, and the earlier ones kept
    assert counts.items() >= known.items()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_sturm_count_monotone_near_eigenvalue(seed, j):
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, _, _ = _bisect_inputs(diag, off)
    lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[j]
    ulp = EPS * DiscreteOperator(diag, off).norm_inf()
    shifts = np.sort(lam + ulp * rng.uniform(-6.0, 6.0, 64))
    counts = [kernels.sturm_count(diag, off2, s, pivmin) for s in shifts]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def reference_sturm_count(diag, off2, shift, pivmin):
    # the loop with the shift subtracted inside it, d = a_i - shift - b_i / d
    shift = float(shift)
    pivmin = float(pivmin)
    a = diag.tolist()
    count = 0
    d = a[0] - shift
    if d < pivmin:
        if d > -pivmin:
            d = -pivmin
        count += 1
    for ai, bi in zip(a[1:], off2.tolist()):
        d = ai - shift - bi / d
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
    return count


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_sturm_count_matches_reference_loop(seed, j):
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, lo, hi = _bisect_inputs(diag, off)
    lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[j]
    ulp = EPS * DiscreteOperator(diag, off).norm_inf()
    shifts = list(lam + ulp * rng.uniform(-6.0, 6.0, 32))  # numpy floats
    shifts += [float(s) for s in rng.uniform(lo, hi, 8)]
    for s in shifts:
        assert kernels.sturm_count(diag, off2, s, pivmin) == \
            reference_sturm_count(diag, off2, s, pivmin)


guesses = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-9, 1e-9),
    st.floats(),  # any double, nan and the infinities included
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 40.0), guesses, guesses)
def test_wrong_guess_changes_no_bit(seed, L, guess0, guess1):
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 else random_capped(rng)
    op = assemble(p, Grid(L, 128))
    plain = lowest_two_eigenpairs(op)
    for near in ((guess0, guess1), (guess1, guess0)):
        guided = lowest_two_eigenpairs(op, near=near)
        for a, b in zip(plain, guided):
            assert a.value == b.value
            assert a.vector.tobytes() == b.vector.tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 40.0), guesses, guesses)
def test_eigenvalues_match_eigenpairs(seed, L, guess0, guess1):
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 else random_capped(rng)
    op = assemble(p, Grid(L, 128))
    for near in (None, (guess0, guess1)):
        pair0, pair1 = lowest_two_eigenpairs(op, near=near)
        assert lowest_two_eigenvalues(op, near=near) == (pair0.value, pair1.value)


def reference_prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # the RK4 phase sweep with a layer lookup at every step
    breaks = breaks.tolist()
    vals = vals.tolist()
    lam = float(lam)
    m = len(vals)
    h = (breaks[m] - breaks[0]) / n_steps
    theta = 0.5 * math.pi
    idx = 0
    x = breaks[0]
    for _ in range(n_steps):
        xm = x + 0.5 * h
        xe = x + h
        while idx < m - 1 and x > breaks[idx + 1]:
            idx += 1
        q1 = lam - vals[idx]
        j = idx
        while j < m - 1 and xm > breaks[j + 1]:
            j += 1
        q2 = lam - vals[j]
        while j < m - 1 and xe > breaks[j + 1]:
            j += 1
        q3 = lam - vals[j]
        st_, ct = math.sin(theta), math.cos(theta)
        k1 = ct * ct + q1 * st_ * st_
        t2 = theta + 0.5 * h * k1
        st_, ct = math.sin(t2), math.cos(t2)
        k2 = ct * ct + q2 * st_ * st_
        t3 = theta + 0.5 * h * k2
        st_, ct = math.sin(t3), math.cos(t3)
        k3 = ct * ct + q2 * st_ * st_
        t4 = theta + h * k3
        st_, ct = math.sin(t4), math.cos(t4)
        k4 = ct * ct + q3 * st_ * st_
        theta += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x = xe
    return theta


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([1, 2, 4, 8]),
       st.integers(16, 4000), st.floats(-20.0, 200.0))
def test_prufer_theta_piecewise_matches_reference_loop(seed, L, refine, n_any, lam):
    # On the lattice, h = 1/(64 refine) is dyadic and x + h lands exactly on
    # every break; off the lattice the step count is arbitrary.
    rng = np.random.default_rng(seed)
    if seed % 2:
        p = random_lattice_multistep(rng, float(L))
        n_steps = 64 * L * refine
    else:
        p = random_multistep(rng, float(L))
        n_steps = n_any
    layers = decompose(p, float(L))
    theta = kernels.prufer_theta_piecewise(layers.breaks, layers.values, lam, n_steps)
    ref = reference_prufer_theta_piecewise(layers.breaks, layers.values, lam, n_steps)
    assert theta.hex() == ref.hex()


def test_sturm_sweep_budget(monkeypatch):
    # Plain bisection of both eigenvalues from the Gershgorin range takes 324
    # Sturm sweeps on these three grids; shared and guessed counts take 155.
    # Only the finest grid runs inverse iteration (4 sweeps here); the two
    # coarse grids are solved for eigenvalues only.  The counts are
    # deterministic: a change that loses the reuse fails here.
    calls = {"sturm": 0, "inverse_sweeps": 0}
    sturm_count = kernels.sturm_count
    inverse_iteration = kernels.inverse_iteration

    def counted_sturm(*args):
        calls["sturm"] += 1
        return sturm_count(*args)

    def counted_inverse(*args):
        out = inverse_iteration(*args)
        calls["inverse_sweeps"] += out[1]
        return out

    monkeypatch.setattr(kernels, "sturm_count", counted_sturm)
    monkeypatch.setattr(kernels, "inverse_iteration", counted_inverse)
    solve_extrapolated(Step(1.0, (-0.5, 0.5)), 100.0, n0=800, levels=3)
    assert calls["sturm"] <= 194
    assert calls["inverse_sweeps"] == 4
