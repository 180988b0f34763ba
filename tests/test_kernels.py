"""Kernel shortcuts that save work but never move a result, the one-solve
eigenvector kernel's residual, and the phase sweep's order.

``bisect_eigenvalue`` decides a midpoint from an earlier count whenever the
count's monotonicity in the shift settles it, and ``lowest_two_eigenvalues``
seeds those counts with Newton sweeps (``sturm_newton``, which must count
exactly like ``sturm_count``) from a guess and around where they end.
``sturm_count`` takes the shift off the diagonal before its loop, and
``inverse_iteration`` fills its vector by cumulative products.  These
properties pin down that none of them changes a single bit of the output:
the last two against copies of the loops as they were before those
shortcuts.  ``prufer_theta_piecewise`` ends a step on
every break of the potential; its tests pin RK4's fourth order off the
lattice and a count across a barrier far narrower than one step.
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
    default_cell_count,
    lowest_two_eigenpairs,
    lowest_two_eigenvalues,
    prufer_count,
    solve_extrapolated,
)
from gaplab import kernels
from gaplab.fdsolver import _kernel_inputs, _nested_grids
from conftest import random_capped, random_multistep

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
    # off2 and pivmin exactly as the eigensolver hands them to the kernels
    _, _, off2, pivmin = _kernel_inputs(DiscreteOperator(diag, off))
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_inverse_iteration_one_solve_residual(seed, k):
    # From the best start e_r, one twisted-factorization solve leaves a
    # residual of at most sqrt(n) |lambda - sigma| (Parlett & Dhillon, LAA
    # 267, 1997); sigma is the bisected value, within its tolerance plus
    # eps * ||T|| of lambda.  The weakly linked pairs are included.
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, lo, hi = _bisect_inputs(diag, off)
    sigma = kernels.bisect_eigenvalue(diag, off2, k, lo, hi, pivmin)
    vec, solves, finite = kernels.inverse_iteration(diag, off, sigma, pivmin)
    assert (solves, finite) == (1, True)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    op = DiscreteOperator(diag, off)
    shift_error = max(1e-13, 1e-12 * abs(sigma)) + EPS * op.norm_inf()
    residual = np.linalg.norm(op.matvec(vec) - sigma * vec)
    assert residual <= math.sqrt(diag.size) * shift_error


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
    for ai, bi in zip(a[1:], off2):
        d = ai - shift - bi / d
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
    return count


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_sturm_newton_counts_like_sturm_count(seed):
    # The Newton sweep's count is sturm_count's at random shifts, at both
    # bisected eigenvalues and where the pivot guard is hit (a shift equal to
    # the first diagonal entry makes the first pivot zero), so its counts can
    # seed the bisections.  Its dlogdet is -sum_j 1 / (lambda_j - shift).
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, lo, hi = _bisect_inputs(diag, off)
    randoms = [float(s) for s in rng.uniform(lo, hi, 8)]
    bisected = [kernels.bisect_eigenvalue(diag, off2, k, lo, hi, pivmin) for k in (0, 1)]
    for s in randoms + bisected + [float(diag[0])]:
        count, _ = kernels.sturm_newton(diag, off2, s, pivmin)
        assert count == kernels.sturm_count(diag, off2, s, pivmin)
    lams = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # eigvalsh places each lambda_j within a few eps * ||T||, so the
    # reference is good to a relative 1e-8 only at shifts at least
    # 1e-6 ||T|| away from every eigenvalue
    norm = DiscreteOperator(diag, off).norm_inf()
    assert diag.size <= 64
    for s in randoms:
        if np.abs(lams - s).min() < 1e-6 * norm:
            continue
        _, dlogdet = kernels.sturm_newton(diag, off2, s, pivmin)
        assert dlogdet == pytest.approx(-np.sum(1.0 / (lams - s)), rel=1e-8, abs=0.0)


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


def reference_inverse_iteration(diag, off, sigma, pivmin):
    # the twisted solve with z filled and r picked index by index
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shifted = (diag - float(sigma)).tolist()
    off = off.tolist()
    n = len(shifted)

    def pivots(cs, bs):
        d = cs[0]
        if neg_pivmin < d < pivmin:
            d = neg_pivmin
        out = [d]
        for c, b in zip(cs[1:], bs):
            d = c - b * b / d
            if neg_pivmin < d < pivmin:
                d = neg_pivmin
            out.append(d)
        return out

    fwd = pivots(shifted, off)
    bwd = pivots(shifted[::-1], off[::-1])[::-1]
    r = min(range(n), key=lambda i: abs(fwd[i] + bwd[i] - shifted[i]))
    z = [0.0] * n
    z[r] = zi = 1.0
    for i in range(r - 1, -1, -1):
        zi = z[i] = -(off[i] / fwd[i]) * zi
    zi = 1.0
    for i in range(r + 1, n):
        zi = z[i] = -(off[i - 1] / bwd[i]) * zi
    z = np.array(z)
    amax = float(np.abs(z).max())
    if not math.isfinite(amax):
        return z, 1, False
    z /= amax
    return z / np.linalg.norm(z), 1, True


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inverse_iteration_matches_reference_loop(seed):
    # at both bisected eigenvalues and at a shift that is none, the weakly
    # linked pairs included: the same bits as the per-index loop
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    off2, pivmin, lo, hi = _bisect_inputs(diag, off)
    shifts = [kernels.bisect_eigenvalue(diag, off2, k, lo, hi, pivmin) for k in (0, 1)]
    shifts.append(float(rng.uniform(lo, hi)))
    for sigma in shifts:
        vec, solves, finite = kernels.inverse_iteration(diag, off, sigma, pivmin)
        ref_vec, ref_solves, ref_finite = reference_inverse_iteration(diag, off, sigma, pivmin)
        assert (solves, finite) == (ref_solves, ref_finite)
        assert vec.tobytes() == ref_vec.tobytes()


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


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 40.0))
def test_guided_levels_match_unguided(seed, L):
    # Every level of solve_extrapolated starts from a guess (level 0 from a
    # grid a quarter its size); each raw value is the unguided bisection's.
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 else random_capped(rng)
    n0 = default_cell_count(L, floor=512)  # as in acceptance criterion 3
    r = solve_extrapolated(p, L, n0=n0, levels=3)
    for grid, lam0, lam1 in zip(_nested_grids(p, L, n0, 3), r.raw_lambda0, r.raw_lambda1):
        assert lowest_two_eigenvalues(assemble(p, grid)) == (lam0, lam1)


def test_prufer_theta_piecewise_fourth_order_off_lattice():
    # Steps end on every break, so q = lam - v is constant within each step
    # and the sweep converges at RK4's order 4 however the breaks fall.
    # Steps that straddled a jump showed orders from -9 to 4.5 on these
    # draws.  The coarsest sweep gives every layer at least 32 steps, so the
    # per-layer counts max(1, ceil(n l_j / L)) nearly double with n; a draw
    # whose finest difference lies within the rounding bound 4 n eps max(1, |theta|)
    # carries no order and is left out, as is one with a layer narrower
    # than L / 200, which would need over 6400 steps.
    orders = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        L = float(rng.uniform(1.0, 20.0))
        layers = decompose(random_multistep(rng, L), L)
        lam = float(rng.uniform(-1.0, 4.0))
        thinnest = float(np.diff(layers.breaks).min())
        if thinnest < L / 200.0:
            continue
        n = math.ceil(32.0 * L / thinnest)
        t1, t2, t4 = (kernels.prufer_theta_piecewise(layers.breaks, layers.values, lam, m)
                      for m in (n, 2 * n, 4 * n))
        if abs(t2 - t4) <= 4 * n * EPS * max(1.0, abs(t4)):
            continue
        orders.append(math.log2(abs((t1 - t2) / (t2 - t4))))
    assert len(orders) >= 15
    assert all(abs(order - 4.0) <= 0.5 for order in orders), orders


@pytest.mark.parametrize("height", [1e6, 1e7])
def test_phase_count_resolves_thin_tall_barrier(height):
    # A barrier 1/height wide at L = 10 lies inside one step of 1e-2.  Steps
    # that straddled it counted an eigenvalue below lambda0, so the exact
    # oracle could not bracket; a step now ends on each of its breaks.
    p = Step(height, (0.0, 1.0 / height))
    r = solve_extrapolated(p, 10.0, n0=default_cell_count(10.0), levels=3)
    shifts = (r.lambda0 - 0.5 * r.gap, 0.5 * (r.lambda0 + r.lambda1),
              r.lambda1 + 0.5 * r.gap)
    assert [prufer_count(p, 10.0, lam) for lam in shifts] == [0, 1, 2]


def test_sturm_sweep_budget(monkeypatch):
    # Plain bisection of both eigenvalues from the Gershgorin range takes 324
    # Sturm sweeps on the three grids of N = 800, 1600 and 3200 cells.
    # Counts shared by the two bisections and taken around the guess of the
    # level before cut that to 155 sweeps (229600 cells).  Level 0 guessed
    # from a grid of 200 cells and Newton sweeps from every guess cut it to
    # the sweeps pinned below: 146160 cells, a Newton sweep weighted 2.2.
    # Only the finest grid solves for eigenvectors, one twisted-factorization
    # solve per eigenvalue (2 here).  The counts are deterministic: a change
    # that loses the reuse fails here.
    sweeps = {}  # N -> [Sturm sweeps, Newton sweeps]
    calls = {"inverse_sweeps": 0}
    sturm_count = kernels.sturm_count
    sturm_newton = kernels.sturm_newton
    inverse_iteration = kernels.inverse_iteration

    def counted_sturm(diag, *args):
        sweeps.setdefault(diag.size, [0, 0])[0] += 1
        return sturm_count(diag, *args)

    def counted_newton(diag, *args):
        sweeps.setdefault(diag.size, [0, 0])[1] += 1
        return sturm_newton(diag, *args)

    def counted_inverse(*args):
        out = inverse_iteration(*args)
        calls["inverse_sweeps"] += out[1]
        return out

    monkeypatch.setattr(kernels, "sturm_count", counted_sturm)
    monkeypatch.setattr(kernels, "sturm_newton", counted_newton)
    monkeypatch.setattr(kernels, "inverse_iteration", counted_inverse)
    solve_extrapolated(Step(1.0, (-0.5, 0.5)), 100.0, n0=800, levels=3)
    assert sweeps == {200: [74, 0], 800: [16, 5], 1600: [17, 4], 3200: [17, 2]}
    assert calls["inverse_sweeps"] == 2
