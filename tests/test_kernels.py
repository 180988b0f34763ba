"""Kernel shortcuts that save work but never move a result, the one-solve
eigenvector kernel's residual, and the phase sweep's order.

``SturmCounts`` keeps the counts taken on one matrix.  It answers a
bisection midpoint or a gallop shift from a kept count whenever the
count's monotonicity in the shift settles it, without a sweep, and
``lowest_two_eigenvalues`` seeds it with Newton sweeps (``sturm_newton``,
which must count exactly like ``sturm_count``) from a guess and around
where they end.  It reuses a count wherever the shifted diagonal rounds
to a vector already counted, and only then: a constructed matrix pins
that every entry is compared, and fine grids, where most of the last
midpoints round so, pin that no midpoint moves and that every count it
keeps is the one a sweep returns.
``sturm_count`` takes the shift off the diagonal before its loop, and
``inverse_iteration`` fills its vector by cumulative products.  These
properties pin down that neither changes a single bit of the output,
against copies of the loops as they were before those shortcuts, on
matrices without runs.  The Sturm sweeps and both pivot passes of the
twisted solve read a run-length form and take each run of equal rows in
closed form, by the discrete Pruefer angle.  Against the per-row loop, on
runs whose rows rotate (|t| < 1), grow (|t| > 1) or are linear (t = +-1
exactly), and where the loop guards a pivot inside a run to -pivmin, the
closed form gives the loop's count at every shift farther than eps ||T||
from an eigenvalue, a count non-decreasing in the shift within that band
too, the loop's Newton sum to 1e-8 away from eigenvalues, wherever the
loop's sum is the derivative to 1e-8, and a twisted-solve vector within
a first-order bound of the loop's, eps ||T|| over the distance to the
next eigenvalue (or, past a guarded zero pivot, a residual no larger).
On criterion 5's finest halves its vectors lie as close to a long-double
solve as the loop's, and no numpy transcendental, whose bits depend on
the CPU, enters them.  The unit step's finest halves pin that the runs
are there to be swept, and one run-length form serves both halves of an
even operator and both pivot passes.
``prufer_theta_piecewise`` ends a step on every break of the potential;
its tests pin RK4's fourth order off the lattice and a count across a
barrier far narrower than one step.  Both phase kernels sweep the doubled
angle 2 theta, one cosine per stage: against copies of the theta loops
they replace, they pin the same counts and theta to within rounding, and
the capped profile, which carries v from a step's end to the next step's
start, pins the bytes of the loop that evaluated it twice.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import (
    DiscreteOperator,
    Grid,
    InverseSquareCapped,
    MultiStep,
    Step,
    Zero,
    assemble,
    decompose,
    default_cell_count,
    lowest_two_eigenpairs,
    lowest_two_eigenvalues,
    prufer_count,
    solve_extrapolated,
)
from gaplab import fdsolver, kernels, oracle
from gaplab.fdsolver import _nested_grids
from scipy.linalg import eigvalsh_tridiagonal
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
    # a count store with its run-length form and pivmin exactly as the
    # eigensolver builds them, and the Gershgorin enclosure
    radius = 2.0 * np.abs(off).max()
    lo = float(diag.min() - radius)
    hi = float(np.abs(diag).max() + radius)
    return kernels.SturmCounts(diag, off), lo, hi


def _kept(counts):
    """shift -> count of every count the store keeps, which it keeps sorted
    by shift, each shift once."""
    assert counts.shifts == sorted(set(counts.shifts))
    return dict(zip(counts.shifts, counts.counts))


def reference_bracket(diag, runs, k, lo, hi, pivmin):
    # plain bisection, a Sturm sweep at every midpoint: the last (lo, hi)
    while True:
        top = max(abs(lo), abs(hi))
        if hi - lo <= kernels.tolerance(top):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if kernels.sturm_count(diag, runs, mid, pivmin) > k:
            hi = mid
        else:
            lo = mid
    return lo, hi


def reference_bisect(diag, runs, k, lo, hi, pivmin):
    lo, hi = reference_bracket(diag, runs, k, lo, hi, pivmin)
    return 0.5 * (lo + hi)


def _check_counted_shifts(rng, diag, off, k, n_known):
    # The bisection from no counts and from counts known beforehand takes
    # the midpoints of plain bisection.  Known shifts lie anywhere in the
    # enclosure, and some within a few eps * ||T|| of the lowest two
    # eigenvalues, where the counts flip; they are kept as Newton counts,
    # as the eigensolver keeps them.
    counts, lo, hi = _bisect_inputs(diag, off)
    runs, pivmin = counts.runs, counts.pivmin
    lams = [reference_bisect(diag, runs, j, lo, hi, pivmin) for j in (0, 1)]
    plain = lams[k]
    assert kernels.bisect_eigenvalue(counts, k, lo, hi) == plain
    ulp = EPS * DiscreteOperator(diag, off).norm_inf()
    shifts = list(rng.uniform(lo, hi, n_known))
    shifts += [float(lams[j] + ulp * rng.uniform(-4.0, 4.0))
               for j in rng.integers(0, 2, n_known)]
    known = {s: kernels.sturm_count(diag, runs, s, pivmin) for s in shifts}
    guided, _, _ = _bisect_inputs(diag, off)
    for s in shifts:
        guided.newton(s)
    reused = kernels.bisect_eigenvalue(guided, k, lo, hi)
    assert reused == plain
    # every count either store took is kept, the known ones too, and is
    # the count a sweep returns
    assert _kept(guided).items() >= known.items()
    for store in (counts, guided):
        for s, c in _kept(store).items():
            assert c == kernels.sturm_count(diag, runs, s, pivmin)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(0, 12))
def test_bisection_with_counted_shifts_matches_plain(seed, k, n_known):
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    _check_counted_shifts(rng, diag, off, k, n_known)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1), st.integers(0, 12),
       st.floats(0.5, 4.0))
def test_bisection_with_counted_shifts_matches_plain_fine_grid(seed, k, n_known, L):
    # The finest grids of acceptance criterion 3 (256 cells per unit):
    # ||T|| ~ 2.6e5, so eps ||T|| lies far above the bisection tolerance and
    # most of the last midpoints shift the diagonal to a vector already
    # counted.  Reusing those counts must not move a midpoint.
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 else random_capped(rng)
    op = assemble(p, Grid(L, math.ceil(256 * L)))
    _check_counted_shifts(rng, op.diag, op.offdiag, k, n_known)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_sturm_count_monotone_near_eigenvalue(seed, j):
    # Counts at sorted shifts dense in the rounding band of eigenvalue j and
    # of one other, and at the 64 doubles above each, never decrease: on a
    # general matrix, and on one run of equal rows between two others,
    # which the sweep takes in closed form.
    rng = np.random.default_rng(seed)
    for make in (random_tridiagonal, _run_matrix):
        diag, off = make(rng)
        counts, _, _ = _bisect_inputs(diag, off)
        runs, pivmin = counts.runs, counts.pivmin
        lams = eigvalsh_tridiagonal(diag, off)
        ulp = EPS * DiscreteOperator(diag, off).norm_inf()
        for lam in (lams[j], rng.choice(lams)):
            shifts = list(lam + ulp * rng.uniform(-6.0, 6.0, 64)) + [float(lam)]
            for _ in range(64):
                shifts.append(math.nextafter(shifts[-1], math.inf))
            found = [kernels.sturm_count(diag, runs, s, pivmin) for s in sorted(shifts)]
            assert all(a <= b for a, b in zip(found, found[1:]))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_inverse_iteration_one_solve_residual(seed, k):
    # From the best start e_r, one twisted-factorization solve leaves a
    # residual of at most sqrt(n) |lambda - sigma| (Parlett & Dhillon, LAA
    # 267, 1997); sigma is the bisected value, within its tolerance plus
    # eps * ||T|| of lambda.  The weakly linked pairs are included.
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    counts, lo, hi = _bisect_inputs(diag, off)
    sigma = kernels.bisect_eigenvalue(counts, k, lo, hi)
    vec, solves, finite = kernels.inverse_iteration(counts, sigma)
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
    counts, lo, hi = _bisect_inputs(diag, off)
    runs, pivmin = counts.runs, counts.pivmin
    randoms = [float(s) for s in rng.uniform(lo, hi, 8)]
    bisected = [kernels.bisect_eigenvalue(counts, k, lo, hi) for k in (0, 1)]
    for s in randoms + bisected + [float(diag[0])]:
        count, _ = kernels.sturm_newton(diag, runs, s, pivmin)
        assert count == kernels.sturm_count(diag, runs, s, pivmin)
    lams = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # eigvalsh places each lambda_j within a few eps * ||T||, so the
    # reference is good to a relative 1e-8 only at shifts at least
    # 1e-6 ||T|| away from every eigenvalue
    norm = DiscreteOperator(diag, off).norm_inf()
    assert diag.size <= 64
    for s in randoms:
        if np.abs(lams - s).min() < 1e-6 * norm:
            continue
        _, dlogdet = kernels.sturm_newton(diag, runs, s, pivmin)
        assert dlogdet == pytest.approx(-np.sum(1.0 / (lams - s)), rel=1e-8, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 1))
def test_sturm_count_matches_reference_loop(seed, j):
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    counts, lo, hi = _bisect_inputs(diag, off)
    runs, pivmin = counts.runs, counts.pivmin
    off2 = (off * off).tolist()
    lam = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))[j]
    ulp = EPS * DiscreteOperator(diag, off).norm_inf()
    shifts = list(lam + ulp * rng.uniform(-6.0, 6.0, 32))  # numpy floats
    shifts += [float(s) for s in rng.uniform(lo, hi, 8)]
    for s in shifts:
        assert kernels.sturm_count(diag, runs, s, pivmin) == \
            reference_sturm_count(diag, off2, s, pivmin)


def reference_pivots(diag, off, sigma, pivmin):
    # the twisted solve's forward and backward pivots, row by row, each
    # guarded to -pivmin within pivmin of zero
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shifted = (diag - float(sigma)).tolist()
    off = off.tolist()

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

    return pivots(shifted, off), pivots(shifted[::-1], off[::-1])[::-1]


def reference_inverse_iteration(diag, off, sigma, pivmin):
    # the twisted solve with z filled and r picked index by index
    fwd, bwd = reference_pivots(diag, off, sigma, pivmin)
    shifted = (diag - float(sigma)).tolist()
    off = off.tolist()
    n = len(shifted)
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
    return z / math.sqrt(np.add.reduce(z * z)), 1, True  # pairwise, as the kernel


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_inverse_iteration_matches_reference_loop(seed):
    # at both bisected eigenvalues and at a shift that is none, the weakly
    # linked pairs included: the same bits as the per-index loop.  These
    # matrices have no run, so both pivot passes take every row by the loop
    rng = np.random.default_rng(seed)
    diag, off = random_tridiagonal(rng)
    counts, lo, hi = _bisect_inputs(diag, off)
    assert len(counts.runs.segments) == 1
    pivmin = counts.pivmin
    shifts = [kernels.bisect_eigenvalue(counts, k, lo, hi) for k in (0, 1)]
    shifts.append(float(rng.uniform(lo, hi)))
    for sigma in shifts:
        vec, solves, finite = kernels.inverse_iteration(counts, sigma)
        ref_vec, ref_solves, ref_finite = reference_inverse_iteration(diag, off, sigma, pivmin)
        assert (solves, finite) == (ref_solves, ref_finite)
        assert vec.tobytes() == ref_vec.tobytes()


def reference_sturm_newton(diag, off2, shift, pivmin):
    # sturm_newton's loop over every row, the shift taken off in numpy
    pivmin = float(pivmin)
    shifted = iter((diag - float(shift)).tolist())
    count = 0
    d = next(shifted)
    if d < pivmin:
        if d > -pivmin:
            d = -pivmin
        count += 1
    r = -1.0 / d
    total = r
    for c, b in zip(shifted, off2):
        q = b / d
        d = c - q
        if d < pivmin:
            if d > -pivmin:
                d = -pivmin
            count += 1
        r = (q * r - 1.0) / d
        total += r
    return count, total


def _run_rows(runs):
    """The rows that the twisted solve takes in closed form: each forward
    run's, and the backward pass's, which are a forward run's but its last."""
    forward, backward = set(), set()
    start = 0
    for b2s, _, _, n in runs.segments:
        start += len(b2s)
        forward.update(range(start, start + n))
        backward.update(range(start, start + n - 1))
        start += n
    return forward, backward


def _check_run_length(diag, off, shifts):
    # At the given shifts and at both bisected eigenvalues:
    # - sturm_newton counts as sturm_count, and both give the per-row
    #   loop's count at every shift farther than eps ||T|| from an
    #   eigenvalue, where rounding no longer decides it;
    # - sturm_newton's sum, -sum_j 1 / (lambda_j - shift), is the loop's to
    #   1e-8 of itself at shifts 1e-6 ||T|| from every eigenvalue, wherever
    #   the loop's sum is that derivative to 1e-8.  A sum of pivots' terms
    #   loses digits at a shift near an eigenvalue of a leading block, where
    #   a pivot nears zero (or is guarded), and where its terms cancel to
    #   nearly zero: there the loop's sum holds no digits to compare;
    # - the twisted solve, which takes runs in closed form, stays finite
    #   where the reference loop does, and its vector lies within a first-
    #   order bound of the loop's.  Each is one twisted solve of T + E with
    #   ||E|| <= w = 8 eps ||T||: the loop rounds a_i - sigma, b_i^2 / d and
    #   their difference at each row (|sigma| <= ||T||), and the closed form
    #   takes theta and each phase to a few ulps, which moves the run's
    #   diagonal entry and the pivot it starts from by some eps ||T||; w
    #   also covers eigvalsh_tridiagonal's own error in lambda, the
    #   eigenvalue nearest sigma.  From its best r the solve leaves a
    #   residual of at most sqrt(n) times the distance from sigma to an
    #   eigenvalue of T + E (Parlett & Dhillon, LAA 267, 1997), so against T
    #   rho <= sqrt(n) (|lambda - sigma| + w) + w, and the cumulative
    #   products that fill z round each component by at most 2 n eps.  A
    #   unit vector with residual rho lies within sqrt(2) rho / delta of +-u,
    #   u the eigenvector of lambda and delta the distance from sigma to the
    #   next eigenvalue (the sin theta theorem; Davis & Kahan, SINUM 7, 1970),
    #   so up to sign the two vectors lie within
    #   2 sqrt(2) rho / delta + 4 n eps of each other: eps ||T|| / delta to
    #   first order at shifts within eps ||T|| of an eigenvalue.  Far from
    #   every eigenvalue the bound exceeds 1: the vector there depends on
    #   which of some nearly tied r rounding picks, and is not compared.
    #   Where the loop guards a zero pivot inside a run (sigma an eigenvalue
    #   of a leading block), it picks r from guarded pivots, and its residual
    #   can exceed rho (by up to 5.3 times on block layouts); the closed form
    #   finds no exact zero there and fills another vector.  Where the bound
    #   is below 1, its residual is held to the larger of the loop's and
    #   rho, plus the fill's rounding, 2 ||T|| 2 n eps: no worse a solve.
    # No eigenvalue lies within w of a shift where the loop counts alike w
    # below and w above it.
    counts, lo, hi = _bisect_inputs(diag, off)
    runs, pivmin = counts.runs, counts.pivmin
    off2 = (off * off).tolist()
    shifts = list(shifts) + [kernels.bisect_eigenvalue(counts, k, lo, hi) for k in (0, 1)]
    op = DiscreteOperator(diag, off)
    norm = op.norm_inf()
    lams = eigvalsh_tridiagonal(diag, off)
    n = diag.size
    w = 8.0 * EPS * norm
    forward_runs, backward_runs = _run_rows(runs)

    def isolated(s, w):
        return reference_sturm_count(diag, off2, s - w, pivmin) == \
            reference_sturm_count(diag, off2, s + w, pivmin)

    with np.errstate(all="ignore"):
        for s in shifts:
            count = kernels.sturm_count(diag, runs, s, pivmin)
            newton_count, dlogdet = kernels.sturm_newton(diag, runs, s, pivmin)
            assert newton_count == count
            ref_count, ref_dlogdet = reference_sturm_newton(diag, off2, s, pivmin)
            if isolated(s, EPS * norm):
                assert count == ref_count
            if isolated(s, 1e-6 * norm):
                exact = -np.sum(1.0 / (lams - s))
                if abs(ref_dlogdet - exact) <= 1e-8 * abs(exact):
                    assert abs(dlogdet - ref_dlogdet) <= 1e-8 * abs(ref_dlogdet)
            vec, solves, finite = kernels.inverse_iteration(counts, s)
            ref_vec, ref_solves, ref_finite = reference_inverse_iteration(diag, off, s, pivmin)
            assert (solves, finite) == (ref_solves, ref_finite)
            if not finite:
                continue
            near, delta = np.sort(np.abs(lams - s))[:2]
            rho = math.sqrt(n) * (near + w) + w
            bound = 2.0 * math.sqrt(2.0) * rho / delta + 4.0 * n * EPS
            fwd, bwd = reference_pivots(diag, off, s, pivmin)
            if not (any(fwd[i] == -pivmin for i in forward_runs)
                    or any(bwd[i] == -pivmin for i in backward_runs)):
                apart = min(np.linalg.norm(vec - ref_vec), np.linalg.norm(vec + ref_vec))
                assert apart <= bound
            elif bound < 1.0:
                residual, ref_residual = (np.linalg.norm(op.matvec(v) - s * v)
                                          for v in (vec, ref_vec))
                assert residual <= max(ref_residual, rho) + 4.0 * n * EPS * norm


M = kernels.MIN_RUN
# (diagonal, off-diagonal) of a block's rows; off2 is the same for -1 and 1,
# so blocks of those two pairs sweep as one run
PAIRS = [(2.0, -1.0), (2.5, -1.0), (2.0, -0.5), (1.0, -1.0), (0.0, -1.0), (-0.0, -1.0),
         (2.0, 1.0)]
blocks = st.lists(st.tuples(st.sampled_from([1, 2, M - 1, M, M + 1]),
                            st.integers(0, len(PAIRS) - 1)), min_size=1, max_size=6)


def _block_matrix(layout):
    """(diag, off) whose block k is layout[k][0] rows of PAIRS[layout[k][1]]:
    off_{i-1} belongs to row i, so row 0 alone lacks its block's pair."""
    lengths = [n for n, _ in layout]
    diag = np.repeat([PAIRS[j][0] for _, j in layout], lengths)
    off = np.repeat([PAIRS[j][1] for _, j in layout], lengths)[1:]
    return diag, off


@settings(max_examples=100, deadline=None)
@given(blocks, st.lists(st.floats(-3.0, 6.0), max_size=3))
# a run of MIN_RUN rows from row 1 to the last row, where the shift 0
# meets the pivot cycle 1, 0 (guarded to -pivmin), 1 + 1/pivmin: the loop
# guards a zero pivot every third row inside the run, which the closed form
# counts by its phase, t = 1/2; at the shift 1 (t = 0) the loop guards every
# other pivot, and the twisted solves' residuals are compared
@example([(M + 1, 3)], [])
# runs of MIN_RUN - 1 (a stretch), MIN_RUN and MIN_RUN + 1 rows
@example([(M, 0), (1, 1), (M, 0), (1, 1), (M + 1, 0)], [0.5])
# +0 and -0 on the diagonal, unshifted by 0
@example([(M + 1, 4), (M, 5), (2, 4)], [])
# a forward run of MIN_RUN rows that the mirror, which pairs row i with
# off2_i, sweeps as a stretch of MIN_RUN - 1 rows: the next row's off2 differs
@example([(1, 3), (M, 0), (1, 2)], [])
# the converse: MIN_RUN - 1 equal forward rows before a jump in the diagonal
# across an equal off2, which the mirror sweeps as one run of MIN_RUN rows
@example([(M, 0), (1, 1)], [])
def test_run_length_sweeps_match_reference_loops(layout, randoms):
    # at random shifts, 0.0 and each diagonal value (whose pivots may be
    # exactly zero, guarded, and whose runs have t = 0 or t = +-1 exactly
    # where the block's off-diagonal is -1 and its neighbours' diagonal
    # differs by 2)
    diag, off = _block_matrix(layout)
    if diag.size < 2:
        return
    values = sorted({float(v) for v in diag})
    _check_run_length(diag, off, randoms + [0.0] + values)


def _run_matrix(rng, n=None):
    """(diag, off): one run of n rows of the pair (c, -b), rows 1 to n, with
    a head row 0 and a tail row of random diagonal entries; b is 0.375, 1
    or 4096, c a multiple of 1/64 a few units off 2b, and n, unless given,
    M, M + 1, 3 M or 1000."""
    if n is None:
        n = int(rng.choice([M, M + 1, 3 * M, 1000]))
    b = float(rng.choice([0.375, 1.0, 4096.0]))
    c = 2.0 * b + float(rng.integers(-256, 256)) / 64.0
    diag = np.full(n + 2, c)
    diag[[0, -1]] = c + b * rng.uniform(-2.0, 2.0, 2)
    return diag, np.full(n + 1, -b)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["rotating", "growing", "t=1", "t=-1"]),
       st.sampled_from([M, M + 1, 3 * M, 1000]))
def test_run_closed_form_matches_reference_loop(seed, regime, n):
    # One run between two other rows, at shifts that put it in the regime:
    # t = (c - shift) / 2b in (-1, 1) (the closed form's sines), beyond +-1
    # (sinh or cosh), or +-1 exactly (c - shift = +-2b, linear in the row,
    # and exact); at random shifts; and at shifts within 3 eps ||T|| of two
    # eigenvalues.  Each count is the per-row loop's away from the
    # eigenvalues, and each Newton sum the loop's (_check_run_length).
    rng = np.random.default_rng(seed)
    diag, off = _run_matrix(rng, n)
    c, b = float(diag[1]), float(-off[0])
    if regime == "rotating":
        special = c - 2.0 * b * rng.uniform(-1.0, 1.0, 4)
    elif regime == "growing":
        special = c - 2.0 * b * rng.choice([-1.0, 1.0], 4) * rng.uniform(1.0, 3.0, 4)
    else:
        special = np.array([c - 2.0 * b * (1.0 if regime == "t=1" else -1.0)])
        assert (c - special[0]) / (2.0 * b) == float(regime[2:])
    _, lo, hi = _bisect_inputs(diag, off)
    w = EPS * DiscreteOperator(diag, off).norm_inf()
    near = [lam + w * rng.uniform(-3.0, 3.0, 8)
            for lam in rng.choice(eigvalsh_tridiagonal(diag, off), 2)]
    shifts = np.concatenate([special, rng.uniform(lo, hi, 4)] + near)
    _check_run_length(diag, off, shifts.tolist())


@pytest.mark.parametrize("p, L, runs", [
    (Zero(), 5.0, 1),  # the interior, rows 1 to N - 2, is one run
    (InverseSquareCapped(0.05, 8.0), 5.0, 0),  # its cap spans 10 cells
], ids=["zero", "capped"])
def test_run_length_of_uniform_and_capped_operators(p, L, runs):
    op = assemble(p, Grid(L, 64 * int(L)))
    counts = kernels.SturmCounts(op.diag, op.offdiag)
    assert [n for _, _, _, n in counts.runs.segments[:-1]] == [op.diag.size - 2] * runs
    lam0, lam1 = lowest_two_eigenvalues(op)
    _check_run_length(op.diag, op.offdiag, [lam0, 0.5 * (lam0 + lam1), lam1 + 1.0, 10.0])


def test_unit_step_finest_halves_are_runs():
    # On the criterion-5 grids (64 cells per unit, L from 50 to 400) each
    # finest half is a handful of runs, one per layer, and its few other
    # rows: a change to assemble that breaks the runs fails here.
    p = Step(1.0, (-0.5, 0.5))
    for L in np.geomspace(50.0, 400.0, 9):
        grid = _nested_grids(p, float(L), default_cell_count(float(L)), 3)[-1]
        for half in fdsolver._mirror_halves(assemble(p, grid)):
            segments = kernels.SturmCounts(half.diag, half.offdiag).runs.segments
            assert len(segments) <= 8
            assert sum(n for _, _, _, n in segments) >= 0.99 * half.diag.size


def _longdouble_twisted_solve(diag, off, sigma):
    """The twisted solve of reference_inverse_iteration, row by row in
    numpy's long double, unit in the l2 norm."""
    ld = np.longdouble
    shifted = [ld(a) - ld(sigma) for a in diag.tolist()]
    off = np.array(off, dtype=ld)
    off2 = (off * off).tolist()

    def pivots(cs, bs):
        d = cs[0]
        out = [d]
        for c, b in zip(cs[1:], bs):
            d = c - b / d
            out.append(d)
        return np.array(out, dtype=ld)

    fwd = pivots(shifted, off2)
    bwd = pivots(shifted[::-1], off2[::-1])[::-1]
    r = int(np.argmin(np.abs(fwd + bwd - np.array(shifted, dtype=ld))))
    z = np.ones(len(shifted), dtype=ld)
    z[:r] = np.cumprod((-off[:r] / fwd[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-off[r:] / bwd[r + 1:])
    return z / np.sqrt(np.sum(z * z))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS, reason="long double is double here")
@pytest.mark.parametrize("L", np.geomspace(50.0, 400.0, 9)[[0, 4, 8]].tolist())
def test_closed_form_vectors_on_criterion5_finest_halves(L):
    # Criterion 5's finest halves (256 cells per unit, up to 51200 rows) are
    # a run per layer and a few other rows.  At each half's lowest
    # eigenvalue the twisted solve's vector, whose runs the closed form
    # takes, lies within 4 times the per-row loop's own distance from the
    # same twisted solve in long double, on the same matrix and shift: the
    # closed form carries no more rounding along a run than the loop does
    # (the two distances measured 0.73 to 1.04 times each other).
    p = Step(1.0, (-0.5, 0.5))
    grid = _nested_grids(p, L, default_cell_count(L), 3)[-1]
    for half in fdsolver._mirror_halves(assemble(p, grid)):
        counts, lo, hi = _bisect_inputs(half.diag, half.offdiag)
        assert len(counts.runs.segments) >= 2  # a run to take in closed form
        sigma = kernels.bisect_eigenvalue(counts, 0, lo, hi)
        vec, _, finite = kernels.inverse_iteration(counts, sigma)
        ref_vec, _, ref_finite = reference_inverse_iteration(
            half.diag, half.offdiag, sigma, counts.pivmin)
        assert finite and ref_finite
        exact = _longdouble_twisted_solve(half.diag, half.offdiag, sigma)
        apart, ref_apart = (float(min(np.linalg.norm(v - exact), np.linalg.norm(v + exact)))
                            for v in (vec, ref_vec))
        assert apart <= 4.0 * ref_apart


def test_twisted_solve_calls_no_numpy_transcendental(monkeypatch):
    # numpy's transcendental ufuncs run vector code chosen by the CPU, whose
    # last bits differ from one instruction set to another (disabling
    # AVX512's dispatch moves np.tan at 1012 of 200001 points, np.exp at
    # 9287).  The closed form that fills a run's pivots takes libm's scalar
    # functions and numpy's + - * / only, so phi0, and the bytes written
    # from it, are the same on every machine with the same libm: here
    # every such ufunc raises, on runs that rotate (t < 1), grow (t > 1,
    # where the incoming pivot selects the cosh or the sinh form) and are
    # linear (t = +-1 exactly).
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy transcendental was called")

    for name in ("tan", "sin", "cos", "tanh", "exp", "expm1", "arctan2"):
        monkeypatch.setattr(np, name, refuse)
    rng = np.random.default_rng(2024)
    for _ in range(4):
        diag, off = _run_matrix(rng, 3 * M)
        counts = kernels.SturmCounts(diag, off)
        c, b = float(diag[1]), float(-off[0])
        for t in (-0.9, -0.3, 0.3, 0.9, -3.0, -1.1, 1.1, 3.0, -1.0, 1.0):
            vec, solves, finite = kernels.inverse_iteration(counts, c - 2.0 * b * t)
            assert finite and abs(kernels.norm(vec) - 1.0) < 1e-14


def test_run_length_once_per_grid(monkeypatch):
    # One criterion-5 row (64 cells per unit, 3 levels) solves four grids:
    # the quarter grid that guesses level 0, and the three levels.  Each has
    # an even N and splits into two halves that differ only in row 0, which
    # enters no run, so the odd half takes the even half's run-length form,
    # and the twisted solve reads its backward pass off the forward form:
    # one run_length call per grid, where each half and the mirrored
    # matrix of the finest grid took one, 9 in all.
    calls = []
    run_length = kernels.run_length

    def counted(*args):
        calls.append(args)
        return run_length(*args)

    monkeypatch.setattr(kernels, "run_length", counted)
    L = float(np.geomspace(50.0, 400.0, 9)[4])
    solve_extrapolated(Step(1.0, (-0.5, 0.5)), L, n0=default_cell_count(L), levels=3)
    assert len(calls) == 4


@pytest.mark.parametrize("p", [Step(1.0, (-0.5, 0.5)), InverseSquareCapped(0.3, 4.0)],
                         ids=["step", "capped"])
def test_even_halves_share_run_length(p):
    # The two halves of an even operator differ only in their first
    # diagonal entry, which no run reads: their run-length forms are the
    # same, so the odd half's store built from the even half's holds what
    # its own would.  An odd operator's halves differ in size.
    grids = [_nested_grids(p, L, n0, 1)[0]
             for L in (5.0, 50.0, 137.5) for n0 in (256, 320, 400, 512, 8800)]
    grids = [grid for grid in grids if grid.N % 2 == 0]
    assert len(grids) >= 5
    for grid in grids:
        even, odd = fdsolver._mirror_halves(assemble(p, grid))
        own = kernels.run_length(odd.diag, odd.offdiag ** 2)
        shared = kernels.SturmCounts(even.diag, even.offdiag).with_first_diagonal(odd.diag[0])
        assert shared.runs.segments == own.segments
        assert np.array_equal(np.arange(odd.diag.size)[shared.runs.stretch],
                              np.arange(odd.diag.size)[own.stretch])
        assert shared.diag.tobytes() == odd.diag.tobytes()
        assert shared.pivmin == kernels.SturmCounts(odd.diag, odd.offdiag).pivmin


guesses = st.one_of(
    st.floats(-1e6, 1e6),
    st.floats(-1e-9, 1e-9),
    st.floats(),  # any double, nan and the infinities included
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 40.0), guesses, guesses)
# equal guesses (gap 0, where the gallop cannot size its window by
# step^2 / gap), a nan guess, lambda0 of seed 1 (unsplit) moved up by 1e6
# tolerances, and both guesses on that lambda0, onto which lambda1's Newton
# steps converge: the gallop must still enclose lambda1; seed 2 is capped,
# so its operator is split
@example(1, 10.0, 0.4, 0.4)
@example(2, 10.0, 0.24, 0.24)
@example(2, 10.0, math.nan, 0.2429)
@example(1, 10.0, 0.18783781829724194, 0.628450065372437)
@example(1, 10.0, 0.1878376304596115, 0.1878376304596115)
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


def reference_prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # the phase sweep on theta itself, a sine and a cosine per stage
    breaks = breaks.tolist()
    lam = float(lam)
    per_length = n_steps / (breaks[-1] - breaks[0])
    theta = 0.5 * math.pi
    for left, right, v in zip(breaks, breaks[1:], vals.tolist()):
        ell = right - left
        q = lam - v
        n = max(1, math.ceil(per_length * ell), math.ceil(2.0 * ell * abs(q)))
        h = ell / n
        half_h = 0.5 * h
        for _ in range(n):
            st = math.sin(theta)
            ct = math.cos(theta)
            k1 = ct * ct + q * st * st
            t2 = theta + half_h * k1
            st = math.sin(t2)
            ct = math.cos(t2)
            k2 = ct * ct + q * st * st
            t3 = theta + half_h * k2
            st = math.sin(t3)
            ct = math.cos(t3)
            k3 = ct * ct + q * st * st
            t4 = theta + h * k3
            st = math.sin(t4)
            ct = math.cos(t4)
            k4 = ct * ct + q * st * st
            theta += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return theta


def reference_prufer_theta_capped(c_decay, cap, lam, half_len, n_steps):
    # the capped phase sweep on theta, v evaluated at three points per step
    c_decay = float(c_decay)
    cap = float(cap)
    lam = float(lam)
    half_len = float(half_len)
    h = 2.0 * half_len / n_steps
    theta = 0.5 * math.pi
    x = -half_len
    for _ in range(n_steps):
        xm = x + 0.5 * h
        xe = x + h
        x2 = x * x
        v1 = cap if x2 * cap <= c_decay else c_decay / x2
        x2 = xm * xm
        v2 = cap if x2 * cap <= c_decay else c_decay / x2
        x2 = xe * xe
        v3 = cap if x2 * cap <= c_decay else c_decay / x2
        q1 = lam - v1
        q2 = lam - v2
        q3 = lam - v3
        st = math.sin(theta)
        ct = math.cos(theta)
        k1 = ct * ct + q1 * st * st
        t2 = theta + 0.5 * h * k1
        st = math.sin(t2)
        ct = math.cos(t2)
        k2 = ct * ct + q2 * st * st
        t3 = theta + 0.5 * h * k2
        st = math.sin(t3)
        ct = math.cos(t3)
        k3 = ct * ct + q2 * st * st
        t4 = theta + h * k3
        st = math.sin(t4)
        ct = math.cos(t4)
        k4 = ct * ct + q3 * st * st
        theta += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        x = xe
    return theta


def reference_profile_rk4_capped(c_decay, cap, lam, half_len, n_samples, n_sub):
    # the capped profile with v evaluated at three points per step
    c_decay = float(c_decay)
    cap = float(cap)
    lam = float(lam)
    half_len = float(half_len)
    samples = [1.0]
    u = 1.0
    up = 0.0
    h = 2.0 * half_len / ((n_samples - 1) * n_sub)
    x = -half_len
    for j in range(1, n_samples):
        for _ in range(n_sub):
            x2 = x * x
            v1 = cap if x2 * cap <= c_decay else c_decay / x2
            xm = x + 0.5 * h
            x2 = xm * xm
            v2 = cap if x2 * cap <= c_decay else c_decay / x2
            xe = x + h
            x2 = xe * xe
            v3 = cap if x2 * cap <= c_decay else c_decay / x2
            ku1 = up
            kp1 = (v1 - lam) * u
            ku2 = up + 0.5 * h * kp1
            kp2 = (v2 - lam) * (u + 0.5 * h * ku1)
            ku3 = up + 0.5 * h * kp2
            kp3 = (v2 - lam) * (u + 0.5 * h * ku2)
            ku4 = up + h * kp3
            kp4 = (v3 - lam) * (u + h * ku3)
            u += h * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4) / 6.0
            up += h * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4) / 6.0
            x = xe
        samples.append(u)
        au = abs(u)
        aup = abs(up)
        big = au if au > aup else aup
        if big > kernels.RENORM_LIMIT:
            inv = 1.0 / big
            u *= inv
            up *= inv
            samples = [a * inv for a in samples]
    return np.array(samples)


def _check_phase(theta, ref, steps):
    # the doubled-angle sweep is the theta sweep in exact arithmetic: the
    # same count, and theta within the rounding bound 4 n eps max(1, |theta|)
    assert oracle._count_from_theta(theta) == oracle._count_from_theta(ref)
    assert abs(theta - ref) <= 4 * steps * EPS * max(1.0, abs(ref))


def _check_piecewise_phase(layers, lam):
    # at the step count prufer_count takes
    widths, vals = np.diff(layers.breaks), layers.values
    n = oracle._steps_for(layers.length, lam, rate_steps=2.0 * float(np.abs(lam - vals) @ widths))
    per_length = n / layers.length
    steps = sum(max(1, math.ceil(per_length * ell), math.ceil(2.0 * ell * abs(lam - v)))
                for ell, v in zip(widths.tolist(), vals.tolist()))
    args = (layers.breaks, layers.values, lam, n)
    _check_phase(kernels.prufer_theta_piecewise(*args),
                 reference_prufer_theta_piecewise(*args), steps)


def _check_capped_phase(p, L, lam):
    n = oracle._capped_steps(p, L, lam)
    args = (p.decay, p.cap, lam, 0.5 * L, n)
    _check_phase(kernels.prufer_theta_capped(*args), reference_prufer_theta_capped(*args), n)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_phase_kernels_match_reference_loops(seed):
    rng = np.random.default_rng(seed)
    L = float(rng.uniform(0.5, 40.0))
    _check_piecewise_phase(decompose(random_multistep(rng, L), L), float(rng.uniform(-1.0, 6.0)))
    p = random_capped(rng)
    _check_capped_phase(p, L, float(rng.uniform(-1.0, 2.0 * p.cap)))


@pytest.mark.parametrize("lam", [0.05, 0.2])
def test_piecewise_phase_across_tall_barrier_matches_reference_loop(lam):
    # an 8-wide barrier of height 1e4 takes 1.6e5 steps at lam well below it
    _check_piecewise_phase(decompose(Step(1e4, (2.0, 10.0)), 20.0), lam)


@pytest.mark.parametrize("lam", [2.0, 6.0])
def test_capped_phase_below_and_above_cap_matches_reference_loop(lam):
    _check_capped_phase(InverseSquareCapped(1.0, 4.0), 10.0, lam)


def _check_profile(p, L, lam, n_samples, n_sub):
    args = (p.decay, p.cap, lam, 0.5 * L, n_samples, n_sub)
    assert kernels.profile_rk4_capped(*args).tobytes() == \
        reference_profile_rk4_capped(*args).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_profile_rk4_capped_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    p = random_capped(rng)
    L = float(rng.uniform(0.5, 40.0))
    lam = float(rng.uniform(-1.0, 2.0 * p.cap))
    _check_profile(p, L, lam, int(rng.integers(16, 200)), int(rng.integers(2, 12)))


def test_renormalized_profile_matches_reference_loop():
    # lam far below the cap, v - lam >= 10: the state passes RENORM_LIMIT
    # more than once, each time rescaling every sample kept so far (the
    # first ends near 7e-31)
    _check_profile(InverseSquareCapped(5.0, 8.0), 30.0, -10.0, 257, 4)


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


def test_reuse_needs_every_entry_equal(monkeypatch):
    # Shifts s1 < s2, one ulp apart, whose shifted diagonals differ in the
    # last entry only, by one ulp, and hold the same distinct values
    # {low, high}; the last pivot is that entry minus low, so s2 counts one
    # eigenvalue more.  A reuse that compared a prefix, the distinct values
    # or within a tolerance would give s2 the count of s1.  The shifts one
    # ulp outside, s0 and s3, round to the vectors of s1 and s2, and those
    # counts are reused without a sweep.  No count at one of these shifts
    # settles another by monotonicity (k = 0: s1 and s0 count 0 from below,
    # s2 and s3 count 1 from above), so every answer is a reuse or a sweep.
    s1 = -0.5
    s2 = math.nextafter(s1, math.inf)
    s0 = math.nextafter(s1, -math.inf)
    s3 = math.nextafter(s2, math.inf)
    ulp = 2.0 ** -52  # of 1.5
    diag = np.array([1.5 + 2 * ulp, 1.5 + 4 * ulp, 1.5 + 3 * ulp])
    low, high = float(diag[0] - s1), float(diag[1] - s1)
    assert (diag - s0).tolist() == (diag - s1).tolist() == [low, high, high]
    assert (diag - s3).tolist() == (diag - s2).tolist() == [low, high, low]
    off2 = np.array([0.0, low * high])  # the last pivot is diag[2] - s - low
    runs = kernels.run_length(diag, off2)
    pivmin = 1e-250
    assert [kernels.sturm_count(diag, runs, s, pivmin) for s in (s0, s1, s2, s3)] == [0, 0, 1, 1]

    def store():
        # no off-diagonal entry squares to low * high, so the store's
        # kernel inputs are set directly
        counts = kernels.SturmCounts(diag, np.sqrt(off2))
        counts.runs, counts.pivmin = runs, pivmin
        return counts

    for known, shift, expected in ((s1, s2, 1), (s2, s1, 0)):
        counts = store()
        counts.exceeds(known, 0)
        assert counts.exceeds(shift, 0) == (expected > 0)
        assert _kept(counts)[shift] == expected

    sweeps = []
    sturm_count = kernels.sturm_count

    def counted_sturm(*args):
        sweeps.append(args[2])
        return sturm_count(*args)

    counts = store()
    counts.newton(s0)
    counts.newton(s3)
    monkeypatch.setattr(kernels, "sturm_count", counted_sturm)
    assert [counts.exceeds(s, 0) for s in (s1, s2)] == [False, True]
    assert _kept(counts) == {s0: 0, s1: 0, s2: 1, s3: 1}
    assert sweeps == []


def test_monotone_answers_never_sweep(monkeypatch):
    # The free Neumann stencil of 16 cells.  Kept Newton counts at the last
    # bracket (lo, hi) of plain bisection settle every midpoint it takes,
    # each at or below lo or at or above hi; and Newton counts d to either
    # side of lambda_1 settle the gallop's first shifts, guess -/+ w, once
    # d <= w.  Neither sweeps.
    n = 16
    diag = np.full(n, 2.0)
    diag[[0, -1]] = 1.0
    off = np.full(n - 1, -1.0)
    counts, lo, hi = _bisect_inputs(diag, off)
    plain = reference_bracket(diag, counts.runs, 1, lo, hi, counts.pivmin)
    for s in plain:
        counts.newton(s)
    kept = _kept(counts)

    def sweep(diag, runs, shift, pivmin):
        pytest.fail(f"swept at {shift!r}, which a kept count settles")

    monkeypatch.setattr(kernels, "sturm_count", sweep)
    assert kernels.bisect_eigenvalue(counts, 1, lo, hi) == 0.5 * (plain[0] + plain[1])
    assert _kept(counts) == kept

    lam1 = 4.0 * math.sin(math.pi / (2 * n)) ** 2
    d = 1e-6
    counts, lo, hi = _bisect_inputs(diag, off)
    for s in (lam1 - d, lam1 + d):
        counts.newton(s)
    assert _kept(counts) == {lam1 - d: 1, lam1 + d: 2}
    fdsolver._gallop(counts, 1, lam1, 2.0 * d, lo, hi)
    assert _kept(counts) == {lam1 - d: 1, lam1 + d: 2}


def _count_sweeps(monkeypatch):
    """Operator size -> [Sturm sweeps, Newton sweeps] of what runs next, and
    the number of twisted-factorization solves."""
    sweeps = {}
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
    return sweeps, calls


@pytest.mark.parametrize("p, expected", [
    (Step(1.0, (-0.5, 0.5)), {100: [32, 0], 400: [9, 4], 800: [8, 4], 1600: [8, 2]}),
    (Step(1.0, (-0.5, 1.5)), {200: [25, 0], 800: [10, 6], 1600: [8, 4], 3200: [6, 2]}),
], ids=["centred", "off_centre"])
def test_sturm_sweep_budget(monkeypatch, p, expected):
    # Plain bisection of both eigenvalues from the Gershgorin range takes 324
    # Sturm sweeps (614400 cells) on the three grids of N = 800, 1600 and
    # 3200 cells.  Counts shared by the two bisections and taken around the
    # guess of the level before cut that to 155 sweeps (229600 cells).
    # Level 0 guessed from a grid of 200 cells bisected to a relative width
    # of 1e-3, Newton sweeps from every guess and a gallop window sized by
    # the last Newton step cut it to 93320 cells, a Newton sweep weighted
    # 2.2.  Reusing the count of a shift whose shifted diagonal rounds to a
    # vector already counted cuts the off-centre pins below to 83720 cells:
    # 200*25 + 800*(10 + 2.2*6) + 1600*(8 + 2.2*4) + 3200*(6 + 2.2*2).  The
    # centred step is even, so every grid, the quarter grid too, is split
    # into an even and an odd half of N/2 cells, each bisected for its
    # lowest eigenvalue: the sweeps pinned below, keyed by the half size,
    # are 100*32 + 400*(9 + 2.2*4) + 800*(8 + 2.2*4) + 1600*(8 + 2.2*2) =
    # 43600 cells; a gallop shift that a Newton count already settles is
    # not swept.  The odd half's Newton steps take a gap too (lambda3 >=
    # lambda2), so on the finest halves one Newton step of the odd half
    # passes the stop test, where the second cost 1600*(7 + 2.2*3) = 45520
    # cells in all.  Only the finest grid solves for an eigenvector: one
    # twisted-factorization solve, for the ground state, as no layer of
    # these grids is thin enough that lambda1's rounding floor needs its
    # own vector (see the one-ulp-layer pins below).  The off-centre step
    # is no palindrome: it pins the general path, whole operators keyed by
    # N, whose sweeps move if count sharing is lost.  The counts are
    # deterministic: a change that loses the reuse or the split fails here.
    sweeps, calls = _count_sweeps(monkeypatch)
    solve_extrapolated(p, 100.0, n0=800, levels=3)
    assert sweeps == expected
    assert calls["inverse_sweeps"] == 1


@pytest.mark.parametrize("p", [
    MultiStep((Step(1.0, (-0.5, 0.5)), Step(2.0, (0.5, math.nextafter(0.5, 1.0))))),
    Step(1.0, (-0.5, math.nextafter(5.0, 0.0))),
], ids=["interior", "at_the_end"])
def test_one_ulp_layer_solves_excited_vector(monkeypatch, p):
    # A layer one ulp wide keeps one cell, whose 1/w^2 coupling makes
    # ||T||_inf some 1e12 times |y|^T |T| |y| of either eigenvector.  The
    # bound eps ||T||_inf would then swamp lambda1's error estimate, so the
    # finest grid's one lowest_two_eigenpairs call solves the excited
    # vector too (two solves in all, one per vector) and lambda1 takes its
    # own vector's rounding floor, far below it.
    sweeps, calls = _count_sweeps(monkeypatch)
    r = solve_extrapolated(p, 10.0, n0=default_cell_count(10.0), levels=3)
    assert calls["inverse_sweeps"] == 2
    assert r.error_estimate[1] < 1e-6 * EPS * assemble(p, r.grid).norm_inf()


def test_sturm_sweep_budget_finest_grid(monkeypatch):
    # 256 cells per unit on the finest grid, as in acceptance criterion 3:
    # ||T|| ~ 2.6e5, so eps ||T|| ~ 6e-11 lies far above the bisection
    # tolerance of 1e-13, and most of the last midpoints shift the diagonal
    # to a vector already counted.  Reusing those counts cuts the Sturm
    # sweeps on the three grids from [11, 16, 19] to the [7, 5, 2] pinned
    # below; the finest operator of 10240 cells is swept 2 times after its
    # Newton steps instead of 19.
    sweeps, _ = _count_sweeps(monkeypatch)
    solve_extrapolated(Step(1.0, (-0.5, 1.5)), 40.0, n0=2560, levels=3)
    assert sweeps == {640: [24, 0], 2560: [7, 4], 5120: [5, 4], 10240: [2, 2]}


def test_newton_stops_at_rounding_floor(monkeypatch):
    # Criterion 3's capped case at L = 80.19 (perfbench suite seed
    # 20260808, case 11) has lambda1 - lambda0 = 1.05e-9 on a grid whose
    # rounding floor eps ||T|| is 5.8e-11.  On the finest even half the
    # Newton steps stay at 7.1e-12, rounding noise, which no test against
    # tol (lambda1 - lambda0) / 4 = 2.6e-23 can pass: Newton stopped only
    # when a step failed to shrink, and the bisection then opened its
    # window at the 16-tolerance fallback and had to widen it.  Newton now
    # stops at the floor, every run returns a finite predicted error, and
    # the finest halves take [5, 2] sweeps, not [3, 4] (three of those
    # Newton sweeps on the even half).  The middle level's halves take
    # [3, 4], not [4, 4]: a gallop shift that a Newton count already
    # settles is not swept.
    results = []
    newton = fdsolver._newton

    def recorded_newton(*args, **kwargs):
        out = newton(*args, **kwargs)
        results.append(out[1])
        return out

    monkeypatch.setattr(fdsolver, "_newton", recorded_newton)
    sweeps, _ = _count_sweeps(monkeypatch)
    p = InverseSquareCapped(4.470809127731707, 2.602031914971997)
    L = 80.19065303497489
    r = solve_extrapolated(p, L, n0=default_cell_count(L, floor=512), levels=3)
    assert r.gap > 0.0
    assert sweeps == {642: [34, 0], 2567: [6, 4], 5134: [3, 4], 10268: [5, 2]}
    assert len(results) == 6 and all(e < math.inf for e in results)
