"""Hot numeric loops shared by the eigensolver and the phase/profile integrators.

Plain interpreted Python, one definition per kernel.  The eigensolver
kernels (Sturm count, bisection, one inverse-iteration step by twisted
factorization) follow LAPACK's tridiagonal routines; the phase and profile
kernels are fixed-step RK4 sweeps, so phase counts are reproducible.

The loops run on Python floats, not numpy scalars: each kernel converts its
array arguments once per call, with ``tolist()`` or by iterating a
``memoryview``, which makes each float only as the loop reaches it
(scalars with ``float()``), and returns numpy arrays where it returns
arrays.  Python floats and numpy doubles are both IEEE doubles and every
operation keeps its order, so the results are bit for bit those of the
same loops over numpy arrays, at a fraction of the indexing cost.  Unlike
a numpy scalar, a Python float raises ZeroDivisionError on a zero divisor
instead of returning inf or nan: every divisor in a loop below is a pivot
kept away from zero by `pivmin`, a step count, or a maximum checked to be
nonzero.

The Sturm sweeps (``sturm_count``, ``sturm_newton`` and the two pivot
passes of ``inverse_iteration``) read a matrix in its run-length form,
which ``SturmCounts`` builds once per matrix with ``run_length``, since
the bisections sweep one matrix some dozens of times.  The backward pivot
pass of ``inverse_iteration`` is its forward pass on the mirrored matrix,
the rows in reverse order, whose run-length form it builds once per call.
The eigensolver's grids have equal cells within each layer, so every
interior row of a layer is the same pair (diag_i, off2_{i-1}), bit for
bit.  Such a run is swept with one subtraction of the shift and a loop
that reads no array; only the rows between runs, the stretches, are read
row by row, their shift taken off in numpy once per sweep.  numpy's
elementwise subtraction is the same correctly rounded IEEE operation as
Python's, so every pivot is that of the loop that subtracts the shift at
each row.
``inverse_iteration`` fills its vector by cumulative products in numpy,
which change no bit of the per-index loop (see there).  Its norm and the
eigensolver's other sums (``dot``, ``norm``) use numpy's pairwise
summation and never BLAS, whose threaded sums over long vectors change
their last bits with the thread count.  ``prufer_theta_piecewise`` ends a
step on every break of the potential, so each step sees one constant
layer value and the sweep keeps RK4's fourth order across the jumps.

Both phase kernels integrate the Prüfer angle on the doubled angle
phi = 2 theta.  With q = lam - v, cos^2 theta + q sin^2 theta =
(1 + q)/2 + (1 - q)/2 cos 2 theta, so phi' = (1 + q) + (1 - q) cos phi
needs one cosine per RK4 stage where theta' needs a sine and a cosine.
RK4 commutes with a linear change of variable: every stage of the phi
sweep is exactly twice the theta sweep's in exact arithmetic, so step
counts, order and counts are those of RK4 on theta, and only rounding
differs.  The kernels return theta = phi / 2.

``SturmCounts`` is the one home of the counts taken on one matrix, and of
the rule for reusing them.  ``bisect_eigenvalue`` stops at the width
``tolerance(lam)``, or at a wider relative width for a guess.  The count
that IEEE arithmetic computes is non-decreasing in the shift (Kahan's
monotonicity result; Demmel, Dhillon & Ren, ETNA 3, 1995), so a kept
count can settle a midpoint without a sweep and the bisection still takes
exactly the midpoints of plain bisection; so can the count of the nearest
counted shift below or above when ``diag - shift`` rounds to the same
vector there.  The bisection settles each midpoint outside the two kept
shifts that enclose eigenvalue k itself, and asks the store only for
those between them.  On fine grids, where eps ||T|| lies far above the
bisection tolerance, most of the last midpoints are settled so.
``sturm_newton`` computes ``sturm_count``'s pivots and count operation
for operation, so its counts are as good as any other, and also returns
the logarithmic derivative of the determinant for a Newton step toward an
eigenvalue.
"""

import bisect
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

# a profile's state (u, u') is rescaled by 1/max(|u|, |u'|) once that passes
# this; the oracle's layer walk takes the same limit
RENORM_LIMIT = 1e15

# the fewest equal rows that run_length makes a run.  Each run adds a
# segment to every sweep, whose entry costs about what 30 rows save over
# being swept in a stretch: on blocks of m equal rows parted by one other
# row, sturm_count swept the runs at 0.9-1.1 times the stretch's time for
# m = 24 to 40, and at 0.8 times for m = 64.
MIN_RUN = 32


class RunLength(NamedTuple):
    """A symmetric tridiagonal matrix as the Sturm kernels sweep it; see
    ``run_length``."""

    stretch: object  # the stretch rows, a slice or an index array
    segments: list  # (b2s, c, b2, n): a stretch's off2 list, then a run


def run_length(diag, off2):
    """The run-length form of the symmetric tridiagonal matrix with diagonal
    ``diag`` and squared off-diagonal ``off2`` (numpy arrays).

    Row i is the pair (diag_i, off2_{i-1}), row 0's off2 taken as 0.0.  A
    run is a maximal block of at least MIN_RUN rows with the same pair, bit
    for bit, so its rows are swept as d = (c - shift) - b2 / d with one
    c - shift for all of them; every other row lies in a stretch and is
    swept row by row.  Each segment ``(b2s, c, b2, n)`` is a stretch (the
    list ``b2s`` of its rows' off2, possibly empty) followed by a run of n
    rows of the pair (c, b2); the last has n = 0.  ``diag[stretch]`` is the
    diagonal at the stretch rows in order, ``stretch`` a slice where they
    are one block (always so without runs).  Runs are found in numpy: a
    matrix without them, every row a boundary, costs no Python loop over
    its rows.
    """
    size = diag.size
    b2 = np.concatenate(([0.0], off2))
    c_bits = np.ascontiguousarray(diag, dtype=float).view(np.int64)
    b_bits = b2.view(np.int64)
    boundary = np.ones(size, dtype=bool)  # row i's pair differs from row i - 1's
    boundary[1:] = (c_bits[1:] != c_bits[:-1]) | (b_bits[1:] != b_bits[:-1])
    starts = np.flatnonzero(boundary)
    lengths = np.diff(starts, append=size)
    long = lengths >= MIN_RUN
    segments = []
    in_stretch = np.ones(size, dtype=bool)
    lo = 0
    for start, n in zip(starts[long].tolist(), lengths[long].tolist()):
        segments.append((b2[lo:start].tolist(), float(diag[start]), float(b2[start]), n))
        in_stretch[start:start + n] = False
        lo = start + n
    segments.append((b2[lo:].tolist(), 0.0, 0.0, 0))
    stretch = np.flatnonzero(in_stretch)
    if stretch.size and stretch[-1] - stretch[0] == stretch.size - 1:
        stretch = slice(int(stretch[0]), int(stretch[-1]) + 1)
    return RunLength(stretch, segments)


def sturm_count(diag, runs, shift, pivmin):
    # Sign count of the LDL^T pivots of (T - shift*I): the number of
    # eigenvalues of T strictly below `shift`.  `runs` is the run-length
    # form of T (see run_length), whose diagonal is `diag`; `pivmin` guards
    # against zero pivots the same way LAPACK's bisection does (a pivot in
    # (-pivmin, pivmin) is forced to -pivmin).  A pivot below pivmin is
    # negative once guarded, so one comparison decides both the guard and
    # the count.  The shift is taken off the stretch rows once, in numpy,
    # and off each run's diagonal entry once, before its loop.
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shift = float(shift)
    shifted = iter(memoryview(diag[runs.stretch] - shift))
    count = 0
    d = 1.0  # row 0's off2 is 0.0, so its pivot c_0 - 0.0 / 1.0 is c_0
    for b2s, c, b2, n in runs.segments:
        for b, a in zip(b2s, shifted):  # b2s first: zip stops without taking a
            d = a - b / d
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
                count += 1
        c -= shift
        for _ in repeat(None, n):
            d = c - b2 / d
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
                count += 1
    return count


def sturm_newton(diag, runs, shift, pivmin):
    # sturm_count's sweep (the same pivots, guard and count) that also sums
    # the logarithmic derivative of det(T - shift*I) = prod d_i:
    #   dlogdet = sum r_i,  r_i = d_i' / d_i,  d_i' = q r_{i-1} - 1,  q = b_i / d_{i-1},
    # from d_i = c_i - q, which is -sum_j 1 / (lambda_j - shift).  A Newton
    # step on the determinant is then shift - 1 / dlogdet.  Past a guarded
    # pivot the sum may overflow to inf or nan; the count stays exact.
    # Row 0 (q = 0.0 and r_{-1} = 0.0) gives r_0 = -1 / d_0, and the sum
    # starts at -0.0, which adds to any r_0 without changing a bit.
    # Returns (count, dlogdet).
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shift = float(shift)
    shifted = iter(memoryview(diag[runs.stretch] - shift))
    count = 0
    d = 1.0
    r = 0.0
    total = -0.0
    for b2s, c, b2, n in runs.segments:
        for b, a in zip(b2s, shifted):
            q = b / d
            d = a - q
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
                count += 1
            r = (q * r - 1.0) / d
            total += r
        c -= shift
        for _ in repeat(None, n):
            q = b2 / d
            d = c - q
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
                count += 1
            r = (q * r - 1.0) / d
            total += r
    return count, total


def dot(x, y):
    """sum_i x_i y_i by numpy's pairwise summation.  ``@`` and
    ``np.linalg.norm`` call BLAS, which threads long vectors, and the last
    bits of a threaded sum depend on the thread count; ``np.add.reduce``
    never reaches BLAS."""
    return float(np.add.reduce(x * y))


def norm(x):
    """The l2 norm of x, from ``dot``."""
    return math.sqrt(dot(x, x))


def tolerance(x):
    """Absolute bisection tolerance at x: max(1e-13, 1e-12 |x|)."""
    return max(1e-13, 1e-12 * abs(x))


class SturmCounts:
    """One symmetric tridiagonal matrix (``diag``, ``off``) as the kernels
    take it, with the Sturm counts taken on it so far, kept sorted by shift.

    ``runs`` is the matrix's run-length form (see ``run_length``), which
    every sweep of it reads, built once per matrix rather than once per
    sweep.  ``exceeds(shift, k)`` answers from what is kept whenever that
    settles it, and sweeps only where nothing does:

    1. the count is non-decreasing in the shift, so a count > k at or
       below the shift, or one <= k at or above it, settles the answer;
    2. ``sturm_count`` reads nothing of the shift but the entries of
       ``diag - shift``, so where that vector equals, entry for entry, the
       shifted diagonal at the nearest counted shift below or above, that
       count is reused;
    3. otherwise ``sturm_count`` sweeps, and its count is kept.

    In rule 2 the only equal values with different bits are +0 and -0: such
    an entry enters a pivot only as ``c - b / d``, and a zero pivot of
    either sign is guarded to -pivmin, so the count is the one a sweep
    would return.  Rounding is monotone, so ``diag - s`` for s between two
    shifts with equal vectors is that vector too: the nearest counted
    shifts below and above find every match.  The first entries are
    compared first, as Python floats: where they differ, so do the vectors.
    """

    def __init__(self, diag, off):
        self.diag = np.ascontiguousarray(diag, dtype=float)
        self.off = np.ascontiguousarray(off, dtype=float)
        off2 = self.off * self.off
        # zero-pivot guard for the Sturm and twisted-factorization recurrences;
        # far below any eigenvalue tolerance but large enough that off/pivmin
        # cannot overflow the eigenvector recurrence
        self.pivmin = max(off2.max(), 1.0) * 1e-250
        self.runs = run_length(self.diag, off2)
        self.shifts = []
        self.counts = []  # the count at each of `shifts`

    def exceeds(self, shift, k):
        """Whether more than k eigenvalues lie below `shift` (count > k)."""
        shifts, counts = self.shifts, self.counts
        i = bisect.bisect_left(shifts, shift)  # shifts[i] is the first >= shift
        above = i < len(shifts)
        if above and counts[i] <= k:
            return False
        if above and shifts[i] == shift or i and counts[i - 1] > k:
            return True
        first = float(self.diag[0])
        near = slice(max(i - 1, 0), i + 1)  # the nearest counted shifts below and above
        for s, count in zip(shifts[near], counts[near]):
            if (first - s == first - shift
                    and np.array_equal(self.diag - float(shift), self.diag - float(s))):
                break
        else:
            count = sturm_count(self.diag, self.runs, shift, self.pivmin)
        shifts.insert(i, shift)
        counts.insert(i, count)
        return count > k

    def newton(self, sigma):
        """``sturm_newton`` at `sigma`: its count is kept and its logarithmic
        derivative of the determinant returned."""
        count, dlogdet = sturm_newton(self.diag, self.runs, sigma, self.pivmin)
        i = bisect.bisect_left(self.shifts, sigma)
        if i == len(self.shifts) or self.shifts[i] != sigma:
            self.shifts.insert(i, sigma)
            self.counts.insert(i, count)
        return dlogdet


def bisect_eigenvalue(counts, k, lo, hi, rel_width=0.0):
    # Bisect for the k-th (0-based) eigenvalue of the matrix of `counts` (a
    # SturmCounts) given the enclosure count(lo) <= k < count(hi).  Stops at
    # width tolerance(max(|lo|, |hi|)), or at rel_width * max(|lo|, |hi|)
    # when that is wider (a guess).  The kept counts, sorted by shift, are
    # non-decreasing (see the module docstring): a midpoint at or below
    # `below`, the largest kept shift with count <= k, or at or above
    # `above`, the smallest with count > k, is settled here, as `exceeds`
    # would settle it without keeping anything.  Only the midpoints between
    # go to `counts.exceeds`, which reuses or sweeps a count and keeps it,
    # so each becomes the new `below` or `above`.  The midpoints, and so the
    # result, are those of plain bisection.
    split = bisect.bisect_right(counts.counts, k)
    below = counts.shifts[split - 1] if split else -math.inf
    above = counts.shifts[split] if split < len(counts.shifts) else math.inf
    while True:
        top = max(abs(lo), abs(hi))
        if hi - lo <= max(tolerance(top), rel_width * top):
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        elif counts.exceeds(mid, k):
            hi = above = mid
        else:
            lo = below = mid
    return 0.5 * (lo + hi)


def _pivots(shifted, runs, shift, pivmin):
    # sturm_count's recurrence and guard on the run-length form `runs`,
    # keeping every pivot; `shifted` is the matrix's diagonal less `shift`
    neg_pivmin = -pivmin
    out = []
    stretch = iter(memoryview(shifted[runs.stretch]))
    d = 1.0
    for b2s, c, b2, n in runs.segments:
        for b, a in zip(b2s, stretch):
            d = a - b / d
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
            out.append(d)
        c -= shift
        for _ in repeat(None, n):
            d = c - b2 / d
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
            out.append(d)
    return np.fromiter(out, float, len(out))


def inverse_iteration(counts, sigma):
    # One step of inverse iteration on the symmetric tridiagonal matrix of
    # `counts` (a SturmCounts, whose run-length form and pivmin it reuses)
    # with the shift `sigma`, from the best unit start vector e_r, by
    # Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997;
    # Dhillon & Parlett, SIMAX 25, 2004).  The forward pivots d+ of
    # T - sigma*I = L D+ L^T are those of the Sturm recurrence, with its
    # pivmin guard; the backward pivots d- of U D- U^T are the forward
    # pivots of the mirrored matrix, read back to front: the mirror's row
    # n - 1 - i is the pair (diag_i, off2_i), which is what d-_i reads,
    #   d-_i = (diag_i - sigma) - off2_i / d-_{i+1},  d-_{n-1} = diag_{n-1} - sigma,
    # with the same operations and guard.  Twisted at r, the two factors
    # solve (T - sigma*I) z = gamma_r e_r with z_r = 1 and
    # gamma_r = d+_r + d-_r - (a_r - sigma) = 1 / [(T - sigma*I)^-1]_rr.
    # r = argmin |gamma_r| picks the e_r with the largest such entry, and the
    # residual |gamma_r| / ||z||_2 is then at most sqrt(n) |lambda - sigma|
    # for the eigenvalue lambda nearest sigma.  z is filled outward from r
    # by the two bidiagonal recurrences,
    #   z_i = -(b_i / d+_i) z_{i+1} (i < r),  z_i = -(b_{i-1} / d-_i) z_{i-1} (i > r),
    # as cumulative products of the ratios outward from r.  They are the same
    # bits as that loop: (-b)/d == -(b/d), IEEE products commute, and
    # np.multiply.accumulate multiplies left to right.
    # Returns (vector, 1, finite): the l2-normalized vector, the one solve,
    # and whether every component stayed finite.
    diag, off = counts.diag, counts.off
    pivmin = float(counts.pivmin)
    sigma = float(sigma)
    shifted = diag - sigma
    mirror = run_length(diag[::-1], (off * off)[::-1])
    fwd = _pivots(shifted, counts.runs, sigma, pivmin)
    bwd = _pivots(shifted[::-1], mirror, sigma, pivmin)[::-1]
    r = int(np.argmin(np.abs(fwd + bwd - shifted)))  # the first minimum
    z = np.empty(diag.size)
    z[r] = 1.0
    with np.errstate(over="ignore"):
        z[:r] = np.cumprod((-off[:r] / fwd[:r])[::-1])[::-1]
        z[r + 1:] = np.cumprod(-off[r:] / bwd[r + 1:])
    # scale by the largest component first: the squared norm could overflow
    amax = float(np.abs(z).max())
    if not math.isfinite(amax):
        return z, 1, False
    z /= amax
    return z / norm(z), 1, True


def prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # Classical RK4 sweep of the phase equation
    #   theta' = cos^2(theta) + (lam - v(x)) sin^2(theta),  theta(x0) = pi/2,
    # for a piecewise-constant v given by `breaks` (m+1 points) / `vals` (m),
    # taken on the doubled angle phi = 2 theta (see the module docstring):
    #   phi' = (1 + q) + (1 - q) cos(phi),  phi(x0) = pi,  q = lam - v(x);
    # returns theta = phi / 2.  Every step ends on the breaks: layer j takes
    # max(1, ceil(n_steps l_j / L), ceil(2 l_j |lam - v_j|)) equal steps, none
    # longer than L / n_steps, and h |lam - v_j| <= 1/2 bounds the largest
    # rate of the equation per step.  q is constant within each step, so the
    # sweep keeps RK4's fourth order across the jumps.
    breaks = breaks.tolist()
    lam = float(lam)
    per_length = n_steps / (breaks[-1] - breaks[0])
    cos = math.cos
    phi = math.pi
    for left, right, v in zip(breaks, breaks[1:], vals.tolist()):
        ell = right - left
        q = lam - v
        n = max(1, math.ceil(per_length * ell), math.ceil(2.0 * ell * abs(q)))
        h = ell / n
        half_h = 0.5 * h
        a = 1.0 + q
        b = 1.0 - q
        for _ in range(n):
            k1 = a + b * cos(phi)
            k2 = a + b * cos(phi + half_h * k1)
            k3 = a + b * cos(phi + half_h * k2)
            k4 = a + b * cos(phi + h * k3)
            phi += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    return 0.5 * phi


def prufer_theta_capped(c_decay, cap, lam, half_len, n_steps):
    # Same doubled-angle sweep for v(x) = min(cap, c_decay / x^2) on
    # (-half_len, half_len), with v at each step's start, midpoint and end.
    # A step's end is the next step's start, the same x bit for bit, so its
    # coefficients (1 + q, 1 - q) are carried forward, not evaluated again.
    c_decay = float(c_decay)
    cap = float(cap)
    lam = float(lam)
    half_len = float(half_len)
    cos = math.cos
    h = 2.0 * half_len / n_steps
    half_h = 0.5 * h
    phi = math.pi
    x = -half_len
    x2 = x * x
    q = lam - (cap if x2 * cap <= c_decay else c_decay / x2)
    a1 = 1.0 + q
    b1 = 1.0 - q
    for _ in range(n_steps):
        xm = x + half_h
        x = x + h
        x2 = xm * xm
        q = lam - (cap if x2 * cap <= c_decay else c_decay / x2)
        a2 = 1.0 + q
        b2 = 1.0 - q
        x2 = x * x
        q = lam - (cap if x2 * cap <= c_decay else c_decay / x2)
        a3 = 1.0 + q
        b3 = 1.0 - q
        k1 = a1 + b1 * cos(phi)
        k2 = a2 + b2 * cos(phi + half_h * k1)
        k3 = a2 + b2 * cos(phi + half_h * k2)
        k4 = a3 + b3 * cos(phi + h * k3)
        phi += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        a1 = a3
        b1 = b3
    return 0.5 * phi


def profile_rk4_capped(c_decay, cap, lam, half_len, n_samples, n_sub):
    # Integrates u'' = (v - lam) u with v(x) = min(cap, c_decay/x^2) from
    # (u, u') = (1, 0) at -half_len, recording u at n_samples uniform points
    # (endpoints included).  v at a step's end is carried forward as v at
    # the next step's start, as in prufer_theta_capped.  The state and all
    # stored samples are rescaled whenever |u| or |u'| exceeds RENORM_LIMIT;
    # the returned profile is therefore defined only up to a positive
    # factor, which is all the inf/sup ratio needs.
    c_decay = float(c_decay)
    cap = float(cap)
    lam = float(lam)
    half_len = float(half_len)
    samples = [1.0]
    u = 1.0
    up = 0.0
    h = 2.0 * half_len / ((n_samples - 1) * n_sub)
    half_h = 0.5 * h
    x = -half_len
    x2 = x * x
    v1 = cap if x2 * cap <= c_decay else c_decay / x2
    for j in range(1, n_samples):
        for _ in range(n_sub):
            xm = x + half_h
            x2 = xm * xm
            v2 = cap if x2 * cap <= c_decay else c_decay / x2
            x = x + h
            x2 = x * x
            v3 = cap if x2 * cap <= c_decay else c_decay / x2
            ku1 = up
            kp1 = (v1 - lam) * u
            ku2 = up + half_h * kp1
            kp2 = (v2 - lam) * (u + half_h * ku1)
            ku3 = up + half_h * kp2
            kp3 = (v2 - lam) * (u + half_h * ku2)
            ku4 = up + h * kp3
            kp4 = (v3 - lam) * (u + h * ku3)
            u += h * (ku1 + 2.0 * ku2 + 2.0 * ku3 + ku4) / 6.0
            up += h * (kp1 + 2.0 * kp2 + 2.0 * kp3 + kp4) / 6.0
            v1 = v3
        samples.append(u)
        au = abs(u)
        aup = abs(up)
        big = au if au > aup else aup
        if big > RENORM_LIMIT:
            inv = 1.0 / big
            u *= inv
            up *= inv
            samples = [a * inv for a in samples]
    return np.array(samples)
