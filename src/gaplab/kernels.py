"""Hot numeric loops shared by the eigensolver and the phase/profile integrators.

Plain interpreted Python, one definition per kernel.  The eigensolver
kernels (Sturm count, bisection, one inverse-iteration step by twisted
factorization) follow LAPACK's tridiagonal routines; the phase and profile
kernels are fixed-step RK4 sweeps, so phase counts are reproducible.

The loops run on Python floats, not numpy scalars: each kernel converts its
array arguments once per call with ``tolist()`` (scalars with ``float()``)
and returns numpy arrays where it returns arrays.  The one exception is an
input that is the same for every sweep of one operator: ``sturm_count``,
``sturm_newton`` and ``bisect_eigenvalue`` take the squared off-diagonal
``off2`` as the list the eigensolver builds once per operator, since the
bisections sweep one operator some dozens of times.  Python floats and
numpy doubles are both IEEE doubles and every operation keeps its order, so
the results are bit for bit those of the same loops over numpy arrays, at a
fraction of the indexing cost.  Unlike a numpy scalar, a Python float raises
ZeroDivisionError on a zero divisor instead of returning inf or nan: every
divisor in a loop below is a pivot kept away from zero by `pivmin`, a step
count, or a maximum checked to be nonzero.

``sturm_count`` takes the shift off the diagonal once per call, in numpy,
so its loop is ``d = c_i - b_i / d``; numpy's elementwise subtraction is the
same correctly rounded IEEE operation as Python's, so every count is that
of the loop that subtracts the shift at each step.  ``inverse_iteration``
fills its vector by cumulative products in numpy, which change no bit of
the per-index loop (see there).  ``prufer_theta_piecewise`` ends a step on
every break of the potential, so each step sees one constant layer value
and the sweep keeps RK4's fourth order across the jumps.

``bisect_eigenvalue`` reuses Sturm counts it is given.  The count that
IEEE arithmetic computes is non-decreasing in the shift (Kahan's
monotonicity result; Demmel, Dhillon & Ren, ETNA 3, 1995), so an earlier
count can settle a midpoint without a sweep and the bisection still takes
exactly the midpoints of plain bisection.  ``sturm_newton`` computes
``sturm_count``'s pivots and count operation for operation, so its counts
are as good as any other, and also returns the logarithmic derivative of
the determinant for a Newton step toward an eigenvalue.
"""

import math

import numpy as np


def sturm_count(diag, off2, shift, pivmin):
    # Sign count of the LDL^T pivots of (T - shift*I): the number of
    # eigenvalues of T strictly below `shift`.  `off2` is the list of the
    # squared off-diagonal entries; `pivmin` guards against zero pivots the
    # same way LAPACK's bisection does (a pivot in (-pivmin, pivmin) is forced
    # to -pivmin).  A pivot below pivmin is negative once guarded, so one
    # comparison decides both the guard and the count.  The shift is taken
    # off the diagonal once, in numpy, before the loop.
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shifted = iter((diag - float(shift)).tolist())
    count = 0
    d = next(shifted)
    if d < pivmin:
        if d > neg_pivmin:
            d = neg_pivmin
        count += 1
    for c, b in zip(shifted, off2):
        d = c - b / d
        if d < pivmin:
            if d > neg_pivmin:
                d = neg_pivmin
            count += 1
    return count


def sturm_newton(diag, off2, shift, pivmin):
    # sturm_count's sweep (the same pivots, guard and count) that also sums
    # the logarithmic derivative of det(T - shift*I) = prod d_i:
    #   dlogdet = sum r_i,  r_i = d_i' / d_i,  d_i' = q r_{i-1} - 1,  q = b_i / d_{i-1},
    # from d_i = c_i - q, which is -sum_j 1 / (lambda_j - shift).  A Newton
    # step on the determinant is then shift - 1 / dlogdet.  Past a guarded
    # pivot the sum may overflow to inf or nan; the count stays exact.
    # Returns (count, dlogdet).
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shifted = iter((diag - float(shift)).tolist())
    count = 0
    d = next(shifted)
    if d < pivmin:
        if d > neg_pivmin:
            d = neg_pivmin
        count += 1
    r = -1.0 / d
    total = r
    for c, b in zip(shifted, off2):
        q = b / d
        d = c - q
        if d < pivmin:
            if d > neg_pivmin:
                d = neg_pivmin
            count += 1
        r = (q * r - 1.0) / d
        total += r
    return count, total


def bisect_eigenvalue(diag, off2, k, lo, hi, pivmin, counts=None):
    # Bisect for the k-th (0-based) eigenvalue given the enclosure
    # count(lo) <= k < count(hi).  Stops at width max(1e-13, 1e-12*|lam|).
    # `counts` (shift -> Sturm count of this matrix) lends earlier counts:
    # the count is non-decreasing in the shift, so a midpoint at or below a
    # shift counted <= k goes to lo, and one at or above a shift counted > k
    # goes to hi, without a sweep.  The midpoints, and so the result, are
    # those of plain bisection.  New counts are added to `counts`.
    if counts is None:
        counts = {}
    below = -math.inf  # largest shift counted <= k
    above = math.inf  # smallest shift counted > k
    for shift, c in counts.items():
        if c <= k:
            if shift > below:
                below = shift
        elif shift < above:
            above = shift
    while True:
        tol = 1e-12 * max(abs(lo), abs(hi))
        if tol < 1e-13:
            tol = 1e-13
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid <= below:
            lo = mid
        elif mid >= above:
            hi = mid
        else:
            c = counts[mid] = sturm_count(diag, off2, mid, pivmin)
            if c > k:
                hi = above = mid
            else:
                lo = below = mid
    return 0.5 * (lo + hi)


def inverse_iteration(diag, off, sigma, pivmin):
    # One step of inverse iteration on the symmetric tridiagonal (diag, off)
    # with the shift `sigma`, from the best unit start vector e_r, by
    # Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997;
    # Dhillon & Parlett, SIMAX 25, 2004).  The forward pivots d+ of
    # T - sigma*I = L D+ L^T are those of the Sturm recurrence, with its
    # pivmin guard; the backward pivots d- are those of U D- U^T.  Twisted
    # at r, the two factors solve (T - sigma*I) z = gamma_r e_r with z_r = 1
    # and gamma_r = d+_r + d-_r - (a_r - sigma) = 1 / [(T - sigma*I)^-1]_rr.
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
    pivmin = float(pivmin)
    neg_pivmin = -pivmin
    shifted = diag - float(sigma)
    cs = shifted.tolist()
    bs = off.tolist()

    def pivots(cs, bs):
        cs = iter(cs)
        d = next(cs)
        if neg_pivmin < d < pivmin:
            d = neg_pivmin
        out = [d]
        for c, b in zip(cs, bs):
            d = c - b * b / d
            if neg_pivmin < d < pivmin:
                d = neg_pivmin
            out.append(d)
        return out

    fwd = np.array(pivots(cs, bs))
    bwd = np.array(pivots(reversed(cs), reversed(bs)))[::-1]
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
    return z / np.linalg.norm(z), 1, True


def prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # Classical RK4 sweep of the phase equation
    #   theta' = cos^2(theta) + (lam - v(x)) sin^2(theta),  theta(x0) = pi/2,
    # for a piecewise-constant v given by `breaks` (m+1 points) / `vals` (m).
    # Every step ends on the breaks: layer j takes max(1, ceil(n_steps l_j / L),
    # ceil(2 l_j |lam - v_j|)) equal steps, none longer than L / n_steps, and
    # h |lam - v_j| <= 1/2 bounds the largest rate of the equation per step.
    # q = lam - v_j is constant within each step, so the sweep keeps RK4's
    # fourth order across the jumps.
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


def prufer_theta_capped(c_decay, cap, lam, half_len, n_steps):
    # Same phase sweep for v(x) = min(cap, c_decay / x^2) on (-half_len, half_len).
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


def profile_rk4_capped(c_decay, cap, lam, half_len, n_samples, n_sub):
    # Integrates u'' = (v - lam) u with v(x) = min(cap, c_decay/x^2) from
    # (u, u') = (1, 0) at -half_len, recording u at n_samples uniform points
    # (endpoints included).  The state and all stored samples are rescaled
    # whenever |u| or |u'| exceeds 1e15; the returned profile is therefore
    # defined only up to a positive factor, which is all the inf/sup ratio
    # needs.
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
        if big > 1e15:
            inv = 1.0 / big
            u *= inv
            up *= inv
            samples = [a * inv for a in samples]
    return np.array(samples)
