"""Hot numeric loops shared by the eigensolver and the phase/profile integrators.

Plain interpreted Python, one definition per kernel.  The eigensolver
kernels (Sturm count, bisection, shifted inverse iteration) follow LAPACK's
tridiagonal routines; the phase and profile kernels are fixed-step RK4
sweeps, so phase counts are reproducible.

The loops run on Python floats, not numpy scalars: each kernel converts its
array arguments once per call with ``tolist()`` (scalars with ``float()``)
and returns numpy arrays where it returns arrays.  Both are IEEE doubles
and every operation keeps its order, so the results are bit for bit those
of the same loops over numpy arrays, at a fraction of the indexing cost.
Unlike a numpy scalar, a Python float raises ZeroDivisionError on a zero
divisor instead of returning inf or nan: every divisor below is a pivot
kept away from zero by `pivmin`, a maximum or norm checked to be nonzero, a
step count, or the norm of the start vector, which must not be zero.

``sturm_count`` takes the shift off the diagonal once per call, in numpy,
so its loop is ``d = c_i - b_i / d``; numpy's elementwise subtraction is the
same correctly rounded IEEE operation as Python's, so every count is that
of the loop that subtracts the shift at each step.  ``prufer_theta_piecewise``
looks the layer up only for a step whose end passes the right break of the
current layer; any other step lies in that layer and takes its value at all
three stages, which is what the lookup would return.

``bisect_eigenvalue`` reuses Sturm counts it is given.  The count that
IEEE arithmetic computes is non-decreasing in the shift (Kahan's
monotonicity result; Demmel, Dhillon & Ren, ETNA 3, 1995), so an earlier
count can settle a midpoint without a sweep and the bisection still takes
exactly the midpoints of plain bisection.
"""

import math

import numpy as np


def sturm_count(diag, off2, shift, pivmin):
    # Sign count of the LDL^T pivots of (T - shift*I): the number of
    # eigenvalues of T strictly below `shift`.  `off2` holds the squared
    # off-diagonal entries; `pivmin` guards against zero pivots the same
    # way LAPACK's bisection does (a pivot in (-pivmin, pivmin) is forced to
    # -pivmin).  A pivot below pivmin is negative once guarded, so one
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
    for c, b in zip(shifted, off2.tolist()):
        d = c - b / d
        if d < pivmin:
            if d > neg_pivmin:
                d = neg_pivmin
            count += 1
    return count


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


def inverse_iteration(diag, off, sigma, start, ortho, max_iter, dir_tol, resid_tol,
                      pivmin):
    # Inverse iteration with the shift `sigma` on the symmetric tridiagonal
    # matrix (diag, off).  Factors (T - sigma*I) once by LU with partial
    # pivoting, then iterates solves.  Unless `ortho` is None the iterate is
    # re-orthogonalized against it every sweep (near-degenerate pairs).
    # Accepts when the direction stabilizes to dir_tol, or (from the second
    # sweep on) when the solve growth certifies a residual below resid_tol:
    # with ||x||_2 = 1, the normalized iterate satisfies
    # ||(T - sigma) y_hat||_2 = 1/||y||_2, and near-exact shifts leave the
    # direction jittering in a rounding cloud that never meets dir_tol.
    # Returns (vector, iterations, converged); the vector is l2-normalized.
    sigma = float(sigma)
    pivmin = float(pivmin)
    off = off.tolist()
    n = len(off) + 1
    # LU of (T - sigma*I) with partial pivoting, as LAPACK's dgttrf; `di` and
    # `dui` carry row i's pivot and superdiagonal, which step i-1 may change
    d = []
    du = []
    dl = []
    du2 = []
    piv = []
    shifted = [a - sigma for a in diag.tolist()]
    di = shifted[0]
    dui = off[0]
    for sub, d_next, du_next in zip(off, shifted[1:], off[1:] + [0.0]):
        if abs(di) >= abs(sub):
            if -pivmin < di < pivmin:
                di = pivmin
            fact = sub / di
            d.append(di)
            du.append(dui)
            du2.append(0.0)
            piv.append(False)
            di = d_next - fact * dui
            dui = du_next
        else:
            fact = di / sub
            d.append(sub)
            du.append(d_next)
            du2.append(du_next)
            piv.append(True)
            di = dui - fact * d_next
            dui = -fact * du_next
        dl.append(fact)
    if -pivmin < di < pivmin:
        di = pivmin
    d.append(di)
    del du2[n - 2:]  # the last row has no second superdiagonal
    # back substitution runs from the last row up: its coefficients reversed
    d_last = d[n - 1]
    du_last = du[n - 2]
    d_before_last = d[n - 2]
    du_back = du[:n - 2][::-1]
    du2_back = du2[::-1]
    d_back = d[:n - 2][::-1]

    x = start.tolist()
    s = 0.0
    for a in x:
        s += a * a
    s = math.sqrt(s)
    x = [a / s for a in x]
    if ortho is not None:
        ortho = ortho.tolist()

    iters = 0
    converged = False
    for _ in range(max_iter):
        iters += 1
        # L^-1 with the row interchanges; `c` carries row i into step i
        y = []
        c = x[0]
        for a, f, swapped in zip(x[1:], dl, piv):
            if swapped:
                y.append(a)
                c = c - f * a
            else:
                y.append(c)
                c = a - f * c
        y.append(c)
        # U^-1; z0, z1 carry rows i+1, i+2
        z1 = y[n - 1] / d_last
        z0 = (y[n - 2] - du_last * z1) / d_before_last
        z = [z1, z0]
        for a, u, u2, di in zip(y[n - 3::-1], du_back, du2_back, d_back):
            zi = (a - u * z0 - u2 * z1) / di
            z.append(zi)
            z1 = z0
            z0 = zi
        z.reverse()
        # scale by the largest component first: a nearly exact shift makes the
        # solve blow up past 1e150 and the squared norm would overflow
        amax = max(map(abs, z))
        if amax == 0.0 or not math.isfinite(amax):
            break
        inv0 = 1.0 / amax
        y = [a * inv0 for a in z]
        if ortho is not None:
            dot = 0.0
            for a, b in zip(y, ortho):
                dot += a * b
            y = [a - dot * b for a, b in zip(y, ortho)]
        ny = 0.0
        dot_prev = 0.0
        for a, b in zip(y, x):
            ny += a * a
            dot_prev += a * b
        ny = math.sqrt(ny)
        if ny == 0.0 or not math.isfinite(ny):
            break
        inv = 1.0 / ny
        sgn = 1.0 if dot_prev >= 0.0 else -1.0
        y = [sgn * a * inv for a in y]
        delta = 0.0
        for a, b in zip(y, x):
            dif = a - b
            delta += dif * dif
        x = y
        if math.sqrt(delta) <= dir_tol:
            converged = True
            break
        growth = amax * ny  # may underflow to 0: an uncertified residual
        if iters >= 2 and growth > 0.0 and 1.0 / growth <= resid_tol:
            converged = True
            break
    return np.array(x), iters, converged


def prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # Classical RK4 sweep of the phase equation
    #   theta' = cos^2(theta) + (lam - v(x)) sin^2(theta),  theta(x0) = pi/2,
    # for a piecewise-constant v given by `breaks` (m+1 points) / `vals` (m).
    # The layer lookup is a forward-moving pointer: stage abscissae never
    # decrease, so the scan is O(1) amortized.  A step whose end x + h does
    # not pass the right break of the current layer lies inside that layer,
    # so it takes the layer's value at all three stages without a scan.
    breaks = breaks.tolist()
    vals = vals.tolist()
    lam = float(lam)
    m = len(vals)
    x0 = breaks[0]
    x1 = breaks[m]
    h = (x1 - x0) / n_steps
    half_h = 0.5 * h
    theta = 0.5 * math.pi
    idx = 0
    right = breaks[1] if m > 1 else math.inf  # right break of layer idx
    q = lam - vals[0]
    x = x0
    for _ in range(n_steps):
        xe = x + h
        if xe <= right:
            q1 = q2 = q3 = q
        else:
            xm = x + half_h
            while idx < m - 1 and x > breaks[idx + 1]:
                idx += 1
            q1 = q = lam - vals[idx]
            right = breaks[idx + 1] if idx < m - 1 else math.inf
            j = idx
            while j < m - 1 and xm > breaks[j + 1]:
                j += 1
            q2 = lam - vals[j]
            while j < m - 1 and xe > breaks[j + 1]:
                j += 1
            q3 = lam - vals[j]
        st = math.sin(theta)
        ct = math.cos(theta)
        k1 = ct * ct + q1 * st * st
        t2 = theta + half_h * k1
        st = math.sin(t2)
        ct = math.cos(t2)
        k2 = ct * ct + q2 * st * st
        t3 = theta + half_h * k2
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
