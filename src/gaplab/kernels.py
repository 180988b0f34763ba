"""Hot numeric loops shared by the eigensolver and the phase/profile integrators.

Plain interpreted Python: scalar loops over numpy arrays, one definition
per kernel.  The eigensolver kernels (Sturm count, bisection, shifted
inverse iteration) follow LAPACK's tridiagonal routines; the phase and
profile kernels are fixed-step RK4 sweeps, so phase counts are reproducible.
"""

import math

import numpy as np


def sturm_count(diag, off2, shift, pivmin):
    # Sign count of the LDL^T pivots of (T - shift*I): the number of
    # eigenvalues of T strictly below `shift`.  `off2` holds the squared
    # off-diagonal entries; `pivmin` guards against zero pivots the same
    # way LAPACK's bisection does (a tiny pivot is forced negative).
    n = diag.shape[0]
    count = 0
    d = diag[0] - shift
    if -pivmin < d < pivmin:
        d = -pivmin
    if d < 0.0:
        count += 1
    for i in range(1, n):
        d = diag[i] - shift - off2[i - 1] / d
        if -pivmin < d < pivmin:
            d = -pivmin
        if d < 0.0:
            count += 1
    return count


def bisect_eigenvalue(diag, off2, k, lo, hi, pivmin):
    # Bisect for the k-th (0-based) eigenvalue given the enclosure
    # count(lo) <= k < count(hi).  Stops at width max(1e-13, 1e-12*|lam|).
    while True:
        tol = 1e-12 * max(abs(lo), abs(hi))
        if tol < 1e-13:
            tol = 1e-13
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if sturm_count(diag, off2, mid, pivmin) > k:
            hi = mid
        else:
            lo = mid
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
    n = diag.shape[0]
    d = np.empty(n)
    du = np.empty(n - 1)
    dl = np.empty(n - 1)
    du2 = np.zeros(n - 2) if n > 2 else np.zeros(1)
    piv = np.zeros(n - 1, np.uint8)
    for i in range(n):
        d[i] = diag[i] - sigma
    for i in range(n - 1):
        du[i] = off[i]
    for i in range(n - 1):
        sub = off[i]
        if abs(d[i]) >= abs(sub):
            if -pivmin < d[i] < pivmin:
                d[i] = pivmin
            fact = sub / d[i]
            dl[i] = fact
            d[i + 1] = d[i + 1] - fact * du[i]
            if i < n - 2:
                du2[i] = 0.0
        else:
            fact = d[i] / sub
            dl[i] = fact
            d[i] = sub
            temp = du[i]
            du[i] = d[i + 1]
            d[i + 1] = temp - fact * d[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -fact * du[i + 1]
            piv[i] = 1
    if -pivmin < d[n - 1] < pivmin:
        d[n - 1] = pivmin

    x = np.empty(n)
    s = 0.0
    for i in range(n):
        x[i] = start[i]
        s += x[i] * x[i]
    s = math.sqrt(s)
    for i in range(n):
        x[i] /= s

    y = np.empty(n)
    iters = 0
    converged = False
    for _ in range(max_iter):
        iters += 1
        for i in range(n):
            y[i] = x[i]
        for i in range(n - 1):
            if piv[i] == 0:
                y[i + 1] -= dl[i] * y[i]
            else:
                temp = y[i]
                y[i] = y[i + 1]
                y[i + 1] = temp - dl[i] * y[i]
        y[n - 1] = y[n - 1] / d[n - 1]
        if n >= 2:
            y[n - 2] = (y[n - 2] - du[n - 2] * y[n - 1]) / d[n - 2]
        for i in range(n - 3, -1, -1):
            y[i] = (y[i] - du[i] * y[i + 1] - du2[i] * y[i + 2]) / d[i]
        # scale by the largest component first: a nearly exact shift makes the
        # solve blow up past 1e150 and the squared norm would overflow
        amax = 0.0
        for i in range(n):
            a = abs(y[i])
            if a > amax:
                amax = a
        if amax == 0.0 or not math.isfinite(amax):
            break
        inv0 = 1.0 / amax
        for i in range(n):
            y[i] *= inv0
        if ortho is not None:
            dot = 0.0
            for i in range(n):
                dot += y[i] * ortho[i]
            for i in range(n):
                y[i] -= dot * ortho[i]
        ny = 0.0
        for i in range(n):
            ny += y[i] * y[i]
        ny = math.sqrt(ny)
        if ny == 0.0 or not math.isfinite(ny):
            break
        inv = 1.0 / ny
        dot_prev = 0.0
        for i in range(n):
            dot_prev += y[i] * x[i]
        sgn = 1.0 if dot_prev >= 0.0 else -1.0
        delta = 0.0
        for i in range(n):
            yi = sgn * y[i] * inv
            dif = yi - x[i]
            delta += dif * dif
            x[i] = yi
        if math.sqrt(delta) <= dir_tol:
            converged = True
            break
        if iters >= 2 and 1.0 / (amax * ny) <= resid_tol:
            converged = True
            break
    return x, iters, converged


def prufer_theta_piecewise(breaks, vals, lam, n_steps):
    # Classical RK4 sweep of the phase equation
    #   theta' = cos^2(theta) + (lam - v(x)) sin^2(theta),  theta(x0) = pi/2,
    # for a piecewise-constant v given by `breaks` (m+1 points) / `vals` (m).
    # The layer lookup is a forward-moving pointer: stage abscissae never
    # decrease, so the scan is O(1) amortized.
    x0 = breaks[0]
    x1 = breaks[vals.shape[0]]
    h = (x1 - x0) / n_steps
    m = vals.shape[0]
    theta = 0.5 * math.pi
    idx = 0
    x = x0
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


def prufer_theta_capped(c_decay, cap, lam, half_len, n_steps):
    # Same phase sweep for v(x) = min(cap, c_decay / x^2) on (-half_len, half_len).
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
    samples = np.empty(n_samples)
    samples[0] = 1.0
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
        samples[j] = u
        au = abs(u)
        aup = abs(up)
        big = au if au > aup else aup
        if big > 1e15:
            inv = 1.0 / big
            u *= inv
            up *= inv
            for i in range(j + 1):
                samples[i] *= inv
    return samples
