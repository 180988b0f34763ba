"""Independent spectral oracle for the finite-difference solver.

For piecewise-constant potentials the Neumann eigenvalues are the zeros of
the matching function D(lam) = u'(L/2), where (u, u') is propagated from
(1, 0) at -L/2 through each constant layer by the exact 2x2 propagator

    [ c(xi, l)        s(xi, l) ]        xi = lam - v_layer,
    [ -xi s(xi, l)    c(xi, l) ]

with c = cos(sqrt(xi) l) and s = sin(sqrt(xi) l)/sqrt(xi) continued evenly
through xi = 0 (cosh/sinh branch for xi < 0, Taylor series near 0), so the
root-finder never sees the removable singularity at lam = v_layer.

Eigenvalue counting for arbitrary potentials uses the phase equation
theta' = cos^2 theta + (lam - v) sin^2 theta integrated by fixed-step RK4
(reproducible counts), and ``ground_state_profile`` integrates the eigenvalue
ODE once to measure inf/sup of the ground state without touching the
finite-difference machinery.

``eigenvalues_exact`` uses the RK4 counts only to isolate each eigenvalue:
once a bracket holds eigenvalue k alone (counts k and k + 1 at its ends, and
D of the signs one simple zero implies), the sign of D decides every further
bisection midpoint, since its zeros are exactly the eigenvalues.  In double
precision D is rounding noise within some ulp of a root, so the last step is
one secant step on D evaluated in mpmath (imported on first use).
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from . import kernels
from .potentials import InverseSquareCapped, PotentialSpec, break_points, evaluate

__all__ = [
    "LayerDecomposition",
    "OracleError",
    "decompose",
    "match_value",
    "match_function",
    "eigenvalues_exact",
    "prufer_count",
    "GroundStateProfile",
    "ground_state_profile",
]

_RENORM_LIMIT = 1e50


class OracleError(RuntimeError):
    """Raised when eigenvalue bracketing fails (e.g. an inseparable pair)."""


@dataclass(frozen=True)
class LayerDecomposition:
    """Constant-potential layers covering (-L/2, L/2) exactly.

    ``breaks`` has m+1 strictly increasing points from -L/2 to L/2 and
    ``values`` the m layer heights.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.breaks.size != self.values.size + 1:
            raise ValueError("breaks must have one more entry than values")
        if not np.all(np.diff(self.breaks) > 0.0):
            raise ValueError("breaks must be strictly increasing")
        self.breaks.flags.writeable = False
        self.values.flags.writeable = False

    @property
    def length(self) -> float:
        return float(self.breaks[-1] - self.breaks[0])

    def max_value(self) -> float:
        return float(self.values.max())

    def l1(self) -> float:
        return float(np.sum(self.values * np.diff(self.breaks)))


def decompose(p: PotentialSpec, L: float) -> LayerDecomposition:
    """Minimal layer list for a piecewise-constant potential, supports
    clipped to (-L/2, L/2).  Rejects non-piecewise-constant families."""
    if isinstance(p, InverseSquareCapped):
        raise ValueError(
            "inverse-square potentials are not piecewise constant; "
            "use the phase-counting path instead"
        )
    breaks = np.array([-0.5 * L, *break_points(p, L), 0.5 * L])
    values = evaluate(p, 0.5 * (breaks[:-1] + breaks[1:]))
    # merge adjacent layers of equal height to keep the list minimal
    first = np.r_[True, values[1:] != values[:-1]]
    return LayerDecomposition(np.r_[breaks[:-1][first], breaks[-1]], values[first])


def _cs(xi: float, ell: float) -> Tuple[float, float]:
    """Propagator coefficients c, s with the even continuation through xi=0."""
    z = xi * ell * ell
    if z > 1e-10:
        r = math.sqrt(xi)
        return math.cos(r * ell), math.sin(r * ell) / r
    if z < -1e-10:
        r = math.sqrt(-xi)
        return math.cosh(r * ell), math.sinh(r * ell) / r
    # |xi| l^2 <= 1e-10: two Taylor terms leave a relative error ~ z^2/24
    return 1.0 - 0.5 * z, ell * (1.0 - z / 6.0)


def match_value(layers: LayerDecomposition, lam: float) -> float:
    """D(lam) = u'(L/2) for the left-Neumann solution; a positive rescaling
    is applied when the state grows past 1e50, so zeros and signs are exact
    but the scale is not."""
    u, up = 1.0, 0.0
    breaks = layers.breaks
    values = layers.values
    for j in range(values.size):
        ell = float(breaks[j + 1] - breaks[j])
        xi = lam - float(values[j])
        c, s = _cs(xi, ell)
        u, up = c * u + s * up, -xi * s * u + c * up
        big = max(abs(u), abs(up))
        if big > _RENORM_LIMIT:
            u /= big
            up /= big
    return up


def match_function(layers: LayerDecomposition) -> Callable[[float], float]:
    """lam -> D(lam); zeros of D are the Neumann eigenvalues."""
    return lambda lam: match_value(layers, lam)


def _steps_for(L: float, lam: float) -> int:
    h_max = min(1e-3 * L, 0.1 / math.sqrt(1.0 + abs(lam)))
    if h_max <= 0.0 or L / h_max > 1e12:
        raise ValueError(f"phase integration step underflow at lam={lam}")
    return int(math.ceil(L / h_max))


def _count_from_theta(theta: float) -> int:
    k = math.floor((theta - 0.5 * math.pi) / math.pi) + 1
    return max(0, int(k))


def _count_from_layers(layers: LayerDecomposition, lam: float) -> int:
    if abs(lam) > 1e12:
        raise ValueError(f"phase integration step underflow at lam={lam}")
    n = _steps_for(layers.length, lam)
    theta = kernels.prufer_theta_piecewise(layers.breaks, layers.values, lam, n)
    return _count_from_theta(theta)


def prufer_count(p: PotentialSpec, L: float, lam: float) -> int:
    """Number of Neumann eigenvalues strictly below ``lam``.

    Fixed-step RK4 keeps counts reproducible across sweeps; the step obeys
    h <= min(1e-3 L, 0.1/sqrt(1+|lam|)).  Rejects |lam| > 1e12.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    if abs(lam) > 1e12:
        raise ValueError(f"phase integration step underflow at lam={lam}")
    if isinstance(p, InverseSquareCapped):
        n = _steps_for(L, lam)
        theta = kernels.prufer_theta_capped(p.decay, p.cap, lam, 0.5 * L, n)
        return _count_from_theta(theta)
    return _count_from_layers(decompose(p, L), lam)


def _bisect_sign_change(f, a, b, fa, fb, abs_floor):
    for _ in range(200):
        width = b - a
        if width <= max(1e-13 * max(abs(a), abs(b)), abs_floor):
            break
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid, 0.0, 0.0
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a, b, fa, fb


def _secant_step(layers, a, b):
    """One secant step on D through a and b, with D at both in mpmath at 30
    digits (the same double layer lengths and heights as match_value, and
    xi = lam - v formed in mpmath), rounded once to a double.  In double, D
    is rounding noise over some ulp around a root (the layer coefficients
    cancel), so its sign cannot place the root closer; the secant through
    two exact values of the smooth D at ends ~1e-13 apart lands within a
    fraction of an ulp.  For a == b (a zero of D in double) it returns a."""
    import mpmath

    with mpmath.workdps(30):
        ells = [mpmath.mpf(x) for x in np.diff(layers.breaks).tolist()]
        heights = [mpmath.mpf(v) for v in layers.values.tolist()]

        def d(lam):
            u, up = mpmath.mpf(1), mpmath.mpf(0)
            for ell, v in zip(ells, heights):
                xi = lam - v
                if xi > 0:
                    r = mpmath.sqrt(xi)
                    c, s = mpmath.cos_sin(r * ell)
                    s /= r
                elif xi < 0:
                    r = mpmath.sqrt(-xi)
                    c, s = mpmath.cosh(r * ell), mpmath.sinh(r * ell) / r
                else:
                    c, s = mpmath.mpf(1), ell
                u, up = c * u + s * up, -xi * s * u + c * up
            return up

        a, b = mpmath.mpf(a), mpmath.mpf(b)
        da, db = d(a), d(b)
        if da == db:
            return float(0.5 * (a + b))
        return float(a - da * (b - a) / (db - da))


def eigenvalues_exact(layers: LayerDecomposition, count: int = 2) -> Tuple[float, ...]:
    """First ``count`` (1 or 2) Neumann eigenvalues as zeros of the matching
    function D.  RK4 phase counts bisect until a bracket isolates each
    eigenvalue; the sign of D decides the bisection from there, a
    sign-change bisection narrows the root to relative ~1e-13, and one
    secant step on D evaluated in mpmath places it to within about an ulp
    of the largest |lam - v|.  The two eigenvalues share their phase counts.
    Raises :class:`OracleError` when eigenvalues k and k + 1 lie closer than
    double precision can separate."""
    if count not in (1, 2):
        raise ValueError("only the lowest two eigenvalues are supported")
    L = layers.length
    maxv = layers.max_value()
    l1 = layers.l1()
    free_gap = (math.pi / L) ** 2
    # lam0 <= min(max v, l1/L) by the Rayleigh quotient of the constant
    # test function and lam1 <= pi^2/L^2 + max v, so the ceiling below
    # encloses both with a margin of at least 3 pi^2/L^2;
    # _prufer_transition raises if the phase count disagrees.
    scale = max(1.0, maxv + 4.0 * free_gap)
    ceiling = min(maxv, l1 / L) + free_gap * 4.0 + maxv + 1e-9 * scale
    lo = -1e-9 * scale

    roots = []
    lo_k = lo
    counts = {}
    for k in range(count):
        a, b = _prufer_transition(layers, k, lo_k, ceiling, counts)
        lam = _refine_root(layers, k, a, b, scale)
        roots.append(lam)
        lo_k = b
    return tuple(roots)


def _prufer_transition(layers, k, lo, hi, counts):
    """Shrink [lo, hi] around eigenvalue k to a width of 1e-9 relative.

    RK4 phase counts decide the midpoints only until the bracket isolates
    eigenvalue k: count(lo) == k, count(hi) == k + 1, and D(lo), D(hi)
    carry the signs one simple zero of D implies.  The zeros of D are
    exactly the eigenvalues and are simple, so from then on the sign of D
    at each midpoint decides it, free of RK4 truncation error.  If the
    bracket never isolates, the counts decide every midpoint.  ``counts``
    maps each shift counted so far to its count; the caller shares it
    between eigenvalues.
    """

    def count(lam):
        c = counts.get(lam)
        if c is None:
            c = counts[lam] = _count_from_layers(layers, lam)
        return c

    c_lo = count(lo)
    c_hi = count(hi)
    if c_lo > k or c_hi < k + 1:
        raise OracleError(
            f"phase count does not bracket eigenvalue {k}: "
            f"count({lo})={c_lo}, count({hi})={c_hi}"
        )
    want_left = 1.0 if k % 2 == 0 else -1.0  # sign of D below the k-th zero
    tol = max(1e-10, 1e-9 * max(abs(lo), abs(hi)))
    while hi - lo > tol and not (
        c_lo == k
        and c_hi == k + 1
        and match_value(layers, lo) * want_left > 0.0
        and match_value(layers, hi) * want_left < 0.0
    ):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return lo, hi
        c_mid = count(mid)
        if c_mid > k:
            hi, c_hi = mid, c_mid
        else:
            lo, c_lo = mid, c_mid
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if match_value(layers, mid) * want_left < 0.0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def _refine_root(layers, k, a, b, scale):
    f = match_function(layers)
    want_left = 1.0 if k % 2 == 0 else -1.0  # sign of D below the k-th zero
    pad = max(b - a, 1e-12 * scale)
    abs_floor = 1e-15 * scale
    for _ in range(12):
        aa = a - pad
        bb = b + pad
        fa = f(aa)
        fb = f(bb)
        if fa == 0.0:
            return aa
        if fb == 0.0:
            return bb
        if (fa > 0.0) == (want_left > 0.0) and (fb > 0.0) != (fa > 0.0):
            aa, bb, _, _ = _bisect_sign_change(f, aa, bb, fa, fb, abs_floor)
            return _secant_step(layers, aa, bb)
        pad *= 4.0
    # last resort: scan for a sign change on a fine grid around the bracket
    grid = np.linspace(a - pad, b + pad, 257)
    vals = [f(x) for x in grid]
    for x0, x1, f0, f1 in zip(grid, grid[1:], vals, vals[1:]):
        if f0 == 0.0:
            return float(x0)
        if (f0 > 0.0) != (f1 > 0.0):
            aa, bb, _, _ = _bisect_sign_change(f, float(x0), float(x1), f0, f1, abs_floor)
            return _secant_step(layers, aa, bb)
    if (vals[0] > 0.0) == (vals[-1] > 0.0) == (want_left > 0.0):
        # D has the sign it has below eigenvalue k on both sides of where the
        # phase count places it, so eigenvalue k + 1 is in there too
        raise OracleError(
            f"eigenvalues {k} and {k + 1} are not separable in double precision: "
            f"the matching function keeps its sign across [{grid[0]:.17g}, {grid[-1]:.17g}]"
        )
    raise OracleError(f"bracket failure for eigenvalue {k}")


@dataclass(frozen=True)
class GroundStateProfile:
    """One-pass integration of the ground-state ODE (arbitrary overall scale)."""

    x: np.ndarray
    values: np.ndarray
    min_abs: float
    max_abs: float

    @property
    def ratio(self) -> float:
        return self.min_abs / self.max_abs


def ground_state_profile(
    p: PotentialSpec, L: float, lam0: float, samples: int = 2049
) -> GroundStateProfile:
    """Integrate -u'' + v u = lam0 u from (u, u') = (1, 0) at -L/2 and sample
    u at ``samples`` uniform points (endpoints included).

    ``lam0`` should come from :func:`eigenvalues_exact` or the
    finite-difference solver.  The state is renormalized whenever |u| passes
    1e15, which leaves the inf/sup ratio untouched.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    xs = np.linspace(-0.5 * L, 0.5 * L, samples)
    if isinstance(p, InverseSquareCapped):
        h_max = min(5e-4 * L, 0.05 / math.sqrt(1.0 + abs(lam0)))
        n_sub = max(2, int(math.ceil(L / ((samples - 1) * h_max))))
        u = kernels.profile_rk4_capped(p.decay, p.cap, lam0, 0.5 * L, samples, n_sub)
    else:
        u = _profile_piecewise(decompose(p, L), lam0, xs)
    au = np.abs(u)
    xs.flags.writeable = False
    u.flags.writeable = False
    return GroundStateProfile(
        x=xs, values=u, min_abs=float(au.min()), max_abs=float(au.max())
    )


def _profile_piecewise(layers: LayerDecomposition, lam: float, xs: np.ndarray) -> np.ndarray:
    """Exact layer-by-layer evaluation of the left-Neumann solution at xs."""
    out = np.empty(xs.size)
    u, up = 1.0, 0.0
    breaks = layers.breaks
    values = layers.values
    pos = 0
    for j in range(values.size):
        left = float(breaks[j])
        right = float(breaks[j + 1])
        xi = lam - float(values[j])
        last = j == values.size - 1
        hi = pos
        while hi < xs.size and (xs[hi] <= right or last):
            hi += 1
        if hi > pos:
            t = xs[pos:hi] - left
            z = xi * t * t
            c = np.empty_like(t)
            s = np.empty_like(t)
            osc = z > 1e-10
            dec = z < -1e-10
            mid = ~(osc | dec)
            if xi > 0.0:
                r = math.sqrt(xi)
                c[osc] = np.cos(r * t[osc])
                s[osc] = np.sin(r * t[osc]) / r
            elif xi < 0.0:
                r = math.sqrt(-xi)
                c[dec] = np.cosh(r * t[dec])
                s[dec] = np.sinh(r * t[dec]) / r
            c[mid] = 1.0 - 0.5 * z[mid]
            s[mid] = t[mid] * (1.0 - z[mid] / 6.0)
            out[pos:hi] = c * u + s * up
            pos = hi
        cl, sl = _cs(xi, right - left)
        u, up = cl * u + sl * up, -xi * sl * u + cl * up
        big = max(abs(u), abs(up))
        if big > 1e15:
            inv = 1.0 / big
            u *= inv
            up *= inv
            out[:pos] *= inv
    return out
