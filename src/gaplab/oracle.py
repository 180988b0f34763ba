"""Independent spectral oracle for the finite-difference solver.

For piecewise-constant potentials the Neumann eigenvalues are the zeros of
the matching function D(lam) = u'(L/2), where (u, u') is propagated from
(1, 0) at -L/2 through each constant layer by the exact 2x2 propagator

    [ c(xi, l)        s(xi, l) ]        xi = lam - v_layer,
    [ -xi s(xi, l)    c(xi, l) ]

with c = cos(sqrt(xi) l), s = sin(sqrt(xi) l)/sqrt(xi), continued by cosh
and sinh for xi < 0 and by (1, l) at xi = 0.  ``_cs`` writes them once for
math, numpy and mpmath.  Neither branch cancels as xi -> 0, so D is
continuous through lam = v_layer; layers where sqrt(v - lam) l > 350 are
walked in pieces, so cosh never overflows.  D, its mpmath secant and the
piecewise ground-state profile take their states from one walk, which
rescales the state past 1e15 (in double only).

Eigenvalue counting for arbitrary potentials uses the phase equation
theta' = cos^2 theta + (lam - v) sin^2 theta integrated by fixed-step RK4
(reproducible counts; a sweep of over 1e9 steps is refused); for a
piecewise-constant potential every step ends on a layer break.
``ground_state_profile`` measures inf/sup of the ground state without the
finite-difference machinery; the capped one takes twice the RK4 steps of a
phase count, by the same step rule.

``eigenvalues_exact`` finds each eigenvalue with one bracket routine that
uses the RK4 counts only to isolate it: once a bracket holds eigenvalue k
alone (counts k and k + 1 at its ends, and D of the signs one simple zero
implies), the sign of D decides every further bisection midpoint, since its
zeros are exactly the eigenvalues.  In double precision D is rounding noise
within some ulp of a root, so the last step is one secant step on D
evaluated in mpmath (imported on first use).  Eigenvalue 1's bracket starts
where eigenvalue 0's ended; no count is taken below zero (it is 0).
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import kernels
from .potentials import InverseSquareCapped, PotentialSpec, _check_length, break_points, evaluate

__all__ = [
    "LayerDecomposition",
    "OracleError",
    "decompose",
    "match_value",
    "eigenvalues_exact",
    "prufer_count",
    "GroundStateProfile",
    "ground_state_profile",
]

_RENORM_LIMIT = kernels.RENORM_LIMIT  # 1e15, the capped profile's too
_PIECE_EXPONENT = 350.0  # largest sqrt(v - lam) l of one piece: cosh(350) ~ 5e151
_MAX_PIECES = 10**6


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


def _cs(xi, t, lib=math):
    """Propagator entries (c, s) over a length t at xi = lam - v in the
    arithmetic ``lib`` (math, numpy for an array t, or mpmath)."""
    if xi > 0:
        r = lib.sqrt(xi)
        x = r * t
        return lib.cos(x), lib.sin(x) / r
    if xi < 0:
        r = lib.sqrt(-xi)
        x = r * t
        return lib.cosh(x), lib.sinh(x) / r
    return 1.0, t


def _check_lambda(lam: float) -> None:
    if not math.isfinite(lam):
        raise ValueError(f"lambda must be finite, got {lam}")


def _pieces(layers: LayerDecomposition, lam):
    """(left end, length, xi = lam - v) of each piece from -L/2 to L/2.  A
    layer with sqrt(v - lam) l > 350 is cut into equal pieces (at most 1e6)
    below that, so cosh stays under 1e152."""
    breaks = layers.breaks.tolist()
    for left, right, v in zip(breaks, breaks[1:], layers.values.tolist()):
        ell = right - left
        xi = lam - v
        n = math.ceil(math.sqrt(-xi) * ell / _PIECE_EXPONENT) if xi < 0 else 1
        if n == 1:
            yield left, ell, xi
        elif n > _MAX_PIECES:
            raise ValueError(f"layer ({left}, {right}) of height {v} too opaque at lambda={lam}")
        else:
            h = ell / n
            for i in range(n):
                yield left + i * h, h, xi


def match_value(layers: LayerDecomposition, lam: float) -> float:
    """D(lam) = u'(L/2) for the left-Neumann solution; the walk rescales the
    state by a positive factor whenever it grows past 1e15, so zeros and
    signs are exact but the scale is not.  Rejects a non-finite ``lam``."""
    _check_lambda(lam)
    return _match(layers, lam)


def _match(layers: LayerDecomposition, lam, lib=math):
    """D(lam) in the arithmetic ``lib``: u' where the walk ends."""
    for _, _, _, up, _ in _walk(layers, lam, lib):
        pass
    return up


def _walk(layers: LayerDecomposition, lam, lib=math):
    """Carry (u, u') from (1, 0) at -L/2 through the pieces in the arithmetic
    ``lib``, yielding (left, xi, u, u', inv) for each piece: its left end and
    xi, the state at its right end, and the factor the state was just scaled
    by, 1/max(|u|, |u'|) past 1e15 in double (math), else 1.0.  mpmath never
    rescales: a rescale at one end of a secant but not the other would skew it."""
    u, up = 1.0, 0.0
    for left, ell, xi in _pieces(layers, lam):
        c, s = _cs(xi, ell, lib)
        u, up = c * u + s * up, -xi * s * u + c * up
        inv = 1.0
        if lib is math and max(abs(u), abs(up)) > _RENORM_LIMIT:
            inv = 1.0 / max(abs(u), abs(up))
            u, up = u * inv, up * inv
        yield left, xi, u, up, inv


def _capped_steps(p: InverseSquareCapped, L: float, lam: float) -> int:
    """RK4 steps of a capped phase count, whose |lam - v| <= max(|lam|, |lam - cap|)."""
    return _steps_for(L, lam, max(abs(lam), abs(lam - p.cap)))


def _steps_for(L: float, lam: float, rate: float = 0.0, rate_steps: float = 0.0) -> int:
    """RK4 steps over a length L with h <= min(1e-3 L, 0.1/sqrt(1+|lam|)),
    and h <= 0.5/rate for a largest |lam - v| ``rate`` > 0.  Rejects |lam| > 1e12
    and over 1e9 steps, ``rate_steps`` (sum_j 2 l_j |lam - v_j|) included."""
    h_max = min(1e-3 * L, 0.1 / math.sqrt(1.0 + abs(lam)))
    if rate > 0.0:
        h_max = min(h_max, 0.5 / rate)
    if abs(lam) > 1e12 or h_max <= 0.0 or L / h_max + rate_steps > 1e9:
        raise ValueError(f"phase integration step underflow at lam={lam}")
    return int(math.ceil(L / h_max))


def _count_from_theta(theta: float) -> int:
    k = math.floor((theta - 0.5 * math.pi) / math.pi) + 1
    return max(0, int(k))


def _count_from_layers(layers: LayerDecomposition, lam: float) -> int:
    rate_steps = 2.0 * float(np.abs(lam - layers.values) @ np.diff(layers.breaks))
    n = _steps_for(layers.length, lam, rate_steps=rate_steps)
    theta = kernels.prufer_theta_piecewise(layers.breaks, layers.values, lam, n)
    return _count_from_theta(theta)


def prufer_count(p: PotentialSpec, L: float, lam: float) -> int:
    """Number of Neumann eigenvalues strictly below ``lam``.

    Fixed-step RK4 keeps counts reproducible across sweeps; the step obeys
    h <= min(1e-3 L, 0.1/sqrt(1+|lam|)) and h |lam - v| <= 1/2, which bounds
    the largest rate of the phase equation: per layer for a
    piecewise-constant potential, whose every step ends on a layer break,
    and with |lam - v| <= max(|lam|, |lam - cap|) for the capped family.
    Rejects a non-finite lam, |lam| > 1e12 and a sweep of over 1e9 steps,
    layer j's ceil(2 l_j |lam - v_j|) included.
    """
    _check_length(L)
    _check_lambda(lam)
    if isinstance(p, InverseSquareCapped):
        n = _capped_steps(p, L, lam)
        theta = kernels.prufer_theta_capped(p.decay, p.cap, lam, 0.5 * L, n)
        return _count_from_theta(theta)
    return _count_from_layers(decompose(p, L), lam)


def _secant_step(layers, a, b):
    """One secant step on D through a and b, with D at both in mpmath at 30
    digits (the pieces match_value walks, with xi = lam - v formed in
    mpmath), rounded once to a double.  In double, D is rounding noise over
    some ulp around a root (the layer coefficients cancel), so its sign
    cannot place the root closer; the secant through two exact values of
    the smooth D at ends ~1e-13 apart lands within a fraction of an ulp.
    For a == b (a zero of D in double) it returns a."""
    import mpmath

    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        da, db = _match(layers, a, mpmath), _match(layers, b, mpmath)
        if da == db:
            return float(0.5 * (a + b))
        return float(a - da * (b - a) / (db - da))


def eigenvalues_exact(layers: LayerDecomposition, count: int = 2) -> Tuple[float, ...]:
    """First ``count`` (1 or 2) Neumann eigenvalues as zeros of the matching
    function D.  RK4 phase counts, whose steps end on every layer break,
    bisect until a bracket isolates each eigenvalue; the sign of D decides
    the bisection from there down to relative ~1e-13, and one secant step
    on D evaluated in mpmath places the root to within about an ulp of the
    largest |lam - v|.  No count is taken below zero, where it is 0, and
    eigenvalue 1's bracket starts where eigenvalue 0's ended, at count 1.
    Raises :class:`OracleError` when eigenvalues k and k + 1 lie closer than
    double precision can separate."""
    if count not in (1, 2):
        raise ValueError("only the lowest two eigenvalues are supported")
    L = layers.length
    maxv = layers.max_value()
    l1 = layers.l1()
    free_gap = (math.pi / L) ** 2
    # lam0 <= min(max v, l1/L) by the Rayleigh quotient of the constant
    # test function, and lam1 <= pi^2/L^2 + min(max v, 3 l1/L) by the largest
    # Rayleigh quotient on span{1, cos(pi (x + L/2) / L)}, since v >= 0 and
    # every u there has u^2 <= 3 mean(u^2).  So the ceiling below encloses
    # both with a margin of at least 3 pi^2/L^2 and keeps the phase counts
    # near the two eigenvalues, where their steps stay few;
    # _bracket_root raises if the phase count disagrees.
    scale = max(1.0, maxv + 4.0 * free_gap)
    ceiling = min(maxv, 3.0 * l1 / L) + free_gap * 4.0 + 1e-9 * scale
    c_ceiling = _count_from_layers(layers, ceiling)
    # below min v >= 0 the phase stays in (0, pi/2], so the count at lo is 0
    lo, c_lo = -1e-9 * scale, 0

    roots = []
    for k in range(count):
        lam, lo = _bracket_root(layers, k, lo, c_lo, ceiling, c_ceiling, scale)
        c_lo = k + 1
        roots.append(lam)
    return tuple(roots)


def _bracket_root(layers, k, lo, c_lo, hi, c_hi, scale):
    """Eigenvalue k by bisection of [lo, hi] (phase counts c_lo, c_hi), and
    the bracket's final upper end.

    RK4 phase counts decide the midpoints only until the bracket isolates
    eigenvalue k: count(lo) == k, count(hi) == k + 1, and D(lo), D(hi)
    carry the signs one simple zero of D implies.  The zeros of D are
    exactly the eigenvalues and are simple, so from then on the sign of D
    decides each midpoint, free of RK4 truncation error, down to a width of
    max(1e-13 relative, 1e-15 scale); one secant step on D in mpmath then
    places the root.  A bracket that narrows to 1e-9 of its own ends
    (1e-10 absolute near zero) without isolating raises
    :class:`OracleError`.  The upper end returned lies
    between eigenvalues k and k + 1: its count is k + 1.
    """
    if c_lo > k or c_hi < k + 1:
        raise OracleError(
            f"phase count does not bracket eigenvalue {k}: "
            f"count({lo})={c_lo}, count({hi})={c_hi}"
        )
    want_left = 1.0 if k % 2 == 0 else -1.0  # sign of D below the k-th zero
    while not (
        c_lo == k
        and c_hi == k + 1
        and match_value(layers, lo) * want_left > 0.0
        and match_value(layers, hi) * want_left < 0.0
    ):
        # relative to the bracket as it closes on eigenvalue k: the ceiling
        # it starts from can lie orders of magnitude above
        if hi - lo <= max(1e-10, 1e-9 * max(abs(lo), abs(hi))):
            if c_hi >= k + 2:
                raise OracleError(
                    f"eigenvalues {k} and {k + 1} are not separable in double "
                    f"precision: the phase count jumps from {c_lo} to {c_hi} "
                    f"across [{lo:.17g}, {hi:.17g}]"
                )
            raise OracleError(
                f"phase counts do not isolate eigenvalue {k}: "
                f"count({lo:.17g})={c_lo}, count({hi:.17g})={c_hi}"
            )
        mid = 0.5 * (lo + hi)
        c_mid = _count_from_layers(layers, mid)
        if c_mid > k:
            hi, c_hi = mid, c_mid
        else:
            lo, c_lo = mid, c_mid
    tol = max(1e-13 * max(abs(lo), abs(hi)), 1e-15 * scale)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if match_value(layers, mid) * want_left < 0.0:
            hi = mid
        else:
            lo = mid
    return _secant_step(layers, lo, hi), hi


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
    finite-difference solver; a non-finite one is rejected.  The capped
    family takes twice the RK4 steps of a phase count, under the same
    limits.  The state is renormalized whenever |u| or |u'| passes 1e15,
    which leaves the inf/sup ratio untouched.

    One shot from the left end cannot follow deep tunneling: it picks up the
    growing mode, and the ratio is then no reference for the solver's.  For
    Step(2.331495070458611, (-15.197894751115527, 23.76147902369693)) at
    L = 51.56692688606229 the ratio is 0.0 at the exact lambda0 and 4.9e-24
    at the solver's, whose inf/sup phi0 is 3.5e-27 (n0 = 3301).
    """
    _check_length(L)
    _check_lambda(lam0)
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    xs = np.linspace(-0.5 * L, 0.5 * L, samples)
    if isinstance(p, InverseSquareCapped):
        n_sub = max(2, math.ceil(2 * _capped_steps(p, L, lam0) / (samples - 1)))
        u = kernels.profile_rk4_capped(p.decay, p.cap, lam0, 0.5 * L, samples, n_sub)
    else:
        walk = list(_walk(decompose(p, L), lam0))
        # xs is sorted: a piece takes the samples up to its right end, the last one all that remain
        ends = np.searchsorted(xs, [left for left, *_ in walk[1:]] + [math.inf], side="right")
        u = np.empty(samples)
        u_left, up_left, pos = 1.0, 0.0, 0
        for (left, xi, u_right, up_right, inv), end in zip(walk, ends):
            if end > pos:
                c, s = _cs(xi, xs[pos:end] - left, np)
                u[pos:end] = c * u_left + s * up_left
            if inv != 1.0:
                u[:end] *= inv
            pos, u_left, up_left = end, u_right, up_right
    au = np.abs(u)
    xs.flags.writeable = False
    u.flags.writeable = False
    return GroundStateProfile(
        x=xs, values=u, min_abs=float(au.min()), max_abs=float(au.max())
    )
