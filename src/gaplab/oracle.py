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
walked in pieces, so cosh never overflows.  D, its last secant step and
the piecewise ground-state profile take their states from one walk, which
rescales the state past 1e15 (in double only) and, on request, bounds the
rounding error of D in double or long double.

Eigenvalue counting uses the Pruefer angle theta, tan theta = u / u',
of the phase equation theta' = cos^2 theta + (lam - v) sin^2 theta from
theta = pi/2, and counts the pi/2 + k pi it passes strictly.  For a
piecewise-constant potential the angle is exact, one closed-form step per
layer (``kernels.prufer_theta_piecewise``; Pruess, SIAM J. Numer. Anal.
10, 1973; Pryce, Numerical Solution of Sturm-Liouville Problems, 1993),
carried as turns pi + phi with phi in [0, pi], so the count is
turns + (phi > pi/2) at any lam, with no step rule.  The capped family's
v is even, so each of its Neumann eigenfunctions is even (u'(0) = 0) or
odd (u(0) = 0), and its count integrates the equation over the left half
only, from -L/2 to the centre, by fixed-step RK4 (reproducible counts; a
step rule of over 1e9 steps over L is refused) on the doubled angle
phi = 2 theta, whose equation phi' = (1 + q) + (1 - q) cos phi,
q = lam - v, takes one cosine per RK4 stage.  RK4 commutes with that
linear change of variable, so the steps, the order and the counts are
those of RK4 on theta; only rounding differs.  theta(0) rises with lam;
the even eigenvalues sit where it is pi/2 + k pi and the odd ones where
it is (k + 1) pi, so the count below lam is the number of multiples of
pi/2 that theta(0) passes strictly beyond pi/2.
``ground_state_profile`` measures inf/sup of the ground state without
the finite-difference machinery.  The capped one integrates the left
half too, by the phase count's step rule and at least two RK4 steps per
sample interval, and mirrors it: the ground state is even.

``eigenvalues_exact`` finds each eigenvalue with one bracket routine that
uses the phase counts only to isolate it: once a bracket holds eigenvalue
k alone (counts k and k + 1 at its ends, and D of the signs one simple
zero implies, each beyond D's rounding bound), D alone narrows it, by
bracketed secant steps (Anderson-Bjorck), since its zeros are exactly the
eigenvalues.  In double precision D is rounding noise within some ulp of
a root, so the last step is one secant step on D evaluated more
precisely: in long double with a bound on its error, where long double
has 64 or 113 bits and that bound rounds to a single double, else in
mpmath at 30 digits (imported on first use).  Both give the same double
(Ziv's rounding test: ACM TOMS 17, 1991).  Eigenvalue 1's bracket starts
where eigenvalue 0's bracket was isolated; no count is taken below zero
(it is 0).
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
_EPS = 2.0 ** -52  # machine epsilon of a double
_LONG_EPS = np.finfo(np.longdouble).eps
# The last secant step runs in long double only where it has 64 (x87) or 113
# (IEEE quad) bits; where it is plain double or IBM double-double, mpmath.
_LONG_STEP = np.finfo(np.longdouble).nmant in (63, 112)


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
    for _, _, _, up, _, _ in _walk(layers, lam, lib):
        pass
    return up


def _match_noise(layers: LayerDecomposition, lam, lib=math):
    """D(lam) in double (math) or long double (numpy, for a long-double
    lam) and a bound on its rounding error (see _walk)."""
    for _, _, _, up, _, noise in _walk(layers, lam, lib, bound=True):
        pass
    return up, noise


def _walk(layers: LayerDecomposition, lam, lib=math, bound=False):
    """Carry (u, u') from (1, 0) at -L/2 through the pieces in the arithmetic
    ``lib``, yielding (left, xi, u, u', inv, noise) for each piece: its left
    end and xi, the state at its right end, the factor the state was just
    scaled by, 1/max(|u|, |u'|) past 1e15 in double (math), else 1.0, and,
    with ``bound``, a bound on the rounding error of that u', else 0.0.
    The bound takes eps from the arithmetic: 2^-52 in double, long double's
    own (2^-63 on x87) for numpy on a long-double lam.  Neither long double
    (up to 1e4932) nor mpmath rescales: a rescale at one end of a secant
    but not the other would skew it.  A long-double state that overflows
    is not finite, and neither is its bound.

    The bound carries the errors e_u, e_u' so far through the propagator's
    magnitudes, (|c| e_u + |s| e_u', |xi s| e_u + |c| e_u'), and adds each
    piece's own rounding: a few eps of each product, c u, s u', xi s u and
    c u' (c, s and xi s to an ulp or two), and the rounding of the argument
    sqrt|xi| l, which acts as a change of about 2 eps l in the piece's
    length and so moves the new state by 2 eps l (|u'|, |xi u|).  Taken at
    the new state, that term shrinks with the state where a barrier's
    growing and decaying modes cancel.  It bounds D as a function of the
    doubles xi = lam - v, whose own rounding shifts D's zeros by about an
    ulp of the largest |xi| (see eigenvalues_exact).  Against a 50-digit
    walk on the same xi, at both ends and the middle of each eigenvalue's
    last bracket on the golden cases, the hard test draws and 30 random
    multisteps, D's error stayed below 0.20 of the bound in double and 0.26
    in long double."""
    eps = _EPS if lib is math else _LONG_EPS
    u, up = 1.0, 0.0
    err_u = err_up = 0.0
    for left, ell, xi in _pieces(layers, lam):
        c, s = _cs(xi, ell, lib)
        u_end, up_end = c * u + s * up, -xi * s * u + c * up
        if bound:
            err_u, err_up = (
                abs(c) * err_u + abs(s) * err_up
                + eps * (2.0 * abs(c * u) + 3.0 * abs(s * up) + 2.0 * ell * abs(up_end)),
                abs(xi * s) * err_u + abs(c) * err_up
                + eps * (4.0 * abs(xi * s * u) + 2.0 * abs(c * up) + 2.0 * ell * abs(xi * u_end)),
            )
        u, up = u_end, up_end
        inv = 1.0
        if lib is math and max(abs(u), abs(up)) > _RENORM_LIMIT:
            inv = 1.0 / max(abs(u), abs(up))
            u, up = u * inv, up * inv
            err_u, err_up = err_u * inv, err_up * inv
        yield left, xi, u, up, inv, err_up


def _capped_steps(p: InverseSquareCapped, L: float, lam: float) -> int:
    """RK4 steps of a capped phase count over the length L: h <= min(1e-3 L,
    0.1/sqrt(1+|lam|)), and h <= 0.5/rate for the largest |lam - v|,
    rate = max(|lam|, |lam - cap|), where it is > 0.  Rejects |lam| > 1e12
    and over 1e9 steps."""
    h_max = min(1e-3 * L, 0.1 / math.sqrt(1.0 + abs(lam)))
    rate = max(abs(lam), abs(lam - p.cap))
    if rate > 0.0:
        h_max = min(h_max, 0.5 / rate)
    if abs(lam) > 1e12 or h_max <= 0.0 or L / h_max > 1e9:
        raise ValueError(f"phase integration step underflow at lam={lam}")
    return int(math.ceil(L / h_max))


def _count_from_centre(theta: float) -> int:
    # theta(0) of an even potential's shot from -L/2: one eigenvalue for
    # each multiple of pi/2 that it passes strictly beyond pi/2, an even one
    # at pi/2 + k pi and an odd one at (k + 1) pi.  theta(0) ends exactly on
    # one when an eigenvalue equals lam (it stays at pi/2 where lam - v is
    # 0), which is not below lam
    return max(0, math.ceil((theta - 0.5 * math.pi) / (0.5 * math.pi)))


def _count_from_layers(layers: LayerDecomposition, lam: float) -> int:
    # theta = turns pi + phi, phi in [0, pi], passes pi/2 + k pi for k below
    # turns, and once more where phi > pi/2: a phase that ends on pi/2 +
    # turns pi, u' = 0, counts no eigenvalue equal to lam
    turns, phi = kernels.prufer_theta_piecewise(
        layers.breaks, layers.values, lam, layers.values.size
    )
    return turns + (phi > 0.5 * math.pi)


def prufer_count(p: PotentialSpec, L: float, lam: float) -> int:
    """Number of Neumann eigenvalues strictly below ``lam``.

    A piecewise-constant potential takes the Pruefer angle exactly, one
    closed-form step per layer, at any finite lam.  The capped family, whose
    v is even, takes fixed-step RK4 from -L/2 to the centre and counts off
    the angle there, which keeps counts reproducible across sweeps: n steps
    over L obey h <= min(1e-3 L, 0.1/sqrt(1+|lam|)) and h |lam - v| <= 1/2
    with |lam - v| <= max(|lam|, |lam - cap|), which bounds the largest rate
    of the phase equation, and the half takes ceil(n/2) steps of
    (L/2)/ceil(n/2) <= L/n.  Rejects a non-finite lam, and for the capped
    family |lam| > 1e12 and n over 1e9.
    """
    _check_length(L)
    _check_lambda(lam)
    if isinstance(p, InverseSquareCapped):
        n = (_capped_steps(p, L, lam) + 1) // 2
        theta = kernels.prufer_theta_capped(p.decay, p.cap, lam, 0.5 * L, n)
        return _count_from_centre(theta)
    return _count_from_layers(decompose(p, L), lam)


def _secant_step(layers, a, b):
    """One secant step on D through a and b, with D at both in mpmath at 30
    digits (the pieces match_value walks, with xi = lam - v formed in
    mpmath), rounded once to a double.  In double, D is rounding noise over
    some ulp around a root (the layer coefficients cancel), so its sign
    cannot place the root closer; the secant through two exact values of
    the smooth D at ends ~1e-13 apart lands within a fraction of an ulp.
    Where D is equal at both ends it returns their midpoint.  This is the
    reference that _long_secant_step must reproduce, and its fallback."""
    import mpmath

    with mpmath.workdps(30):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        da, db = _match(layers, a, mpmath), _match(layers, b, mpmath)
        if da == db:
            return float(0.5 * (a + b))
        return float(a - da * (b - a) / (db - da))


def _xi_rounding(layers, ends):
    """Largest rounding of xi = lam - v in long double over the heights v
    and the shifts lam in ``ends``, exact by TwoSum (Knuth, TAOCP vol. 2,
    4.2.2)."""
    lam = np.array(ends, dtype=np.longdouble)[:, None]
    v = layers.values.astype(np.longdouble)
    xi = lam - v
    v_part = xi - lam
    return np.max(np.abs((lam - (xi - v_part)) - (v + v_part)))


def _long_secant_step(layers, a, b):
    """_secant_step's double from D and its rounding bound in long double,
    or None where that bound does not decide it (or long double is not
    wider than double, or D is not finite).

    The secant point x = a - D(a) (b - a)/(D(b) - D(a)) of values off by at
    most e_a, e_b lies within (b - a)(|D(b)| e_a + |D(a)| e_b) /
    (|D(b) - D(a)| (|D(b) - D(a)| - e_a - e_b)) of that of the exact D.
    Rounding each xi = lam - v to long double moves D's zero by at most the
    largest such rounding, since the weights dlam/dv_j are >= 0 and sum to
    1, and moves the secant point of two nearby ends no further.  To these
    the bound adds the secant's own rounding, a few eps of |x| and of the
    step, and the 30-digit step's error: 1e-9 of the D term, since its D
    carries some 1e-11 of long double's rounding error, and 1e-28 (|x| +
    max |v|) for its xi (rounded to 103 bits) and its own rounding.  Where
    both ends of x -+ bound round to one double, the mpmath step rounds to
    it too."""
    if not _LONG_STEP:
        return None
    a, b = np.longdouble(a), np.longdouble(b)
    da, ea = _match_noise(layers, a, np)
    db, eb = _match_noise(layers, b, np)
    span = abs(db - da)
    margin = span - ea - eb
    if not (np.isfinite(margin) and margin > 0.0):
        return None
    step = da * ((b - a) / (db - da))
    x = a - step
    # |D|/span <= 1 comes first, so no product overflows where D nears 1e4932
    dx = (
        (b - a) * (abs(db) / span * ea + abs(da) / span * eb) / margin * (1.0 + 1e-9)
        + _xi_rounding(layers, (a, b))
        + _LONG_EPS * (2.0 * abs(x) + 4.0 * abs(step))
        + 1e-28 * (abs(x) + np.abs(layers.values).max())
    )
    lo, hi = float(x - dx), float(x + dx)
    return lo if lo == hi else None


def eigenvalues_exact(layers: LayerDecomposition, count: int = 2) -> Tuple[float, ...]:
    """First ``count`` (1 or 2) Neumann eigenvalues as zeros of the matching
    function D.  Exact phase counts, one closed-form step per layer,
    bisect until a bracket isolates each eigenvalue; bracketed secant steps
    on D narrow it from there to relative ~1e-13, and one secant step on D,
    evaluated in long double where its error bound decides the double and
    in mpmath where it does not, places the root to within about an ulp of
    the largest |lam - v|.  No count is taken below zero, where it is 0, and
    eigenvalue 1's bracket starts at the upper end that isolated
    eigenvalue 0, at count 1.  Raises :class:`OracleError` when eigenvalues
    k and k + 1 lie closer than double precision can separate.  A barrier
    of height 1e4 and width 8 at L = 20 takes some 0.03 s on first use,
    most of it importing mpmath, whose step both its roots take (the
    barrier's xi round by far more than an ulp of lam in long double), and
    1.7 ms after that (2.5 s with RK4 counts); the golden cases take 0.6
    ms each, against 1.3-1.8 ms with every last step in mpmath."""
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
    # both with a margin of at least 3 pi^2/L^2 and keeps the bisection
    # near the two eigenvalues; _bracket_root raises if the phase count
    # disagrees.
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
    """Eigenvalue k by bracketing [lo, hi] (phase counts c_lo, c_hi), and
    the upper end of the bracket that isolated it.

    Phase counts bisect the bracket only until it isolates eigenvalue k:
    count(lo) == k, count(hi) == k + 1, and D(lo), D(hi) carry the signs
    one simple zero of D implies, each by more than its rounding bound (see
    _walk), so that no sign is rounding noise.  The zeros of D are exactly
    the eigenvalues and are simple, so from then on D alone narrows the
    bracket to a width of tol = max(1e-13 relative, 1e-15 scale):
    Anderson-Bjorck steps (regula falsi that scales down the value at an
    end which a step left in place twice in a row, by 1 - f/f_old, or by
    1/2 where that is not positive; BIT 13, 1973), each clamped at least
    tol/2 inside the bracket, and a bisection step wherever three steps did
    not halve it.  One secant step on D in long double, or in mpmath where
    long double does not decide its double, then places the root.
    A bracket that narrows to 1e-9 of its own ends (1e-10 absolute near
    zero) without isolating raises :class:`OracleError`, which names the
    pair as not separable where the counts isolate but D at an end lies
    within its rounding bound, or where the count at hi, or one bracket
    width above it, exceeds k + 1.  The upper end returned lies between
    eigenvalues k and k + 1: its count is k + 1, and D there is of its
    sign beyond rounding.
    """
    if c_lo > k or c_hi < k + 1:
        raise OracleError(
            f"phase count does not bracket eigenvalue {k}: "
            f"count({lo})={c_lo}, count({hi})={c_hi}"
        )
    want_left = 1.0 if k % 2 == 0 else -1.0  # sign of D below the k-th zero
    d_lo = d_hi = None  # (D, its rounding bound) at lo and hi, once taken
    while True:
        isolating = c_lo == k and c_hi == k + 1
        if isolating:
            if d_lo is None:
                d_lo = _match_noise(layers, lo)
            if d_hi is None:
                d_hi = _match_noise(layers, hi)
            if d_lo[0] * want_left > d_lo[1] and -d_hi[0] * want_left > d_hi[1]:
                break
        # relative to the bracket as it closes on eigenvalue k: the ceiling
        # it starts from can lie orders of magnitude above
        if hi - lo <= max(1e-10, 1e-9 * max(abs(lo), abs(hi))):
            # exact counts can isolate a pair that D's rounding cannot split:
            # D is then rounding noise at an end, or the count one width
            # above hi takes eigenvalue k + 1 too
            if isolating and min(abs(d_lo[0]) - d_lo[1], abs(d_hi[0]) - d_hi[1]) <= 0.0:
                raise OracleError(
                    f"eigenvalues {k} and {k + 1} are not separable in double "
                    f"precision: D lies within its rounding error at an end of "
                    f"[{lo:.17g}, {hi:.17g}], whose phase counts are {c_lo} and {c_hi}"
                )
            if c_hi == k + 1:
                hi, c_hi = hi + (hi - lo), _count_from_layers(layers, hi + (hi - lo))
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
            hi, c_hi, d_hi = mid, c_mid, None
        else:
            lo, c_lo, d_lo = mid, c_mid, None
    tol = max(1e-13 * max(abs(lo), abs(hi)), 1e-15 * scale)
    isolated = hi
    f_lo, f_hi = d_lo[0], d_hi[0]
    kept = 0  # 1 after a step that kept lo in place, -1 after one that kept hi
    widths = [math.inf] * 3  # the bracket's width before each step
    while hi - lo > tol:
        if hi - lo > 0.5 * widths[-3]:
            x = 0.5 * (lo + hi)  # three steps did not halve the bracket
        else:
            x = hi - f_hi * ((hi - lo) / (f_hi - f_lo))
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        widths.append(hi - lo)
        f = match_value(layers, x)
        if f * want_left < 0.0:
            if kept == 1:  # lo kept twice: scale its value down
                m = 1.0 - f / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi, kept = x, f, 1
        else:
            if kept == -1:
                m = 1.0 - f / f_lo if f_lo else 0.5  # f_lo is 0 only at a zero of D
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo, kept = x, f, -1
    x = _long_secant_step(layers, lo, hi)
    return (_secant_step(layers, lo, hi) if x is None else x), isolated


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
    family, whose v and ground state are even, integrates from -L/2 to the
    centre only, by RK4 at max(2, ceil(2n/(samples - 1))) steps per sample
    interval, n the steps of a phase count at lam0 over L (so 4.1 n at the
    default 2049 samples where n = 1000, under the same limits), and the
    samples right of the centre mirror those on its left, ``values`` and
    ``x`` alike (values[samples-1-k] == values[k] bit for bit,
    x[samples-1-k] == -x[k], and x = 0.0 at the centre where samples is
    odd).  The state is renormalized whenever |u| or |u'| passes 1e15, which
    leaves the inf/sup ratio untouched.

    A piecewise profile is one shot from the left end, which cannot follow
    deep tunneling: it picks up the growing mode, and the ratio is then no
    reference for the solver's.  For
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
        half = samples // 2
        xs[samples - half:] = -xs[half - 1::-1]
        if samples % 2:
            xs[half] = 0.0
        n_sub = max(2, math.ceil(2 * _capped_steps(p, L, lam0) / (samples - 1)))
        u = kernels.profile_rk4_capped(p.decay, p.cap, lam0, 0.5 * L, samples, n_sub)
    else:
        walk = list(_walk(decompose(p, L), lam0))
        # xs is sorted: a piece takes the samples up to its right end, the last one all that remain
        ends = np.searchsorted(xs, [left for left, *_ in walk[1:]] + [math.inf], side="right")
        u = np.empty(samples)
        u_left, up_left, pos = 1.0, 0.0, 0
        for (left, xi, u_right, up_right, inv, _), end in zip(walk, ends):
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
