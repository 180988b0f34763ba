"""Hot numeric loops shared by the eigensolver and the phase/profile integrators.

Plain interpreted Python, one definition per kernel.  The eigensolver
kernels (Sturm count, bisection, one inverse-iteration step by twisted
factorization) follow LAPACK's tridiagonal routines.  The phase count of a
piecewise-constant potential takes the Pruefer angle exactly, one closed-
form step per layer; the capped family's phase and profile kernels are
fixed-step RK4 sweeps, so their phase counts are reproducible.

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
nonzero, and a closed form below divides by no libm result that can be
zero without a guard (``_run_pivots`` divides in numpy, where a zero
divisor gives an inf that it replaces).

The Sturm sweeps (``sturm_count``, ``sturm_newton`` and the two pivot
passes of ``inverse_iteration``) read a matrix in its run-length form,
which ``SturmCounts`` builds once per matrix with ``run_length``, since
the bisections sweep one matrix some dozens of times.  The backward pivot
pass of ``inverse_iteration`` reads the same form: all rows of a forward
run but its last are a run of the backward pass too (``_backward``).
The eigensolver's grids have equal cells within each layer, so every
interior row of a layer is the same pair (diag_i, off2_{i-1}), bit for
bit.  Every kernel takes such a run in O(1) Python work, by the discrete
Pruefer angle (``_run_phase``), unless its Newton share is ill conditioned
(``_ill_conditioned``: both Sturm sweeps then read its rows one by one, so
that their counts stay equal): from the run's excess
x = fl(c - shift) - 2b, its length and its incoming pivot, closed forms
give its negative pivots, its last pivot and its share of the Newton sum,
and for the twisted solve every pivot, filled in numpy (``_run_pivots``).
Only the rows between runs, the stretches, are read row by row, their
shift taken off in numpy once per sweep.  numpy's elementwise subtraction
is the same correctly rounded IEEE operation as Python's, so every pivot
of a stretch is that of the loop that subtracts the shift at each row.
A run's phase adds up n steps of the angle, so the closed form keeps n
times the angle and the phase's remainder modulo pi exact, as pairs of
doubles.  The closed forms call libm's asin, asinh, atan2, cos, sin, sinh,
tan, tanh, atanh, exp and expm1, which err by about 1e-16, while one
quantum of c - shift moves the phase of a long run near the bottom of its
band by some 1e-7 (the finest grids of criterion 5): a libm that differs
in its last bit moves no count that rounding does not already decide.
They call libm only through Python's ``math``, one scalar at a time, and
numpy only for + - * /, which are correctly rounded: numpy's
transcendental ufuncs run vector code that numpy picks by the CPU, whose
last bits differ from one instruction set to another, and would make the
eigenvector, and every byte written from it, depend on the machine.  The
closed form's count is the per-row loop's wherever rounding does not
decide it, farther than eps ||T|| from an eigenvalue, its Newton sum the
loop's to 1e-8 away from eigenvalues, wherever the loop's sum holds that
many digits, and its eigenvector the loop's to first order in eps ||T||
over the distance to the next eigenvalue (see the tests).
``inverse_iteration`` fills its vector by cumulative products in numpy,
which change no bit of the per-index loop (see there).  Its norm and the
eigensolver's other sums (``dot``, ``norm``) use numpy's pairwise
summation and never BLAS, whose threaded sums over long vectors change
their last bits with the thread count.  ``prufer_theta_piecewise`` takes
each constant layer in closed form, so its angle has no truncation error
and its cost no step rule: O(1) ``math`` scalars a layer, at any lam.

The capped phase kernel integrates the Prüfer angle on the doubled angle
phi = 2 theta.  With q = lam - v, cos^2 theta + q sin^2 theta =
(1 + q)/2 + (1 - q)/2 cos 2 theta, so phi' = (1 + q) + (1 - q) cos phi
needs one cosine per RK4 stage where theta' needs a sine and a cosine.
RK4 commutes with a linear change of variable: every stage of the phi
sweep is exactly twice the theta sweep's in exact arithmetic, so step
counts, order and counts are those of RK4 on theta, and only rounding
differs.  The kernel returns theta = phi / 2.

``SturmCounts`` is the one home of the counts taken on one matrix, and of
the rule for reusing them.  ``bisect_eigenvalue`` stops at the width
``tolerance(lam)``, or at a wider relative width for a guess.  The count
that the per-row loop computes in IEEE arithmetic is non-decreasing in the
shift (Kahan's monotonicity result; Demmel, Dhillon & Ren, ETNA 3,
1995).  A run's closed form keeps that at a fixed excess x, where each of
its formulas is a chain of operations monotone in the incoming pivot; as
x falls, theta does not (monotone roundings, except where two forms meet)
and (n - 1) theta is exact, while the rounding of the first phase psi has
not been seen to outweigh that step (the tests sweep shifts dense in the
rounding band of eigenvalues; this is measured, not proven).  A run
taken row by row (``_ill_conditioned``) is the loop itself; it is so taken
only near an eigenvalue of a leading block, where either way counts the
pivot near zero and the next one as one negative.  So a
kept count can settle a midpoint without a sweep and the bisection still
takes exactly the midpoints of plain bisection; so can the count of the
nearest counted shift below or above when ``diag - shift`` rounds to the
same vector there.  The bisection settles each midpoint outside the two
kept shifts that enclose eigenvalue k itself, and asks the store only for
those between them.  On fine grids, where eps ||T|| lies far above the
bisection tolerance, most of the last midpoints are settled so.
``sturm_newton`` computes ``sturm_count``'s pivots and count operation
for operation, so its counts are as good as any other, and also returns
the logarithmic derivative of the determinant for a Newton step toward an
eigenvalue.
"""

import bisect
import copy
import math
from typing import NamedTuple

import numpy as np

# a profile's state (u, u') is rescaled by 1/max(|u|, |u'|) once that passes
# this; the oracle's layer walk takes the same limit
RENORM_LIMIT = 1e15

# the fewest equal rows that run_length makes a run.  A run costs a sweep
# a closed form (_run_phase) of about what 32 stretch rows cost in
# sturm_count and 53 in sturm_newton: on blocks of m equal rows parted by
# one other row (2 cores, Python 3.11, medians of 25 alternating pairs),
# sturm_count took 1.26, 1.11, 0.98 and 0.79 times the stretch's time for
# m = 24, 28, 32 and 40, and sturm_newton 1.14, 0.93 and 0.84 for m = 48,
# 56 and 64.  A solve takes some six counts per Newton sweep, and a Newton
# row costs about 1.9 count rows, so the two break even near m = 37; runs
# of 32 to 40 rows are rare in the solver's operators, and 32 is kept.
MIN_RUN = 32


class RunLength(NamedTuple):
    """A symmetric tridiagonal matrix as the Sturm kernels sweep it; see
    ``run_length``."""

    stretch: object  # the stretch rows, a slice or an index array
    segments: list  # (b2s, c, b2, n): a stretch's off2 list, then a run


def run_length(diag, off2):
    """The run-length form of the symmetric tridiagonal matrix with diagonal
    ``diag`` and squared off-diagonal ``off2`` (numpy arrays).

    Row i is the pair (diag_i, off2_{i-1}), row 0's off2 taken as 0.0, so
    row 0 enters no run.  A run is a maximal block of at least MIN_RUN rows
    with the same pair, bit for bit, and a nonzero off2, so its rows read
    the shift through one c - shift: every sweep takes it in closed form
    (``_run_phase``), the twisted solve's pivots too (``_run_pivots``),
    and the twisted solve's backward pass reads the runs off this form
    (``_backward``).  Every other row lies in a stretch and is swept row
    by row.  Each
    segment ``(b2s, c, b2, n)`` is a stretch (the list ``b2s`` of its
    rows' off2, possibly empty) followed by a run of n rows of the pair
    (c, b2); the last has n = 0.  ``diag[stretch]`` is the diagonal at the
    stretch rows in order, ``stretch`` a slice where they are one block
    (always so without runs).  Runs are found in numpy: a matrix without
    them, every row a boundary, costs no Python loop over its rows.
    """
    size = diag.size
    b2 = np.concatenate(([0.0], off2))
    c_bits = np.ascontiguousarray(diag, dtype=float).view(np.int64)
    b_bits = b2.view(np.int64)
    boundary = np.ones(size, dtype=bool)  # row i's pair differs from row i - 1's
    boundary[1:] = (c_bits[1:] != c_bits[:-1]) | (b_bits[1:] != b_bits[:-1])
    starts = np.flatnonzero(boundary)
    lengths = np.diff(starts, append=size)
    long = (lengths >= MIN_RUN) & (b2[starts] != 0.0)
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


def _split(a):
    # a = head + tail, each of at most 26 significant bits (Veltkamp): the
    # product of either with an integer below 2^26 is exact
    t = 134217729.0 * a
    head = t - (t - a)
    return head, a - head


def _multiples(theta, theta_lo, m):
    # m (theta + theta_lo) as two doubles for an integer m below 2^26, or a
    # numpy array of them: exact but for m theta_lo (see _split)
    head, tail = _split(theta)
    p = m * theta
    return p, (m * head - p) + m * tail + m * theta_lo


PI_HEAD, PI_TAIL = _split(math.pi)
PI_LO = 1.2246467991473532e-16  # pi - math.pi


def _gap(turns, p, p_lo):
    # (gap, gap_lo) with gap + gap_lo = turns pi - (p + p_lo) to some
    # 1e-30 turns, gap = fl(turns math.pi - p); turns below 2^26
    g = turns * PI_HEAD
    gap = g - p
    v = gap - g
    e = (g - (gap - v)) + (-p - v)  # the rounding of g - p (Knuth's two-sum)
    return gap, e + ((turns * PI_TAIL - p_lo) + turns * PI_LO)


def _run_phase(c, b2, n, d):
    # A run of n rows d_j = c - b2 / d_{j-1} (c the shifted diagonal entry)
    # from the incoming pivot d, by the discrete Pruefer angle (Atkinson,
    # Discrete and Continuous Boundary Problems, 1964): O(1) however long.
    # With b = sqrt(b2) and y_j = d_j / b the rows are y_j = 2t - 1 / y_{j-1},
    # t = c / 2b = 1 + x / 2b, x = c - 2b the run's excess, exact (Sterbenz)
    # for c in [b, 4b]: the run sweeps the diagonal 2b + x.  A run with
    # c < 0 is taken mirrored, c and d negated: its pivots are the mirror's
    # negated, so t >= 0.  The product F(k) = y_1 ... y_k obeys
    # F(k + 1) = 2t F(k) - F(k - 1), F(0) = 1, so y_j = F(j) / F(j - 1),
    # and row j is negative where F changes sign.  With A = c / 2 - b2 / d,
    # the first pivot less b t:
    # - t < 1: cos theta = t, B = b sin theta, and F(k) = sin(psi + k theta)
    #   / sin(psi) with psi = atan2(B, A) in (0, pi).  Rows 1 to n - 1 hold
    #   the floor(psi_n / pi) multiples of pi in (psi, psi_n],
    #   psi_n = psi + (n - 1) theta = turns pi + last, last in (-pi, pi),
    #   and the last pivot is d_n = b t + B cot(last), so the count and d_n
    #   agree however psi_n rounds;
    # - t > 1: cosh theta = t, B = b sinh theta, and F(k) = cosh(psi + k
    #   theta) / cosh(psi) (|A| < B, psi = atanh(A / B)), which never
    #   changes sign, or sinh(psi + k theta) / sinh(psi) (|A| > B,
    #   psi = atanh(B / A)), which does once, where psi < 0 <= psi_n = last;
    #   d_n = b t + B tanh(last), or + B coth(last).  A = B and A = -B are
    #   the fixed points y = exp(+-theta), which the rows keep;
    # - t = 1 (x = 0): F(k) = 1 + k A / b, linear, so d_n = b + 1 / w with
    #   w = last = F(n - 1) / A = 1 / A + (n - 1) / b, and F changes sign
    #   among rows 1 to n - 1 where A < 0 <= w.
    # The phase adds up n - 1 steps of theta, where each row of the loop
    # rounds on its own: in the middle of the band (t near 0), where a row's
    # rounding hardly moves an eigenvalue, theta's rounding carried n times
    # would.  So theta is taken where it is well conditioned, from
    # sin^2(theta / 2) = -x / 4b for t >= 3/4 (x is exact there), as
    # pi/2 - asin(t) with pi/2 in two doubles below, and from
    # sinh^2(theta / 2) = x / 4b for t > 1, each a chain of monotone
    # roundings; (n - 1) theta is formed exactly as two doubles and reduced
    # modulo pi in two doubles, so only theta's own ulp or so is carried n
    # times, about eps b in shift.  At a fixed x the count compares psi
    # with a fixed gap, turns pi - (n - 1) theta in (0, pi].
    # A pivot inside the run within pivmin of zero is a phase within some
    # 1e-250 of a multiple of pi, which the phase cannot tell from either
    # side: no guard is needed there.
    # At a fixed x each of these is a chain of operations monotone in d, as
    # the loop's rows are; theta grows as x falls, but the two forms that
    # meet at t = 3/4 round differently there.  Returns (sign, c, x, b, B,
    # A, theta, theta_lo, psi, count, last): sign -1.0 for a mirrored run, c
    # and A the mirror's, theta + theta_lo the angle to two doubles, and the
    # negative pivots of the mirror's rows 1 to n - 1 (last is inf at t = 1
    # for A = 0, where the rows stay at b).
    if c < 0.0:
        c = -c
        d = -d
        sign = -1.0
    else:
        sign = 1.0
    b = math.sqrt(b2)
    x = c - 2.0 * b
    A = 0.5 * c - b2 / d
    count = 0
    if x < 0.0:
        if c >= 1.5 * b:  # t >= 3/4
            theta = 2.0 * math.asin(math.sqrt(-0.25 * x / b))
            theta_lo = 0.0
        else:  # pi/2 - asin(t), pi/2 to 2 doubles (Dekker's fast two-sum)
            a = math.asin(0.5 * c / b)
            theta = 0.5 * math.pi - a
            theta_lo = ((0.5 * math.pi - theta) - a) + 0.5 * PI_LO
        B = b * math.sin(theta)
        psi = math.atan2(B, A)
        p, p_lo = _multiples(theta, theta_lo, n - 1)  # n below 2^26
        turns = math.floor(p / math.pi) + 1.0
        gap, gap_lo = _gap(turns, p, p_lo)
        if not 0.0 < gap + gap_lo <= math.pi:  # p / pi rounded across an integer
            turns += 1.0 if gap + gap_lo <= 0.0 else -1.0
            gap, gap_lo = _gap(turns, p, p_lo)
        last = (psi - gap) - gap_lo  # psi - gap is exact near zero (Sterbenz)
        count = int(turns) - (last < 0.0)
    elif x > 0.0:
        theta = 2.0 * math.asinh(math.sqrt(0.25 * x / b))
        theta_lo = 0.0
        B = b * math.sinh(theta)
        if abs(A) < B:
            psi = math.atanh(A / B)
        elif A == B or A == -B:
            psi = math.copysign(math.inf, A)
        else:
            psi = math.atanh(B / A)
        p, p_lo = _multiples(theta, 0.0, n - 1)
        last = (psi + p) + p_lo
        if psi < 0.0 <= last and abs(A) > B:  # a sinh that changes sign
            count = 1
    else:
        theta = theta_lo = psi = B = 0.0
        last = 1.0 / A + (n - 1) / b if A else math.inf
        if A < 0.0 <= last:
            count = 1
    return sign, c, x, b, B, A, theta, theta_lo, psi, count, last


def _run_end(phase, n, pivmin):
    # The negative pivots of a run's n rows and its last pivot d_n, from its
    # _run_phase.  Row n counts by the sign of d_n, which the next rows read,
    # and takes the guard.  A zero last (t < 1 and t > 1) or w (t = 1) is the
    # pivot before d_n at zero, which the loop's guard makes -pivmin: d_n is
    # then large and positive, as it makes it.  A mirrored run's rows 1 to
    # n - 1 are negative where the mirror's are not.
    sign, c, x, b, B, A, theta, _, psi, count, last = phase
    if x < 0.0:
        d = 0.5 * c + B / (math.tan(last) or pivmin)
    elif x > 0.0 and abs(A) < B:
        d = 0.5 * c + B * math.tanh(last)
    elif x > 0.0:
        d = 0.5 * c + B / (math.tanh(last) or pivmin)
    else:
        d = b + 1.0 / (last or pivmin)
    if sign < 0.0:
        count = n - 1 - count
        d = -d
    if d < pivmin:
        if d > -pivmin:
            d = -pivmin
        count += 1
    return count, d


def _cubic(a, hyperbolic):
    # sin a - a cos a, or a cosh a - sinh a, for a >= 0: a^3 / 3 -+ a^5 / 30
    # + ..., summed as a series below 1/4, where the difference would lose
    # 3 eps / a^2 of itself
    if a >= 0.25:
        if hyperbolic:
            return a * math.cosh(a) - math.sinh(a)
        return math.sin(a) - a * math.cos(a)
    a2 = a * a if hyperbolic else -a * a
    term = total = a * a * a / 3.0
    for m in range(2, 8):  # 2m a^(2m+1) / (2m+1)!
        term *= a2 / ((2 * m - 2) * (2 * m + 1))
        total += term
    return total


def _continuant_slope(k, x, b, B, A, dA, theta, dc):
    # F'(k), the derivative in the shift of F(k) = T_k(t) + A U_{k-1}(t) / b
    # (see _run_phase), in the Chebyshev polynomials of t, which are smooth
    # at t = 1: with a = k theta, T_k = cos a and U_{k-1} / b = sin a / B
    # (cosh and sinh for t > 1, scaled by exp(-a); 1 and k / b at t = 1).
    # dT_k / dt = k U_{k-1}, and dU_{k-1} / dt is
    # (cubic(a) t - k T_k cubic(theta)) / sin^3 theta (sinh^3), both cubics
    # from _cubic, so no term cancels as theta -> 0.  dt = dc / 2b per unit
    # shift and A' = dA.
    t = 1.0 + 0.5 * x / b
    a = k * theta
    if x < 0.0:
        st = math.sin(a) / B
        dst = dc * b * (_cubic(a, False) * t
                        - k * math.cos(a) * _cubic(theta, False)) / (2.0 * B ** 3)
    elif x > 0.0:
        ct = 0.5 + 0.5 * math.exp(-2.0 * a)  # cosh(a) exp(-a)
        sh = -0.5 * math.expm1(-2.0 * a)  # sinh(a) exp(-a)
        st = sh / B
        cube = _cubic(a, True) * math.exp(-a) if a < 0.25 else a * ct - sh
        dst = dc * b * (cube * t - k * ct * _cubic(theta, True)) / (2.0 * B ** 3)
    else:
        st = k / b
        dst = dc * (k * k - 1.0) * k / (6.0 * b * b)
    return (0.5 * k * dc + dA) * st + A * dst


# the scale below which _ill_conditioned takes a run's closed form for ill
# conditioned: an incoming pivot below b / ILL, or F(n - 1) or F(n) within
# 1 / ILL of its scale from zero.  A run taken row by row costs a sweep some
# 60 ns a row; one batch of the benchmark's sweep workload meets one such
# run in some 600 run sweeps (398 rows), the oracle's four in 2100 (53 to
# 231 rows), and no Newton sweep of the three workloads meets one.
ILL = 1024.0


def _ill_conditioned(phase, n, d):
    # Whether the run of _run_phase `phase`, with the incoming pivot d,
    # has a closed-form Newton share (_run_newton) that rounding can ruin,
    # in which case every sweep takes its rows one by one, as the per-row
    # loop does, so that sturm_newton's count stays sturm_count's:
    # - |d| < b / ILL: the run's share cancels a huge r of the row before;
    # - F(n - 1) or F(n) within 1 / ILL of zero against its scale (the sine
    #   or sinh of the phase, or 1 + k A / b, near a root): the next row
    #   cancels r_n against the run's last pivot, which _run_end takes
    #   from another formula than F, and the cancellation magnifies their
    #   roundings by about 1 / F.  The cosh form never nears zero.
    sign, c, x, b, B, A, theta, _, psi, count, last = phase
    if abs(d) * ILL < b:
        return True
    if x < 0.0:
        return min(abs(math.sin(last)), abs(math.sin(last + theta))) * ILL < 1.0
    if x == 0.0:
        f_m = A * last if A else 1.0
        return (abs(f_m) * ILL < max(1.0, (n - 1) * abs(A) / b)
                or abs(f_m + A / b) * ILL < max(1.0, n * abs(A) / b))
    if abs(A) <= B:
        return False
    return min(abs(last), abs(last + theta)) * ILL < 1.0


def _run_newton(phase, n, b2, d, r):
    # The run's share of sturm_newton's sum, r_1 + ... + r_n = F'(n) / F(n),
    # and its last r_n = F'(n) / F(n) - F'(n - 1) / F(n - 1), for the
    # incoming pivot d and r = d' / d, from the run's _run_phase: its first
    # pivot d_1 = c - b2 / d moves by d_1' = -1 + (b2 / d) r, which enters
    # as A'.  F' is _continuant_slope's; F(n - 1) and F(n) come from the
    # phase that gives d_n, normalized to F(0) = 1 (for t > 1 scaled by
    # exp(-k theta) as F'(k) is): the next row reads r_n / d_n, in which
    # they cancel, as in the loop, to the accuracy that _ill_conditioned
    # asks of them.  Past a guarded pivot the sum may overflow to inf or
    # nan, as the loop's does; a division by an exact zero (a run that
    # starts on its fixed point exp(-theta) and leaves it only below the
    # smallest double, say) gives nan.
    sign, c, x, b, B, A, theta, _, psi, count, last = phase
    dc = -sign  # d(2b + x) / d shift, mirrored: +1
    dA = 0.5 * dc + sign * b2 / d * r
    try:
        if x < 0.0:  # sin(psi_k) / sin(psi), (-1)^turns sin(last) at k = n - 1
            scale = -1.0 if (count + (last < 0.0)) % 2 else 1.0
            scale *= math.hypot(A, B) / B
            f_m = scale * math.sin(last)
            f_n = scale * math.sin(last + theta)
        elif x == 0.0:  # 1 + k A / b, w = F(n - 1) / A
            f_m = A * last if A else 1.0
            f_n = f_m + A / b
        elif abs(A) < B:  # cosh(psi_k) exp(-k theta) / cosh(psi)
            scale = 1.0 + math.exp(-2.0 * psi)
            f_m = (1.0 + math.exp(-2.0 * last)) / scale
            f_n = (1.0 + math.exp(-2.0 * (last + theta))) / scale
        elif A == -B:  # exp(-2k theta): the fixed point exp(-theta)
            f_m = math.exp(-2.0 * (n - 1) * theta)
            f_n = math.exp(-2.0 * n * theta)
        else:  # sinh(psi_k) exp(-k theta) / sinh(psi)
            scale = math.expm1(-2.0 * psi)
            f_m = math.expm1(-2.0 * last) / scale
            f_n = math.expm1(-2.0 * (last + theta)) / scale
        total = _continuant_slope(n, x, b, B, A, dA, theta, dc) / f_n
        last = total - _continuant_slope(n - 1, x, b, B, A, dA, theta, dc) / f_m
    except ArithmeticError:
        return math.nan, math.nan
    return total, last


def sturm_count(diag, runs, shift, pivmin):
    # Sign count of the LDL^T pivots of (T - shift*I): the number of
    # eigenvalues of T strictly below `shift`.  `runs` is the run-length
    # form of T (see run_length), whose diagonal is `diag`; `pivmin` guards
    # against zero pivots the same way LAPACK's bisection does (a pivot in
    # (-pivmin, pivmin) is forced to -pivmin).  A pivot below pivmin is
    # negative once guarded, so one comparison decides both the guard and
    # the count.  The shift is taken off the stretch rows once, in numpy,
    # and each run, which reads it only through its shifted diagonal entry,
    # is counted in closed form (_run_phase, _run_end).
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
        if not n:
            continue
        phase = _run_phase(c - shift, b2, n, d)
        if not _ill_conditioned(phase, n, d):
            k, d = _run_end(phase, n, pivmin)
            count += k
            continue
        a = c - shift
        for _ in range(n):
            d = a - b2 / d
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
    # starts at -0.0, which adds to any r_0 without changing a bit.  A run
    # adds its share in closed form (_run_newton).
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
        if not n:
            continue
        phase = _run_phase(c - shift, b2, n, d)
        if not _ill_conditioned(phase, n, d):
            share, last = _run_newton(phase, n, b2, d, r)
            k, d = _run_end(phase, n, pivmin)
            count += k
            total += share
            r = last
            continue
        a = c - shift
        for _ in range(n):
            q = b2 / d
            d = a - q
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
    2. ``sturm_count`` reads nothing of the shift but the shifted stretch
       entries ``diag[stretch] - shift`` and each run's ``c - shift``, so
       where these equal, entry for entry, their values at the nearest
       counted shift below or above, that count is reused;
    3. otherwise ``sturm_count`` sweeps, and its count is kept.

    In rule 2 the only equal values with different bits are +0 and -0: such
    an entry enters a stretch's pivot only as ``c - b / d``, where a zero
    pivot of either sign is guarded to -pivmin, and a run only through its
    excess ``c - 2b``, the same for either zero, so the count is the one a
    sweep would return.  Every row is a stretch row or a run row, so these
    are the entries of ``diag - shift``, each distinct value once.  Rounding
    is monotone, so ``diag - s`` for s between two shifts with equal vectors
    is that vector too: the nearest counted shifts below and above find
    every match.  Row 0's entry, which is a stretch's, and the runs' are
    compared first, as Python floats: where one differs, so do the vectors.
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
        self._reuse_inputs()
        self.shifts = []
        self.counts = []  # the count at each of `shifts`

    def _reuse_inputs(self):
        # what rule 2 compares: the stretch rows' diagonal entries, and as
        # Python floats row 0's and each distinct run value c
        self.stretch_diag = self.diag[self.runs.stretch]
        runs = {c for _, c, _, n in self.runs.segments if n}
        self.firsts = [float(self.diag[0]), *sorted(runs)]

    def with_first_diagonal(self, first):
        """The store of the matrix that differs from this one only in its
        first diagonal entry, ``first``, with no count kept.  Row 0's off2 is
        0.0, so row 0 enters no run: the two matrices share their run-length
        form, and their pivmin, which are not built again."""
        twin = copy.copy(self)
        twin.diag = self.diag.copy()
        twin.diag[0] = first
        twin._reuse_inputs()
        twin.shifts = []
        twin.counts = []
        return twin

    def exceeds(self, shift, k):
        """Whether more than k eigenvalues lie below `shift` (count > k)."""
        shifts, counts = self.shifts, self.counts
        i = bisect.bisect_left(shifts, shift)  # shifts[i] is the first >= shift
        above = i < len(shifts)
        if above and counts[i] <= k:
            return False
        if above and shifts[i] == shift or i and counts[i - 1] > k:
            return True
        shift = float(shift)
        near = slice(max(i - 1, 0), i + 1)  # the nearest counted shifts below and above
        for s, count in zip(shifts[near], counts[near]):
            if (all(c - s == c - shift for c in self.firsts)
                    and np.array_equal(self.stretch_diag - shift, self.stretch_diag - s)):
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
    # when that is wider (a guess).  That width, `limit`, is taken again only
    # once the bracket is no wider than the last one: each bracket lies in
    # the one before, so max(|lo|, |hi|) never grows, nor does the width it
    # gives, and the test stops where the width taken at each step would.
    # The kept counts, sorted by shift, are
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
    limit = math.inf
    while True:
        if hi - lo <= limit:
            top = max(abs(lo), abs(hi))
            limit = max(tolerance(top), rel_width * top)
            if hi - lo <= limit:
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


def _angles(psi, theta, theta_lo, n):
    # phi_k = psi + k (theta + theta_lo), k = 0 ... n - 1, as a block
    # q K theta plus an offset psi + r theta, r < K = ceil(sqrt(n)): the
    # blocks, up to (n - 1) theta, as two doubles (_multiples, as _run_phase
    # forms (n - 1) theta), and the offsets, below pi + sqrt(n) theta,
    # rounded once.  Their outer combination, raveled, lists k in order.
    k = math.isqrt(n - 1) + 1
    blocks = _multiples(theta, theta_lo, np.arange(0, n, k, dtype=float))
    return blocks, psi + theta * np.arange(k, dtype=float)


def _libm(f, a):
    # libm's f at each entry of the numpy array a
    return np.fromiter(map(f, a.tolist()), float, a.size)


def _sines(psi, theta, theta_lo, n):
    # sin(phi_k), k = 0 ... n - 1 (_angles), from libm's cos and sin of some
    # 2 sqrt(n) angles, a block's to first order in its low part, by the
    # angle addition formula: a few ulps each, nothing carried from k to k + 1
    (blocks, lows), offsets = _angles(psi, theta, theta_lo, n)
    cos, sin = _libm(math.cos, blocks), _libm(math.sin, blocks)
    f = np.multiply.outer(sin + lows * cos, _libm(math.cos, offsets))
    f += np.multiply.outer(cos - lows * sin, _libm(math.sin, offsets))
    return f.ravel()[:n]


def _decays(psi, theta, n):
    # expm1(-2 phi_k), k = 0 ... n - 1 (_angles, theta_lo = 0), from libm's
    # expm1 of some 2 sqrt(n) angles, a block's to first order in its low
    # part (exp(-2a) = 1 + expm1(-2a)), by expm1(u + v) = expm1(u) +
    # expm1(v) + expm1(u) expm1(v)
    (blocks, lows), offsets = _angles(psi, theta, 0.0, n)
    u = _libm(math.expm1, -2.0 * blocks)
    u -= (2.0 * lows) * (1.0 + u)
    v = _libm(math.expm1, -2.0 * offsets)
    f = np.multiply.outer(u, v)
    f += v
    f += u[:, None]
    return f.ravel()[:n]


def _run_pivots(c, b2, n, d, pivmin):
    # The pivots d_1 ... d_n of a run of n rows d_j = c - b2 / d_{j-1} (c the
    # shifted diagonal entry) from the incoming pivot d, in numpy, from the
    # run's _run_phase: d_j = b F(j) / F(j - 1) with, for phi_k = psi + k theta,
    # - t < 1: F(k) = sin(phi_k) / sin(psi) (_sines);
    # - t > 1: F(k) = cosh(phi_k) / cosh(psi) or sinh(phi_k) / sinh(psi),
    #   that is exp(k theta) f_k / f_0 with f_k = 2 + h_k or h_k,
    #   h_k = expm1(-2 phi_k) (_decays), so d_j = (b t + B) f_j / f_{j-1}: a
    #   ratio of terms of one sign where b t + B tanh(phi) would cancel to
    #   b exp(-theta).  A = +-B (psi infinite) keeps every row at b t + A;
    # - t = 1: F(k) = 1 + k A / b.
    # For A < 0 and t < 1 the phase is taken as psi - pi, which negates
    # every F(k) and keeps the digits of a psi near pi.  Each F(k) is
    # computed once and read by both pivots it enters, as the loop reads
    # d_{j-1} for d_j: the twisted solve's vector, filled from the pivots'
    # ratios, is F to a few ulps a row, so (T - sigma) z stays small next to
    # a pivot near zero too, whose relative error is large.  A pivot at a
    # pole, F(j - 1) = 0, follows one that the loop finds zero and guards to
    # -pivmin: it is the loop's next pivot, c + b2 / pivmin.
    # Each pivot takes the loop's guard.  Only libm's scalar functions and
    # numpy's correctly rounded + - * / enter, no numpy transcendental,
    # whose last bits depend on the CPU's vector units.
    sign, c_run, x, b, B, A, theta, theta_lo, psi = _run_phase(c, b2, n, d)[:9]
    if x > 0.0 and abs(A) == B:
        piv = np.full(n, sign * (0.5 * c_run + A))
    else:
        scale = b
        if x < 0.0:
            if A < 0.0:
                psi = -math.atan2(B, -A)
            f = _sines(psi, theta, theta_lo, n + 1)
        elif x > 0.0:
            f = _decays(psi, theta, n + 1)
            if abs(A) < B:
                f = 2.0 + f
            scale = 0.5 * c_run + B
        else:
            f = 1.0 + (A / b) * np.arange(n + 1.0)
        den = f[:-1]
        if den.all():
            piv = f[1:] / den
            piv *= sign * scale
        else:
            with np.errstate(divide="ignore"):
                piv = f[1:] / den
            piv *= sign * scale
            piv[den == 0.0] = c + b2 / pivmin
    piv[np.abs(piv) < pivmin] = -pivmin
    return piv


def _pivots(stretch, segments, shift, pivmin):
    # sturm_count's recurrence and guard on a run-length form, keeping every
    # pivot in the order of the sweep: each stretch row by the loop, each
    # run in closed form (_run_pivots).  `stretch` holds the stretch rows'
    # diagonal entries less `shift`, `segments` as RunLength holds them
    neg_pivmin = -pivmin
    stretch = iter(memoryview(stretch))
    parts = []
    d = 1.0
    for b2s, c, b2, n in segments:
        out = []
        for b, a in zip(b2s, stretch):
            d = a - b / d
            if d < pivmin:
                if d > neg_pivmin:
                    d = neg_pivmin
            out.append(d)
        parts.append(out)
        if n:
            run = _run_pivots(c - shift, b2, n, d, pivmin)
            parts.append(run)
            d = float(run[-1])
    return np.concatenate(parts)


def _backward(runs, shifted, off2):
    # The backward pivot pass in run-length form, from the forward one: its
    # row i reads (diag_i, off2_i), off2_{N-1} taken as 0.0, and it sweeps
    # the rows from N - 1 down.  A forward run of the rows [s, s + n) of the
    # pair (c, b2) reads off2_{s-1} ... off2_{s+n-2} = b2, so its first n - 1
    # rows are a backward run of the same pair, and its last row, which
    # reads the off2 past the run, joins the backward stretch.  Returns the
    # backward stretch rows' entries of `shifted` and the segments, both in
    # the order of the backward sweep.
    b2 = np.append(off2, 0.0)  # off2_i at backward row i
    bounds = []  # backward stretch rows before each forward run, and after the last
    pairs = []
    lo = end = 0
    for b2s, c, b2_run, n in runs.segments:
        end += len(b2s)
        bounds.append((lo, end))
        pairs.append((c, b2_run, n - 1))
        end += n
        lo = end - 1  # the run's last row
    stretch = np.concatenate([shifted[lo:hi][::-1] for lo, hi in reversed(bounds)])
    pairs = pairs[-2::-1] + [(0.0, 0.0, 0)]  # the runs in sweep order, then the end
    segments = [(b2[lo:hi][::-1].tolist(), *pair)
                for (lo, hi), pair in zip(reversed(bounds), pairs)]
    return stretch, segments


def inverse_iteration(counts, sigma):
    # One step of inverse iteration on the symmetric tridiagonal matrix of
    # `counts` (a SturmCounts, whose run-length form and pivmin it reuses)
    # with the shift `sigma`, from the best unit start vector e_r, by
    # Fernando's twisted factorization (Parlett & Dhillon, LAA 267, 1997;
    # Dhillon & Parlett, SIMAX 25, 2004).  The forward pivots d+ of
    # T - sigma*I = L D+ L^T are those of the Sturm recurrence, with its
    # pivmin guard; the backward pivots d- of U D- U^T run the same
    # recurrence and guard from the last row up,
    #   d-_i = (diag_i - sigma) - off2_i / d-_{i+1},  d-_{n-1} = diag_{n-1} - sigma,
    # on the run-length form that _backward reads off the forward one.
    # Stretch rows take the per-row loop and runs their closed form
    # (_run_pivots).  Twisted at r, the two factors
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
    runs = counts.runs
    fwd = _pivots(shifted[runs.stretch], runs.segments, sigma, pivmin)
    bwd = _pivots(*_backward(runs, shifted, off * off), sigma, pivmin)[::-1]
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


def prufer_theta_piecewise(breaks, vals, lam, n_layers):
    # The Pruefer angle theta, tan theta = u / u', of -u'' + v u = lam u
    # from (u, u') = (1, 0), theta = pi/2, at the left end, for the
    # piecewise-constant v given by `breaks` (m + 1 points) and `vals` (its
    # m layer heights), exactly, one layer at a time (Pruess, SIAM J. Numer.
    # Anal. 10, 1973; Pryce, Numerical Solution of Sturm-Liouville Problems,
    # 1993): O(1) work a layer and no step rule.  `n_layers` is m, the
    # closed-form steps taken.  theta is carried as turns pi + phi, phi in
    # [0, pi], with the state (u, u') = rho (sin phi, cos phi), rho > 0, so
    # u >= 0 (u = -0.0 only with u' > 0).  Each layer of length l and
    # xi = lam - v:
    # - xi > 0: with r = sqrt(xi), the scaled angle psi, tan psi =
    #   r tan theta, advances by exactly r l: psi = atan2(r u, u') + r l,
    #   reduced modulo pi into turns, and the state becomes
    #   (sin psi, r cos psi);
    # - xi < 0: with kappa = sqrt(-xi) and w = u' / kappa, the propagator
    #   divided by cosh(kappa l), (u, w) -> (u + tanh(kappa l) w,
    #   w + tanh(kappa l) u), which cannot overflow.  From kappa l = 0.35
    #   on it is taken in the growing and decaying modes s = u + w and
    #   u - w, with E = exp(-2 kappa l): (u, w) -> (s + E (u - w),
    #   s - E (u - w)), times 1 + E.  Both ends of the state then share s's
    #   one rounding, so a state that enters a barrier near its decaying
    #   mode leaves it on the growing mode, as the angle equation's does:
    #   two separately rounded cancellations turned its direction by some
    #   1e-7 and made the counts flip back and forth over 1e-9 around the
    #   pair of Step(1.7, (-18, 18)) at L = 40.  Below 0.35 the tanh form
    #   keeps s and u - w from cancelling against a large w.  The state is
    #   scaled to max(|u|, |u'|) = 1; u has at most one zero in the layer,
    #   so a negative u at its end has passed a multiple of pi: turns grows
    #   by one and the state changes sign.  So does a zero u with a
    #   negative u', which ends exactly on the multiple;
    # - xi = 0: (u, u') -> (u + l u', u'), likewise.
    # Returns (turns, phi): theta = turns pi + phi, phi = atan2(u, u').
    breaks = breaks.tolist()
    lam = float(lam)
    atan2 = math.atan2
    pi = math.pi
    turns = 0.0
    u = 1.0
    up = 0.0
    for left, right, v in zip(breaks, breaks[1:], vals.tolist()):
        ell = right - left
        xi = lam - v
        if xi > 0.0:
            r = math.sqrt(xi)
            m, psi = divmod(atan2(r * u, up) + r * ell, pi)
            turns += m
            u = math.sin(psi)
            up = r * math.cos(psi)
            continue
        if xi < 0.0:
            kappa = math.sqrt(-xi)
            x = kappa * ell
            w = up / kappa
            if x < 0.35:
                th = math.tanh(x)
                w, u = w + th * u, u + th * w
            else:
                e = math.exp(-2.0 * x)
                s = u + w
                d = e * (u - w)
                w, u = s - d, s + d
            up = kappa * w
        else:
            u += ell * up
        if u < 0.0 or u == 0.0 and up < 0.0:
            turns += 1.0
            u = -u
            up = -up
        big = max(u, abs(up))
        if big:
            u /= big
            up /= big
    return int(turns), atan2(u, up)


def prufer_theta_capped(c_decay, cap, lam, half_len, n_steps):
    # Classical RK4 sweep of the phase equation
    #   theta' = cos^2(theta) + (lam - v(x)) sin^2(theta),  theta = pi/2 at -half_len,
    # for v(x) = min(cap, c_decay / x^2) on (-half_len, half_len), in n_steps
    # equal steps, taken on the doubled angle phi = 2 theta (see the module
    # docstring): phi' = (1 + q) + (1 - q) cos(phi), phi = pi at the start,
    # q = lam - v; returns theta = phi / 2.  v is taken at each step's
    # start, midpoint and end.
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
