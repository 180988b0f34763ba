import json
import math
import pathlib
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaplab import (
    Constant,
    InverseSquareCapped,
    MultiStep,
    OracleError,
    Step,
    Zero,
    decompose,
    eigenvalues_exact,
    ground_state_profile,
    match_value,
    prufer_count,
    solve_extrapolated,
)
from gaplab import kernels, oracle
from conftest import random_lattice_multistep, random_multistep
from test_golden_solve import _cases as golden_cases

PI_SQ = math.pi * math.pi
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "step_L10_eigenvalues.json").read_text()
)
# (potential, L) of the piecewise records in tests/golden/solve_cases.json
GOLDEN_PIECEWISE = [
    (p, L) for _, p, L, _ in golden_cases() if not isinstance(p, InverseSquareCapped)
]


def test_decompose_free_single_layer():
    lay = decompose(Zero(), 3.0)
    np.testing.assert_allclose(lay.breaks, [-1.5, 1.5])
    np.testing.assert_allclose(lay.values, [0.0])


def test_decompose_step_three_layers():
    lay = decompose(Step(1.0, (-0.5, 0.5)), 4.0)
    np.testing.assert_allclose(lay.breaks, [-2.0, -0.5, 0.5, 2.0])
    np.testing.assert_allclose(lay.values, [0.0, 1.0, 0.0])


def test_decompose_clips_to_interval():
    lay = decompose(Step(1.0, (-0.5, 3.0)), 4.0)
    np.testing.assert_allclose(lay.breaks, [-2.0, -0.5, 2.0])
    np.testing.assert_allclose(lay.values, [0.0, 1.0])


def test_decompose_merges_equal_layers():
    p = MultiStep((Step(1.0, (-1.0, 0.0)), Step(1.0, (0.0, 1.0))))
    lay = decompose(p, 4.0)
    np.testing.assert_allclose(lay.breaks, [-2.0, -1.0, 1.0, 2.0])
    np.testing.assert_allclose(lay.values, [0.0, 1.0, 0.0])


def test_decompose_rejects_capped():
    with pytest.raises(ValueError, match="piecewise"):
        decompose(InverseSquareCapped(1.0, 4.0), 2.0)


@pytest.mark.parametrize("L", [1.0, 3.0, 20.0])
def test_free_eigenvalues_exact(L):
    lam0, lam1 = eigenvalues_exact(decompose(Zero(), L), 2)
    assert abs(lam0) < 1e-12
    assert lam1 == pytest.approx(PI_SQ / L**2, rel=1e-12)


def test_constant_shift():
    c, L = 2.3, 4.0
    lam0, lam1 = eigenvalues_exact(decompose(Constant(c), L), 2)
    assert lam0 == pytest.approx(c, rel=1e-12)
    assert lam1 == pytest.approx(c + PI_SQ / L**2, rel=1e-12)


def test_match_function_free_closed_form():
    # D(lam) = -sqrt(lam) sin(sqrt(lam) L) for the free operator
    L = 2.0
    lay = decompose(Zero(), L)
    for lam in (0.3, 1.7, 5.0):
        expected = -math.sqrt(lam) * math.sin(math.sqrt(lam) * L)
        assert match_value(lay, lam) == pytest.approx(expected, rel=1e-12)


def test_match_sign_alternates_across_eigenvalues():
    lay = decompose(Step(1.0, (-0.5, 0.5)), 10.0)
    lam0, lam1 = eigenvalues_exact(lay, 2)
    d = max(1e-7, 1e-7 * lam1)
    assert match_value(lay, lam0 - d) > 0 > match_value(lay, lam0 + d)
    assert match_value(lay, lam1 - d) < 0 < match_value(lay, lam1 + d)


def test_step_golden_values():
    lay = decompose(Step(1.0, (-0.5, 0.5)), 10.0)
    lam0, lam1 = eigenvalues_exact(lay, 2)
    assert lam0 == pytest.approx(GOLDEN["lambda0"], rel=1e-11)
    assert lam1 == pytest.approx(GOLDEN["lambda1"], rel=1e-11)


def test_fd_matches_golden_on_aligned_grid():
    r = solve_extrapolated(Step(1.0, (-0.5, 0.5)), 10.0, n0=640, levels=3)
    assert r.lambda0 == pytest.approx(GOLDEN["lambda0"], rel=1e-7)
    assert r.lambda1 == pytest.approx(GOLDEN["lambda1"], rel=1e-7)


def test_prufer_counts_free_interval():
    assert prufer_count(Zero(), 1.0, 5.0) == 1
    assert prufer_count(Zero(), 1.0, 50.0) == 3  # {0, pi^2, 4 pi^2} < 50
    assert prufer_count(Zero(), 1.0, -1.0) == 0


def test_prufer_count_excludes_eigenvalue_at_lambda():
    # the phase stays at pi/2 where lam - v is 0 (or below eps / L), and an
    # eigenvalue equal to lam is not strictly below it
    assert prufer_count(Zero(), 1.0, -1e-300) == 0
    assert prufer_count(Zero(), 1.0, 0.0) == 0
    assert prufer_count(Constant(2.0), 1.0, 2.0) == 0


def test_prufer_monotone_and_unit_jumps():
    p = Step(1.0, (-0.5, 0.5))
    L = 10.0
    lam0, lam1 = eigenvalues_exact(decompose(p, L), 2)
    lams = np.linspace(-0.1, lam1 * 1.5, 60)
    counts = [prufer_count(p, L, float(x)) for x in lams]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    d = 1e-6 * max(1.0, lam1)
    assert prufer_count(p, L, lam0 - d) == 0
    assert prufer_count(p, L, lam0 + d) == 1
    assert prufer_count(p, L, lam1 - d) == 1
    assert prufer_count(p, L, lam1 + d) == 2


def test_prufer_counts_capped_potential():
    p = InverseSquareCapped(1.0, 4.0)
    L = 8.0
    r = solve_extrapolated(p, L, n0=512, levels=3)
    gap = r.gap
    assert prufer_count(p, L, r.lambda0 - 0.5 * gap) == 0
    assert prufer_count(p, L, 0.5 * (r.lambda0 + r.lambda1)) == 1
    assert prufer_count(p, L, r.lambda1 + 0.5 * gap) >= 2


@pytest.mark.parametrize("lam", [200.0, 400.0, 1000.0])
def test_prufer_counts_free_interval_high_lambda(lam):
    # the Neumann eigenvalues (k pi / L)^2 below lam are k = 0 .. floor(L sqrt(lam) / pi);
    # with a step bounded only by 0.1 / sqrt(1 + lam) RK4 counted 45, 65 and 185
    L = 10.0
    assert prufer_count(Zero(), L, lam) == math.floor(L * math.sqrt(lam) / math.pi) + 1


@pytest.mark.parametrize("lam, count", [(400.0, 64), (1000.0, 101)])
def test_prufer_counts_capped_high_lambda(lam, count):
    # eigenvalues 63 and 64 lie near 392.5 and 405.0, 100 and 101 near 987.7
    # and 1007.5 (finite-volume grids of 20000 and 40000 cells agree to 0.02);
    # with a step bounded only by 0.1 / sqrt(1 + lam) RK4 counted 65 and 194
    assert prufer_count(InverseSquareCapped(1.0, 4.0), 10.0, lam) == count


def _free_count(lam):
    # the Neumann eigenvalues (k pi)^2 of Zero() at L = 1 below lam
    return math.floor(math.sqrt(lam) / math.pi) + 1


def test_prufer_rejects_huge_lambda():
    # the capped family's RK4 sweep refuses |lam| > 1e12; the exact angle of
    # a piecewise-constant potential takes one step per layer at any lam
    with pytest.raises(ValueError, match="underflow"):
        prufer_count(InverseSquareCapped(1.0, 4.0), 1.0, 2e12)
    start = time.perf_counter()
    assert prufer_count(Zero(), 1.0, 2e12) == _free_count(2e12)
    assert time.perf_counter() - start < 1.0


def test_prufer_step_guard_counts_layer_steps():
    # At a cap of 1e11 (h <= 0.5 / 1e11) the capped sweep would take 2e11
    # steps, about a day at 0.5 us a step, over the limit of 1e9.  At lam =
    # 1e11 and 1e12 RK4 took ceil(2 l |lam - v|) rate steps per layer, weeks
    # at 1e12; the exact angle counts in one step
    start = time.perf_counter()
    with pytest.raises(ValueError, match="underflow"):
        prufer_count(InverseSquareCapped(1.0, 1e11), 1.0, 1.0)
    assert time.perf_counter() - start < 1.0
    for lam in (1e11, 1e12):
        start = time.perf_counter()
        assert prufer_count(Zero(), 1.0, lam) == _free_count(lam)
        assert time.perf_counter() - start < 1.0
    # a thin tall barrier: 2 l v = 2 rate steps under RK4, one layer here
    assert prufer_count(Step(1e7, (0.0, 1e-7)), 10.0, 200.0) == 46


def test_profile_free_is_flat():
    prof = ground_state_profile(Zero(), 3.0, 0.0)
    assert prof.ratio == pytest.approx(1.0, abs=1e-12)
    assert prof.values[0] == 1.0
    np.testing.assert_allclose(prof.values, 1.0, rtol=1e-12)


def test_profile_constant_shift_invariance():
    prof = ground_state_profile(Constant(2.0), 3.0, 2.0)
    assert prof.ratio == pytest.approx(1.0, abs=1e-10)


def test_profile_step_matches_fd_ratio():
    p = Step(1.0, (-0.5, 0.5))
    L = 10.0
    lam0, _ = eigenvalues_exact(decompose(p, L), 2)
    prof = ground_state_profile(p, L, lam0, samples=4097)
    assert math.exp(-4.0 * L * 1.0) < prof.ratio < 1.0
    r = solve_extrapolated(p, L, n0=640, levels=3)
    fd_ratio = r.inf_phi0 / r.sup_phi0
    assert prof.ratio == pytest.approx(fd_ratio, rel=1e-4)


def test_profile_capped_matches_fd_ratio():
    p = InverseSquareCapped(1.0, 4.0)
    L = 8.0
    r = solve_extrapolated(p, L, n0=1024, levels=3)
    prof = ground_state_profile(p, L, r.lambda0, samples=4097)
    assert prof.ratio == pytest.approx(r.inf_phi0 / r.sup_phi0, rel=1e-4)


def test_profile_renormalization_guard():
    # a barrier against the left end makes the left-Neumann solution grow by
    # ~exp(40) before reaching the free region; the 1e15 guard must rescale,
    # keeping samples finite and bounded while the ratio stays meaningful
    p = Step(4.0, (-30.0, -10.0))
    L = 60.0
    lam0, _ = eigenvalues_exact(decompose(p, L), 2)
    prof = ground_state_profile(p, L, lam0, samples=1025)
    assert np.all(np.isfinite(prof.values))
    assert 0.0 < prof.ratio <= 1.0
    assert prof.max_abs < 1e16  # unrescaled growth would reach ~2e17


def _shot_mpmath(layers, lam, xs):
    """u at the sorted points xs of the shot from (u, u') = (1, 0) at -L/2,
    walked layer by layer in mpmath at 30 digits and never rescaled."""
    out = []
    with mpmath.workdps(30):
        u, up, lam = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(lam)
        xs = iter(xs.tolist())
        x = next(xs, None)
        breaks = layers.breaks.tolist()
        for left, right, v in zip(breaks, breaks[1:], layers.values.tolist()):
            xi = lam - v
            r = mpmath.sqrt(abs(xi))

            def cs(t):
                if xi > 0:
                    return mpmath.cos(r * t), mpmath.sin(r * t) / r
                return mpmath.cosh(r * t), mpmath.sinh(r * t) / r

            while x is not None and (x <= right or right == breaks[-1]):
                c, s = cs(x - mpmath.mpf(left))
                out.append(c * u + s * up)
                x = next(xs, None)
            c, s = cs(mpmath.mpf(right) - left)
            u, up = c * u + s * up, -xi * s * u + c * up
        peak = max(abs(a) for a in out)
        return np.array([float(a / peak) for a in out])


@pytest.mark.parametrize("p, lam, rescale_at", [
    (Step(4.0, (-30.0, -10.0)), None, "mid-shot"),
    (Step(9.0, (10.0, 30.0)), 0.1, "after the last piece"),
], ids=["mid-shot", "after-last-piece"])
def test_profile_rescale_matches_unrescaled_shot(p, lam, rescale_at):
    # the walk rescales the state past 1e15 (once here, as named), and each
    # rescale must scale every sample taken before it: the profile over its
    # peak matches the unrescaled mpmath shot over its own
    L = 60.0
    layers = decompose(p, L)
    lam = eigenvalues_exact(layers, 1)[0] if lam is None else lam
    prof = ground_state_profile(p, L, lam)
    want = _shot_mpmath(layers, lam, prof.x)
    assert np.max(np.abs(want)) == 1.0
    np.testing.assert_allclose(prof.values / prof.max_abs, want, rtol=0.0, atol=1e-12)
    # the shot grows past 1e17 in the barrier; rescaled, no sample does
    assert prof.max_abs < 1e16
    if rescale_at == "after the last piece":
        # the state at L/2 is scaled to max(|u|, |u'|) = 1 and u peaks there
        assert prof.max_abs <= 1.0


def test_profile_capped_keeps_count_step_rule():
    # the capped profile's RK4 steps keep the phase count's h |lam - v| <= 1/2
    # (here rate 1e3), so the default 2049 samples read the converged ratio,
    # pinned from 8e5 RK4 steps (4e5 give the same 17 digits)
    prof = ground_state_profile(InverseSquareCapped(1.0, 1e3), 20.0, 0.05306121905652732)
    assert prof.ratio == pytest.approx(1.9185208546470802e-4, rel=1e-4)


def test_profile_detuned_lambda_stays_finite():
    # a wrong eigenvalue guess must not crash the integrator
    prof = ground_state_profile(Step(2.0, (-0.5, 0.5)), 60.0, 0.9, samples=513)
    assert np.all(np.isfinite(prof.values))
    assert 0.0 < prof.ratio <= 1.0


def test_match_value_renormalization_guard():
    # hyperbolic growth through a wide tall barrier (about e^119) passes the
    # walk's 1e15 limit; the rescale keeps D finite with its signs intact
    lay = decompose(Step(9.0, (-25.0, 15.0)), 60.0)
    assert math.isfinite(match_value(lay, 0.1))
    lam0, lam1 = eigenvalues_exact(lay, 2)
    assert 0.0 < lam0 < lam1
    d = 1e-9 * max(1.0, lam1)
    assert match_value(lay, lam0 - d) > 0 > match_value(lay, lam0 + d)


def test_profile_multistep_matches_fd_ratio():
    p = MultiStep((Step(1.2, (-3.0, -1.5)), Step(0.7, (0.5, 2.0))))
    L = 8.0
    lam0, _ = eigenvalues_exact(decompose(p, L), 2)
    prof = ground_state_profile(p, L, lam0, samples=4097)
    r = solve_extrapolated(p, L, n0=1024, levels=3)
    assert prof.ratio == pytest.approx(r.inf_phi0 / r.sup_phi0, rel=1e-4)


@pytest.mark.xfail(strict=True, reason="a single shot from the left end picks up "
                   "the growing mode in deep tunneling")
def test_profile_follows_deep_tunneling():
    # suite seed 159 case 10: the profile reads 0.0 at the exact lambda0 and
    # 4.9e-24 at the solver's, against the solver's inf/sup phi0 of 3.5e-27
    p = Step(2.331495070458611, (-15.197894751115527, 23.76147902369693))
    L = 51.56692688606229
    lam0, _ = eigenvalues_exact(decompose(p, L), 2)
    r = solve_extrapolated(p, L, n0=3301, levels=3)
    prof = ground_state_profile(p, L, lam0)
    assert prof.ratio == pytest.approx(r.inf_phi0 / r.sup_phi0, rel=0.05, abs=0.0)


def test_profile_input_validation():
    with pytest.raises(ValueError):
        ground_state_profile(Zero(), -1.0, 0.0)
    with pytest.raises(ValueError):
        ground_state_profile(Zero(), 1.0, 0.0, samples=4)


_STEP = Step(1.0, (-0.5, 0.5))
_CAPPED = InverseSquareCapped(1.0, 4.0)


@pytest.mark.parametrize("call, match", [
    (lambda: prufer_count(_STEP, 10.0, math.nan), "lambda must be finite, got nan"),
    (lambda: prufer_count(_CAPPED, 10.0, -math.inf), "lambda must be finite, got -inf"),
    (lambda: ground_state_profile(_STEP, 10.0, math.nan), "lambda must be finite, got nan"),
    (lambda: ground_state_profile(_CAPPED, 10.0, math.inf), "lambda must be finite, got inf"),
    (lambda: match_value(decompose(_STEP, 10.0), math.nan), "lambda must be finite, got nan"),
    # RK4 over 2e9 steps: the capped profile keeps the phase count's limits
    (lambda: ground_state_profile(_CAPPED, 10.0, 1e14), "underflow at lam=100000000000000.0"),
    # sqrt(1e300) * 1 / 350 pieces in one layer
    (lambda: match_value(decompose(Step(1e300, (0.0, 1.0)), 2.0), 0.0), "too opaque"),
], ids=["count-nan", "count-capped-inf", "profile-nan", "profile-capped-inf", "match-nan",
        "profile-capped-1e14", "match-1e300-barrier"])
def test_oracle_refuses_at_once(call, match):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=match):
        call()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p, L", [
    (Step(1e4, (2.0, 10.0)), 20.0),
    (Step(100.0, (-35.0, 45.0)), 90.0),
])
def test_profile_through_opaque_barrier(p, L):
    # sqrt(v - lam) l is about 800 in the barrier, where cosh overflows a
    # double: the layer is walked in pieces, renormalized between them
    prof = ground_state_profile(p, L, 0.05)
    assert np.all(np.isfinite(prof.values))
    assert 0.0 <= prof.ratio <= 1.0
    assert math.isfinite(match_value(decompose(p, L), 0.05))


_EPS = 2.0 ** -52
# xi t^2 from 0 through the old Taylor band |xi t^2| <= 1e-10, its edges, to 1e4
_XI_T2 = [0.0] + [sign * z for sign in (1.0, -1.0) for z in (
    1e-300, 1e-30, 1e-12, 1e-10 * (1 - 1e-9), 1e-10, 1e-10 * (1 + 1e-9), 1e-8,
    1e-2, 1.0, 30.0, 1e4,
)]


def _transfer(xi, t):
    """(c, s) of the propagator and the condition 1 + sqrt(|xi|) t at the
    working mpmath precision."""
    x = mpmath.sqrt(abs(mpmath.mpf(xi))) * t
    if xi > 0:
        c, s = mpmath.cos(x), mpmath.sin(x) / x * t
    elif xi < 0:
        c, s = mpmath.cosh(x), mpmath.sinh(x) / x * t
    else:
        c, s = mpmath.mpf(1), mpmath.mpf(t)
    return c, s, 1.0 + float(x)


@pytest.mark.parametrize("t", [1e-3, 0.7, 3.0, 50.0])
def test_layer_transfer_matches_40_digits(t):
    # One _cs serves doubles (math), sample arrays (numpy) and the secant's
    # 30-digit mpmath.  Each stays within 2 eps, times 1 + sqrt(|xi|) t for
    # the rounding of the argument, of the 40-digit value.
    for z in _XI_T2:
        xi = z / (t * t)
        with mpmath.workdps(40):
            c, s, cond = _transfer(xi, t)
            got = [oracle._cs(xi, t)]
            got += [tuple(float(a[1]) for a in np.broadcast_arrays(
                *oracle._cs(xi, np.array([0.0, t]), np)))]
            for gc, gs in got:
                assert abs(gc - c) <= 2 * _EPS * cond * abs(c), (z, t)
                assert abs(gs - s) <= 2 * _EPS * cond * abs(s), (z, t)
            with mpmath.workdps(30):
                gc, gs = oracle._cs(mpmath.mpf(xi), t, mpmath)
            assert abs(gc - c) <= 1e-28 * cond * abs(c), (z, t)
            assert abs(gs - s) <= 1e-28 * cond * abs(s), (z, t)


def _mpf(x):
    """A double or long double as an mpf, exactly."""
    num, den = x.as_integer_ratio()
    return mpmath.mpf(num) / den


_LONG_EPS = float(np.finfo(np.longdouble).eps)
_needs_long_double = pytest.mark.skipif(
    not oracle._LONG_STEP, reason="long double is no wider than double here"
)


@_needs_long_double
@pytest.mark.parametrize("t", [1e-3, 0.7, 3.0, 50.0])
def test_layer_transfer_long_double_matches_40_digits(t):
    # _cs on a long-double xi, as the last secant step walks D, stays within
    # 2 long-double eps, times 1 + sqrt(|xi|) t, of the 40-digit value, as
    # a double does within 2 eps (1.07 long-double eps at worst on x87)
    for z in _XI_T2:
        xi = z / (t * t)
        with mpmath.workdps(40):
            c, s, cond = _transfer(xi, t)
            gc, gs = (_mpf(np.longdouble(a)) for a in oracle._cs(np.longdouble(xi), t, np))
            assert abs(gc - c) <= 2 * _LONG_EPS * cond * abs(c), (z, t)
            assert abs(gs - s) <= 2 * _LONG_EPS * cond * abs(s), (z, t)


def test_match_value_constant_changes_sign_continuously():
    # For Constant(c), D(lam) is -sqrt(xi) sin(sqrt(xi) L) above c,
    # sqrt(-xi) sinh(sqrt(-xi) L) below and 0 at c, with xi = lam - c.
    # Through lam = c (and the old Taylor band |xi| L^2 <= 1e-10) D stays
    # within 4 eps of it, so its sign flips at c alone and it falls steadily.
    c, L = 2.3, 4.0
    lay = decompose(Constant(c), L)
    steps = [k for j in range(0, 37, 3) for k in (-(2 ** j), 2 ** j)] + [0]
    values = []
    for k in sorted(steps):
        lam = c + k * math.ulp(c)
        xi = lam - c  # exact
        with mpmath.workdps(40):
            r = mpmath.sqrt(abs(mpmath.mpf(xi)))
            want = (-r * mpmath.sin(r * L) if xi > 0 else r * mpmath.sinh(r * L)) if xi else 0
        d = match_value(lay, lam)
        assert abs(d - want) <= 4 * _EPS * abs(want), k
        values.append(d)
    assert all(b < a for a, b in zip(values, values[1:]))


def test_eigenvalues_exact_rejects_higher_counts():
    with pytest.raises(ValueError):
        eigenvalues_exact(decompose(Zero(), 1.0), 3)


def test_cross_method_agreement_quick():
    rng = np.random.default_rng(99)
    for L in (1.0, 5.0, 20.0):
        p = random_lattice_multistep(rng, L)
        lay = decompose(p, L)
        ex0, ex1 = eigenvalues_exact(lay, 2)
        n0 = int(64 * L * max(1, math.ceil(256 / (64 * L))))
        r = solve_extrapolated(p, L, n0=n0, levels=3)
        scale = max(abs(ex1), PI_SQ / L**2)
        assert abs(r.lambda0 - ex0) / scale < 1e-6
        assert abs(r.lambda1 - ex1) / scale < 1e-6


def test_near_degenerate_pair_large_interval():
    # at L = 200 the unit step's gap has closed to ~8e-6 while both
    # eigenvalues sit near pi^2/L^2; the two routes must still agree on the
    # tiny difference
    p = Step(1.0, (-0.5, 0.5))
    L = 200.0
    ex0, ex1 = eigenvalues_exact(decompose(p, L), 2)
    gap_exact = ex1 - ex0
    assert 0.0 < gap_exact < 2e-5
    r = solve_extrapolated(p, L, n0=12800, levels=3)
    assert r.gap == pytest.approx(gap_exact, rel=1e-4)
    # each eigenvalue individually is limited by the bisection floor (~1e-12
    # absolute per level), far below the gap scale
    assert r.lambda0 == pytest.approx(ex0, rel=1e-7, abs=1e-11)


def test_inseparable_pair_is_named():
    # two wells 2 wide, mirror images across a barrier of height 1.7 and
    # length 36: lambda0 and lambda1 split far below an ulp of lambda, so no
    # double separates them
    p = Step(1.7, (-18.0, 18.0))
    with pytest.raises(
        OracleError, match="eigenvalues 0 and 1 are not separable in double precision"
    ):
        eigenvalues_exact(decompose(p, 40.0), 2)


def test_tall_barrier_eigenvalues_in_a_fraction_of_a_second():
    # An 8-wide barrier of height 1e4 at L = 20: each RK4 phase count took
    # ceil(2 l |lam - v|) = 1.6e5 rate steps in the barrier, 2.5 s a call;
    # the exact angle takes one step per layer.  The values are the ones
    # the RK4 counts isolated, bit for bit.
    start = time.perf_counter()
    lams = eigenvalues_exact(decompose(Step(1e4, (2.0, 10.0)), 20.0), 2)
    assert time.perf_counter() - start < 0.5
    assert lams == (0.01710620762950715, 0.15395586808080244)


def test_pair_that_counts_alone_split_is_named(monkeypatch):
    # The inseparable pair above: the exact count jumps from 0 to 2 between
    # `jump` and the next double (the pair's 60-digit root is
    # 0.31630069429751237...).  A count that read 1 within 1e-10 above the
    # jump would split the pair where D, rounding noise across it, cannot:
    # the bracket closes on the pair with count 1 at its upper end, and the
    # count one width above that takes eigenvalue 1 too, which names it.
    layers = decompose(Step(1.7, (-18.0, 18.0)), 40.0)
    jump = 0.31630069429751234
    count = oracle._count_from_layers
    assert (count(layers, jump), count(layers, math.nextafter(jump, 1.0))) == (0, 2)
    monkeypatch.setattr(oracle, "_count_from_layers",
                        lambda lay, lam: count(lay, lam) - (jump < lam <= jump + 1e-10))
    with pytest.raises(
        OracleError, match="eigenvalues 0 and 1 are not separable in double precision"
    ):
        eigenvalues_exact(layers, 2)


def test_pair_isolated_by_counts_alone_in_d_noise_is_named(monkeypatch):
    # The inseparable pair again, with counts that read 1 across a band of
    # 1e-9 around it, the band's middle, its lower or upper end on the
    # pair.  D is rounding noise all across the band (it reads some +-50
    # against a rounding bound of 1e4), and its signs once happened to pass
    # for isolation: the oracle returned two values some 1e-9 apart for a
    # pair split by about 1e-19.  An end's sign now counts only beyond D's
    # rounding bound, so the bracket narrows onto the band's lower end and
    # the pair is named.
    layers = decompose(Step(1.7, (-18.0, 18.0)), 40.0)
    jump = 0.31630069429751234
    count = oracle._count_from_layers
    for below in (5e-10, 1e-9, 0.0):
        band = (jump - below, jump + 1e-9 - below)
        with monkeypatch.context() as m:
            m.setattr(oracle, "_count_from_layers",
                      lambda lay, lam: 1 if band[0] < lam <= band[1] else count(lay, lam))
            with pytest.raises(OracleError, match="eigenvalues 0 and 1 are not separable "
                               "in double precision: D lies within its rounding error"):
                eigenvalues_exact(layers, 2)


def test_close_pair_isolated_relative_to_its_eigenvalues():
    # A barrier of 1e3 across the centre and a bump of 1e-6 in the right
    # well split the wells' pair by 5.7e-8 at lambda ~ 0.12, which double
    # precision separates by nine orders.  The Rayleigh ceiling starts the
    # bracket near 300; a tolerance taken from that ceiling (3e-7) once
    # reported the pair as not separable.  The finite-difference solver
    # agrees to its discretization error.
    p = MultiStep((Step(1e3, (-0.5, 0.5)), Step(1e-6, (1.0, 2.0))))
    ex0, ex1 = eigenvalues_exact(decompose(p, 10.0), 2)
    assert 5e-8 < ex1 - ex0 < 6e-8
    r = solve_extrapolated(p, 10.0, n0=640)
    assert r.lambda0 == pytest.approx(ex0, rel=1e-8)
    assert r.lambda1 == pytest.approx(ex1, rel=1e-8)


def _mp_root(layers, guess, width):
    """Zero of D within ``width`` of ``guess`` for the propagator
    match_value applies (the same double layer lengths and heights), with
    xi = lam - v and cos/sin/cosh/sinh at the working mpmath precision."""
    mp = mpmath.mp
    ells = [mp.mpf(float(ell)) for ell in np.diff(layers.breaks)]
    heights = [mp.mpf(float(v)) for v in layers.values]

    def d(lam):
        u, up = mp.mpf(1), mp.mpf(0)
        for ell, v in zip(ells, heights):
            xi = lam - v
            if xi > 0:
                r = mp.sqrt(xi)
                c, s = mp.cos(r * ell), mp.sin(r * ell) / r
            elif xi < 0:
                r = mp.sqrt(-xi)
                c, s = mp.cosh(r * ell), mp.sinh(r * ell) / r
            else:
                c, s = mp.mpf(1), ell
            u, up = c * u + s * up, -xi * s * u + c * up
        return up

    a, b = mp.mpf(guess) - width, mp.mpf(guess) + width
    assert d(a) * d(b) < 0, f"no zero of D within {width!r} of {guess!r}"
    return mp.findroot(d, (a, b), solver="anderson", verify=False)


_OFF_LATTICE = st.builds(
    lambda seed, L: (random_multistep(np.random.default_rng(seed), L), L),
    st.integers(0, 2**32 - 1),
    st.floats(0.5, 100.0),
)


@settings(max_examples=25, deadline=None)
@given(_OFF_LATTICE)
def test_eigenvalues_exact_matches_mp_root(case):
    # Each eigenvalue lies within 4 units of a 40-digit root of the same
    # propagator.  The unit is the ulp of the largest |xi| = |lam - v_j| (or
    # of |lam| if larger): D rounds each xi_j to a double, which alone moves
    # its zero by up to half an ulp of the largest, because the weights
    # dlam/dv_j are >= 0 and sum to 1.  Against the ulp of lam alone, lam0 =
    # 0.485 under a barrier of height 2.2 sits 6.8 ulp from the root,
    # whichever bisection narrows the bracket.
    p, L = case
    layers = decompose(p, L)
    heights = layers.values.tolist()
    with mpmath.workdps(40):
        for lam in eigenvalues_exact(layers, 2):
            unit = math.ulp(max([abs(lam)] + [abs(lam - v) for v in heights]))
            root = _mp_root(layers, lam, 64 * unit)
            assert abs(mpmath.mpf(lam) - root) <= 4 * unit


# Draws the sign of D alone placed too far from the root: 8.0 units for the
# first, whose D in double is rounding noise over about +-20 ulp around
# lambda1.  In the second, RK4 steps that straddled the breaks counted 2 from
# lam ~ 0.07405, below the true lambda1 = 0.0745099352.  The third has wells
# 1.88857 and 1.88820 wide across a barrier 36.7 long: the detuning splits
# lambda0 and lambda1 by 9.2e-5, and the oracle once called them
# inseparable.  The next two are barriers 1e-6 and 1e-7 wide that steps of
# 1e-2 straddled: their counts read 1 below lambda0, and the oracle raised.
# In the last, a barrier 80 wide at height 100, cosh(sqrt(100 - lam) 80)
# overflows a double and the oracle raised OverflowError; D now walks it in
# pieces.
_HARD_DRAWS = [
    (Step(0.10774960509288478, (-20.58769893096204, 8.75542553603783)), 46.0),
    (MultiStep((
        Step(0.7425724426172284, (-14.8804573772953, -13.97882075091265)),
        Step(1.050948135398843, (4.776519219772329, 10.359228302669493)),
        Step(1.3554134339018993, (12.324501085561408, 16.537699511767617)),
    )), 36.44577387190868),
    (Step(1.7057922268019161, (-18.345257886888966, 18.34562563409414)),
     40.46765440803851),
    (Step(1e6, (0.0, 1e-6)), 10.0),
    (Step(1e7, (0.0, 1e-7)), 10.0),
    (Step(100.0, (-35.0, 45.0)), 90.0),
]
for _case in GOLDEN_PIECEWISE + _HARD_DRAWS:
    test_eigenvalues_exact_matches_mp_root = example(_case)(
        test_eigenvalues_exact_matches_mp_root
    )


def _final_brackets(layers):
    """The brackets [a, b] whose last secant step places each eigenvalue."""
    brackets = []
    step = oracle._secant_step

    def recorded(lay, a, b):
        brackets.append((a, b))
        return step(lay, a, b)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_secant_step", recorded)
        m.setattr(oracle, "_long_secant_step", lambda lay, a, b: None)
        eigenvalues_exact(layers, 2)
    return brackets


@settings(max_examples=25, deadline=None)
@given(_OFF_LATTICE)
def test_long_double_step_returns_the_mpmath_bits(case):
    # The secant step on D in long double returns a double only where its
    # error bound rounds to that double alone, and then it is the 30-digit
    # step's double, bit for bit.  Golden case 0's lambda0, both roots of
    # hard draws 2-4 and lambda0 of draw 5 fall back to mpmath, so the
    # examples cover both paths.
    p, L = case
    layers = decompose(p, L)
    for a, b in _final_brackets(layers):
        fast = oracle._long_secant_step(layers, a, b)
        assert fast is None or fast == oracle._secant_step(layers, a, b), (a, b)


for _case in GOLDEN_PIECEWISE + _HARD_DRAWS:
    test_long_double_step_returns_the_mpmath_bits = example(_case)(
        test_long_double_step_returns_the_mpmath_bits
    )


def _d_error_over_bound(layers, lam, lib):
    """|D - D_50| / bound for the walk in ``lib`` at lam, D_50 from a
    50-digit walk on the same pieces, xi and rescaling factors."""
    pieces = list(oracle._pieces(layers, lam))
    walk = list(oracle._walk(layers, lam, lib, bound=True))
    with mpmath.workdps(50):
        u, up = mpmath.mpf(1), mpmath.mpf(0)
        for (_, ell, _), (_, xi, _, _, inv, _) in zip(pieces, walk):
            xi = _mpf(xi)
            c, s = oracle._cs(xi, ell, mpmath)
            u, up = (c * u + s * up) * inv, (-xi * s * u + c * up) * inv
        _, _, _, d, _, bound = walk[-1]
        return float(abs(_mpf(d) - up) / _mpf(bound))


@pytest.mark.parametrize("lib", [math, pytest.param(np, marks=_needs_long_double)],
                         ids=["double", "long_double"])
def test_d_rounding_bound_holds(lib):
    # D's rounding bound, in double and in long double, exceeds D's error
    # against a 50-digit walk on the same xi at both ends and the midpoint
    # of every final bracket, where D is smallest against its terms.  The
    # largest error read 0.20 of the double bound and 0.26 of the
    # long-double one over the golden cases, the hard draws and 30 random
    # multisteps.
    rng = np.random.default_rng(2024)
    cases = GOLDEN_PIECEWISE + _HARD_DRAWS
    for _ in range(30):
        L = float(np.exp(rng.uniform(math.log(0.5), math.log(100.0))))
        cases.append((random_multistep(rng, L), L))
    arith = float if lib is math else np.longdouble
    for p, L in cases:
        layers = decompose(p, L)
        for a, b in _final_brackets(layers):
            for lam in (a, 0.5 * (a + b), b):
                assert _d_error_over_bound(layers, arith(lam), lib) <= 0.5, (p, L, lam)


def test_mpmath_fallback_returns_the_same_bits(monkeypatch):
    # With every long-double step refused, each root takes the 30-digit
    # step, and no bit moves
    cases = GOLDEN_PIECEWISE + _HARD_DRAWS
    fast = [eigenvalues_exact(decompose(p, L), 2) for p, L in cases]
    monkeypatch.setattr(oracle, "_long_secant_step", lambda layers, a, b: None)
    assert [eigenvalues_exact(decompose(p, L), 2) for p, L in cases] == fast


@_needs_long_double
def test_eigenvalues_exact_mpmath_step_budget(monkeypatch):
    # The long-double step decides 17 of the golden cases' 18 roots.  Only
    # case 0's lambda0 takes the 30-digit step: its secant point lies 0.007
    # ulp from a rounding boundary, inside its bound of 0.06 ulp.  A bound
    # that grows, or a long-double step that no longer runs, fails here.
    calls = [0]
    step = oracle._secant_step

    def counted(layers, a, b):
        calls[0] += 1
        return step(layers, a, b)

    monkeypatch.setattr(oracle, "_secant_step", counted)
    for p, L in GOLDEN_PIECEWISE:
        eigenvalues_exact(decompose(p, L), 2)
    assert calls[0] <= 1


def test_eigenvalues_exact_phase_budget(monkeypatch):
    # Bisecting on RK4 phase counts down to the 1e-9 stopping width takes 64
    # phase sweeps per call.  Counts now only isolate each eigenvalue and
    # the sign of D decides the remaining midpoints; the count below zero is
    # 0 without a sweep, and eigenvalue 1 starts where eigenvalue 0 ended:
    # the golden cases take 4-14.  The counts are deterministic: a change
    # that loses the switch to D fails here.
    calls = [0]
    theta = kernels.prufer_theta_piecewise

    def counted(*args):
        calls[0] += 1
        return theta(*args)

    monkeypatch.setattr(kernels, "prufer_theta_piecewise", counted)
    for p, L in GOLDEN_PIECEWISE:
        calls[0] = 0
        eigenvalues_exact(decompose(p, L), 2)
        assert calls[0] <= 14, (p, L)


def test_eigenvalues_exact_d_budget(monkeypatch):
    # Bisection on the sign of D from isolation down to 1e-13 relative took
    # 89-92 double evaluations of D per call on the golden cases.  Bracketed
    # secant steps (Anderson-Bjorck, clamped inside the bracket, bisecting
    # where three steps did not halve it) take 17-30, the two isolation
    # checks per eigenvalue included, and eigenvalue 1 starts from the end
    # that isolated eigenvalue 0, where D is known beyond rounding.  The
    # last step's walks, two in long double and two more in mpmath where
    # it falls back, are not double walks and are not counted.
    calls = [0]
    walk = oracle._walk

    def counted(layers, lam, lib=math, **kwargs):
        calls[0] += lib is math
        return walk(layers, lam, lib, **kwargs)

    monkeypatch.setattr(oracle, "_walk", counted)
    for p, L in GOLDEN_PIECEWISE:
        calls[0] = 0
        eigenvalues_exact(decompose(p, L), 2)
        assert calls[0] <= 30, (p, L)


def test_eigenvalues_exact_counts_each_shift_once(monkeypatch):
    # Within one call no count is taken below zero (v >= 0 makes it 0) and
    # no shift is counted twice: each bracket hands its ends' counts on.
    count = oracle._count_from_layers
    shifts = []

    def recorded(lay, lam):
        shifts.append(lam)
        return count(lay, lam)

    monkeypatch.setattr(oracle, "_count_from_layers", recorded)
    for p, L in GOLDEN_PIECEWISE:
        shifts.clear()
        eigenvalues_exact(decompose(p, L), 2)
        assert shifts and min(shifts) >= 0.0, (p, L)
        assert len(set(shifts)) == len(shifts), (p, L)


def test_eigenvalues_exact_ignores_miscount_near_eigenvalue(monkeypatch):
    # RK4 truncation can move a count transition off the eigenvalue.  A
    # count one too high just below each eigenvalue must not move a result:
    # the counts stop deciding midpoints once the bracket isolates the
    # eigenvalue, long before a midpoint comes that close.
    count = oracle._count_from_layers
    for p, L in GOLDEN_PIECEWISE:
        layers = decompose(p, L)
        exact = eigenvalues_exact(layers, 2)
        width = 1e-6 * max(1.0, layers.max_value() + 4.0 * (math.pi / L) ** 2)

        def miscount(lay, lam):
            below = any(ev - width < lam < ev for ev in exact)
            return count(lay, lam) + below

        with monkeypatch.context() as m:
            m.setattr(oracle, "_count_from_layers", miscount)
            assert eigenvalues_exact(layers, 2) == exact, (p, L)


def test_eigenvalues_exact_checks_isolation_with_d(monkeypatch):
    # A count one too low above lam1 still reads "above lam0", so a
    # bisection for lam0 that trusted the counts alone would take a bracket
    # holding lam0 and lam1 as isolating.  D has the same sign at both of
    # its ends, so the counts keep deciding until the bracket holds lam0
    # alone, and lam0 comes out unchanged.
    count = oracle._count_from_layers
    hit = 0
    for p, L in GOLDEN_PIECEWISE:
        layers = decompose(p, L)
        lam0, lam1 = eigenvalues_exact(layers, 2)
        calls = []

        def miscount(lay, lam):
            c = count(lay, lam)
            calls.append(c)
            return c - 1 if c == 2 else c

        with monkeypatch.context() as m:
            m.setattr(oracle, "_count_from_layers", miscount)
            assert eigenvalues_exact(layers, 1) == (lam0,), (p, L)
        hit += 2 in calls
    assert hit > 0  # some bisection for lam0 counted a shift above lam1


@pytest.mark.parametrize("cap", [0, 1])
def test_count_that_does_not_bracket_raises(monkeypatch, cap):
    # counts capped at `cap` never reach cap + 1 below the ceiling
    count = oracle._count_from_layers
    monkeypatch.setattr(
        oracle, "_count_from_layers", lambda lay, lam: min(cap, count(lay, lam))
    )
    with pytest.raises(OracleError, match=f"does not bracket eigenvalue {cap}"):
        eigenvalues_exact(decompose(Step(1.0, (-0.5, 0.5)), 10.0), 2)


def test_counts_that_never_isolate_raise(monkeypatch):
    # Counts that jump from 0 to 2 at a point m between lam0 and lam1, with
    # a count of 1 only within 1e-6 above m, narrow the bracket onto m.  D
    # has one sign on both sides of m, so no bracket isolates eigenvalue 0.
    layers = decompose(Step(1.0, (-0.5, 0.5)), 10.0)
    lam0, lam1 = eigenvalues_exact(layers, 2)
    m = 0.5 * (lam0 + lam1)
    monkeypatch.setattr(
        oracle, "_count_from_layers", lambda lay, lam: (lam > m) + (lam > m + 1e-6)
    )
    with pytest.raises(OracleError, match="phase counts do not isolate eigenvalue 0"):
        eigenvalues_exact(layers, 2)
