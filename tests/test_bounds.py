import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab import (
    Constant,
    Grid,
    InverseSquareCapped,
    IntervalNorms,
    Step,
    TolerancePolicy,
    Zero,
    gap_lower_bound,
    harnack_floor,
    inf_lower_bound,
    interval_norms,
    kirsch_comparison_bound,
    lambda0_upper_bounds,
    log_derivative_check,
    solve_extrapolated,
    sup_upper_bound,
    verify,
)

mpmath.mp.dps = 50


def mpf(x):
    return mpmath.mpf(x)


def norms(l1=0.0, sup=0.0, c=None):
    return IntervalNorms(l1, sup, c)


# frozen against the 50-digit oracle: exp(-8*L*l1) * pi^2 / L^2
@pytest.mark.parametrize(
    "l1,L",
    [(0.0, 1.0), (0.1, 1.0), (1.0, 10.0), (0.5, 2.0)],
)
def test_gap_lower_bound_against_extended_precision(l1, L):
    expected = float(mpmath.exp(-8 * mpf(L) * mpf(l1)) * mpmath.pi**2 / mpf(L) ** 2)
    got = gap_lower_bound(norms(l1=l1), L)
    assert got.value == pytest.approx(expected, rel=1e-14)
    assert got.log == pytest.approx(
        float(mpmath.log(mpmath.pi**2 / mpf(L) ** 2) - 8 * mpf(L) * mpf(l1)), rel=1e-14
    )


def test_gap_lower_bound_reference_numbers():
    assert gap_lower_bound(norms(), 1.0).value == pytest.approx(9.8696044, abs=1e-6)
    assert gap_lower_bound(norms(l1=0.1), 1.0).value == pytest.approx(4.434699, abs=1e-5)
    assert gap_lower_bound(norms(l1=1.0), 10.0).value == pytest.approx(1.78e-36, rel=1e-2)


@pytest.mark.parametrize("l1,L", [(0.0, 3.0), (0.5, 2.0), (1.0, 10.0)])
def test_harnack_floor_values(l1, L):
    expected = float(mpmath.exp(-4 * mpf(L) * mpf(l1)))
    assert harnack_floor(norms(l1=l1), L).value == pytest.approx(expected, rel=1e-14)


def test_inf_lower_bound_values():
    assert inf_lower_bound(norms(), 4.0).value == pytest.approx(0.5, rel=1e-15)
    expected = float(mpmath.exp(-1) )
    assert inf_lower_bound(norms(l1=0.25), 1.0).value == pytest.approx(expected, rel=1e-14)


def test_exponential_bounds_underflow_to_log_space():
    b = inf_lower_bound(norms(l1=1.0), 100.0)  # exp(-400)/10: tiny but representable
    assert b.value == pytest.approx(
        float(mpmath.exp(-400) / 10), rel=1e-12
    )
    assert b.log == pytest.approx(-400.0 - 0.5 * math.log(100.0), rel=1e-14)
    # exp(-800) is below the subnormal range: value underflows, log stays exact
    u = inf_lower_bound(norms(l1=2.0), 100.0)
    assert u.value == 0.0
    assert u.log == pytest.approx(-800.0 - 0.5 * math.log(100.0), rel=1e-14)
    g = gap_lower_bound(norms(l1=8.0), 100.0)
    assert g.value == 0.0 and math.isfinite(g.log)


def test_sup_upper_bound_values():
    assert sup_upper_bound(0.0, 1.0) == pytest.approx(1.0 + 2.0 * math.pi, rel=1e-15)
    assert sup_upper_bound(0.0, 4.0) == pytest.approx((1.0 + 2.0 * math.pi) / 2.0, rel=1e-15)
    # 1 + sqrt(4 pi^2 + 16) = 8.44838... per the 50-digit oracle
    expected = float(1 + mpmath.sqrt(4 * mpmath.pi**2 + 16))
    assert sup_upper_bound(1.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert sup_upper_bound(1.0, 1.0) == pytest.approx(8.44838, abs=1e-5)
    with pytest.raises(ValueError):
        sup_upper_bound(-1.0, 1.0)


def test_lambda0_upper_bounds_zero_case():
    p = Zero()
    out = lambda0_upper_bounds(p, interval_norms(p, 2.0), 2.0)
    assert out["l1_over_L"] == 0.0
    assert out["quarter_tail"] == pytest.approx(PI_SQ := math.pi**2, rel=1e-15)
    assert out["decay"] == pytest.approx(PI_SQ, rel=1e-15)  # C = 0: 4 pi^2 / L^2


def test_lambda0_upper_bounds_step_case():
    p = Step(1.0, (-0.5, 0.5))
    out = lambda0_upper_bounds(p, interval_norms(p, 10.0), 10.0)
    assert out["l1_over_L"] == pytest.approx(0.1, rel=1e-15)
    # the step's support misses (2.5, 5), so only the free term remains
    assert out["quarter_tail"] == pytest.approx(math.pi**2 / 25.0, rel=1e-15)
    assert out["quarter_tail"] == pytest.approx(0.3948, abs=1e-4)
    assert "decay" not in out  # support contains the origin


def test_lambda0_upper_bounds_capped_case():
    p = InverseSquareCapped(1.0, 4.0)
    out = lambda0_upper_bounds(p, interval_norms(p, 8.0), 8.0)
    expected = float((4 * mpmath.pi**2 + 16) / 64)
    assert out["decay"] == pytest.approx(expected, rel=1e-14)
    assert out["decay"] == pytest.approx(0.8669, abs=1e-4)


def test_kirsch_comparison_bound_values():
    assert kirsch_comparison_bound(1.0, 1.0, math.pi) == pytest.approx(1.0, rel=1e-15)
    assert kirsch_comparison_bound(0.5, 1.0, 1.0) == pytest.approx(
        math.pi**2 / 4.0, rel=1e-15
    )
    with pytest.raises(ValueError):
        kirsch_comparison_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        kirsch_comparison_bound(2.0, 1.0, 1.0)


def test_policy_validation():
    for eps_rel in (0.0, -1e-8, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and > 0"):
            TolerancePolicy(eps_rel=eps_rel)
    pol = TolerancePolicy()
    assert pol.allowance(1.0, 2.0, 0.5) == pytest.approx(2e-8 + 0.5)


def test_log_derivative_flat_profile():
    out = log_derivative_check(np.full(64, 2.0), Grid(0.64, 64), norms(l1=1.0))
    assert out.name == "logderiv_le_four_l1"
    assert out.measured == 0.0
    assert out.bound == 4.0
    assert out.status == "holds"


def test_log_derivative_rejects_bad_input():
    phi = np.ones(16)
    phi[5] = -1.0
    with pytest.raises(ValueError):
        log_derivative_check(phi, Grid(1.6, 16), norms())
    with pytest.raises(ValueError):
        log_derivative_check(np.ones(15), Grid(1.6, 16), norms())


def test_log_derivative_uses_node_spacing():
    # phi = exp(x) has phi'/phi = 1; on a grid with unequal cells the
    # difference over the node spacing still reads 1 to O(h^2), and the
    # allowance takes the largest width
    grid = Grid(2.0, 40, (-0.5, 0.25), (5, 30, 5))
    x = grid.nodes()
    out = log_derivative_check(np.exp(x), grid, norms(l1=1.0, sup=1.0))
    assert out.measured == pytest.approx(1.0, abs=0.05)
    assert grid.h == pytest.approx(0.15)
    assert out.allowance == pytest.approx(1e-8 * 5.0 + 0.5 * 0.15 + 20.0 * 0.15**2)


def test_log_derivative_skips_unresolved_floor():
    # a deep-tunneling profile: the middle sits at the resolution floor where
    # difference quotients measure rounding, not the function
    phi = np.full(200, 1e-16)
    phi[:50] = np.geomspace(1.0, 1e-16, 50)
    phi[-50:] = np.geomspace(1e-16, 1.0, 50)
    out = log_derivative_check(phi, Grid(2.0, 200), norms(l1=100.0, sup=3.0), lam0=0.1)
    assert math.isfinite(out.measured)


def test_eps_rel_widens_log_derivative_allowance():
    # the policy's eps_rel reaches the log-derivative check like every other
    p, L = Step(1.0, (-0.5, 0.5)), 4.0
    r = solve_extrapolated(p, L, n0=256, levels=3)
    base = verify(p, L, r).check("logderiv_le_four_l1")
    wide = verify(p, L, r, TolerancePolicy(eps_rel=1e-3)).check("logderiv_le_four_l1")
    assert (wide.measured, wide.bound) == (base.measured, base.bound)
    assert wide.allowance - base.allowance == pytest.approx(
        (1e-3 - 1e-8) * (1.0 + base.bound), rel=1e-9
    )


def test_verify_zero_all_hold_with_sharp_slacks():
    for L in (1.0, 2.0):
        r = solve_extrapolated(Zero(), L, n0=256, levels=3)
        rep = verify(Zero(), L, r)
        assert rep.all_hold
        for name in (
            "gap_ge_exp_bound",
            "gap_ge_kirsch_bound",
            "inf_ge_exp_bound",
            "ratio_ge_harnack_floor",
        ):
            c = rep.check(name)
            assert c.status == "holds"
            assert abs(c.slack) <= 1e-9 * max(abs(c.bound), 1e-300)


def test_verify_constant_shift_covariance():
    L, c = 2.0, 3.0
    r0 = solve_extrapolated(Zero(), L, n0=256, levels=3)
    rc = solve_extrapolated(Constant(c), L, n0=256, levels=3)
    assert rc.gap == pytest.approx(r0.gap, rel=1e-9)
    b0 = verify(Zero(), L, r0).check("gap_ge_exp_bound")
    bc = verify(Constant(c), L, rc).check("gap_ge_exp_bound")
    assert bc.bound == pytest.approx(b0.bound * math.exp(-8.0 * L * c * L), rel=1e-12)
    assert b0.status == bc.status == "holds"


def test_verify_marks_inapplicable_but_never_drops():
    p = Step(1.0, (-0.5, 0.5))  # support contains 0: no decay constant
    r = solve_extrapolated(p, 4.0, n0=256, levels=3)
    rep = verify(p, 4.0, r)
    assert len(rep.checks) == 11
    assert rep.check("sup_le_decay_bound").status == "inapplicable"
    assert rep.check("lambda0_le_decay_bound").status == "inapplicable"
    passed, total = rep.counts
    assert total == 9 and passed == 9
    assert rep.all_hold


def test_verify_ordering_exp_le_kirsch_le_gap():
    for p, L in ((Step(1.0, (-0.5, 0.5)), 6.0), (Step(0.5, (-1.0, 1.0)), 3.0)):
        r = solve_extrapolated(p, L, n0=512, levels=3)
        rep = verify(p, L, r)
        exp_b = rep.check("gap_ge_exp_bound").bound
        kir_b = rep.check("gap_ge_kirsch_bound").bound
        assert exp_b <= kir_b * (1 + 1e-12)
        assert kir_b <= r.gap * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(0.01, 3.0),
    st.floats(0.05, 2.0),
    st.floats(0.3, 20.0),
    st.floats(1.05, 3.0),
)
def test_gap_bound_monotone_in_height(v0, width, L, factor):
    # raising a step's height (fixed support and L) never raises the bound
    half_w = min(width, 0.45 * L)
    lo = interval_norms(Step(v0, (-half_w, half_w)), L)
    hi = interval_norms(Step(v0 * factor, (-half_w, half_w)), L)
    assert gap_lower_bound(hi, L).value <= gap_lower_bound(lo, L).value * (1 + 1e-12)


def test_report_json_stable():
    p = Step(1.0, (-0.5, 0.5))
    r = solve_extrapolated(p, 4.0, n0=256, levels=3)
    rep = verify(p, 4.0, r)
    one = rep.to_json()
    two = rep.to_json()
    assert one == two
    payload = json.loads(one)
    assert list(payload.keys()) == [
        "potential", "L", "norms", "checks_passed", "checks_total", "all_hold", "checks",
    ]
    assert payload["checks"][0]["name"] == "gap_ge_exp_bound"


def test_equality_cases_hold():
    # For flat and near-flat potentials up to seven checks are exact or
    # near-exact equalities: both gap floors, the Harnack and inf floors,
    # sup >= 1/sqrt(L), lambda0 <= ||v||_1 / L and the log-derivative bound.
    # There the allowance alone decides holds against violated, so it must
    # cover the solver's rounding and extrapolation on every grid: from
    # L = 0.05 to 2000 on grids of 64, 256 and 1000 cells, no check may be
    # violated.  These operators are one run of equal rows (two ends and,
    # for the steps, a layer or two), so phi0 comes from the twisted
    # solve's closed form; sup >= 1/sqrt(L) and the inf floor hold with
    # equality for Zero().  The worst share of its allowance that each check
    # used is recorded with the change that last moved it (CHANGES.md); the
    # largest, lambda0 <= ||v||_1 / L for Zero() at L = 440 and 64 cells,
    # used 43%.
    potentials = [Zero(), Constant(0.5), Constant(3.0), Step(1e-9, (-0.1, 0.1)),
                  Step(1e-12, (-0.3, 0.2))]
    for p in potentials:
        for L in np.geomspace(0.05, 2000.0, 15).tolist():
            for n0 in (64, 256, 1000):
                r = solve_extrapolated(p, L, n0=n0, levels=3)
                violated = [c.name for c in verify(p, L, r).checks if c.status == "violated"]
                assert not violated, f"{p!r} at L = {L}, n0 = {n0}: {violated}"
