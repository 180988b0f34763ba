import json
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from gaplab import (
    Constant,
    InverseSquareCapped,
    MultiStep,
    Step,
    Zero,
    break_points,
    evaluate,
    from_dict,
    from_json,
    interval_norms,
    sup_norm_on_interval,
    to_json,
)
from conftest import random_capped, random_multistep


def test_evaluate_zero():
    assert evaluate(Zero(), 0.3) == 0.0


def test_evaluate_step_indicator():
    p = Step(1.0, (-0.5, 0.5))
    assert evaluate(p, 0.0) == 1.0
    assert evaluate(p, 0.7) == 0.0


def test_evaluate_capped_min_of_closed_forms():
    p = InverseSquareCapped(1.0, 4.0)
    assert evaluate(p, 1.0) == 1.0
    assert evaluate(p, 0.1) == 4.0  # 1/0.01 = 100 > 4, cap active
    assert evaluate(p, 0.0) == 4.0


def test_evaluate_vectorized_matches_scalar():
    p = MultiStep((Step(1.0, (-1.0, 0.0)), Step(2.0, (0.0, 1.0))))
    xs = np.linspace(-2, 2, 101)
    vec = evaluate(p, xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert evaluate(p, float(x)) == v


def test_evaluate_multistep_touching_pieces_first_match():
    p = MultiStep((Step(1.0, (-1.0, 0.0)), Step(2.0, (0.0, 1.0))))
    assert evaluate(p, 0.0) == 1.0  # first piece wins at the shared endpoint


def test_norms_zero():
    n = interval_norms(Zero(), 10.0)
    assert n.l1 == 0.0 and n.sup == 0.0 and n.decay_constant == 0.0


def test_norms_step_clipped():
    n = interval_norms(Step(2.0, (-0.25, 0.25)), 1.0)
    assert n.l1 == pytest.approx(1.0, abs=0)
    assert n.sup == 2.0
    # support extending past I only counts the intersection
    n = interval_norms(Step(1.0, (-0.5, 3.0)), 4.0)
    assert n.l1 == pytest.approx(2.5)


def test_norms_capped_closed_form_vs_quadrature():
    p = InverseSquareCapped(1.0, 4.0)
    n = interval_norms(p, 4.0)
    assert n.l1 == pytest.approx(7.0, rel=1e-14)  # 2*(2 + 1.5)
    # adaptive quadrature oracle, split at the cap location x* = 0.5
    val, err = quad(lambda x: evaluate(p, x), -2.0, 2.0, points=[-0.5, 0.5], limit=200)
    assert n.l1 == pytest.approx(val, rel=1e-9)
    assert n.sup == 4.0
    assert n.decay_constant == 1.0


def test_norms_capped_fully_capped_interval():
    p = InverseSquareCapped(4.0, 1.0)  # x* = 2
    n = interval_norms(p, 2.0)  # I = (-1, 1) inside the cap
    assert n.l1 == pytest.approx(2.0, rel=1e-14)
    assert n.sup == 1.0


def test_decay_constant_rules():
    assert interval_norms(Step(2.0, (1.0, 3.0)), 10.0).decay_constant == pytest.approx(18.0)
    assert interval_norms(Step(2.0, (-1.0, 3.0)), 10.0).decay_constant is None
    assert interval_norms(Step(0.0, (-1.0, 3.0)), 10.0).decay_constant == 0.0
    assert interval_norms(Constant(1.0), 5.0).decay_constant is None
    assert interval_norms(Constant(0.0), 5.0).decay_constant == 0.0
    m = MultiStep((Step(1.0, (-3.0, -1.0)), Step(2.0, (2.0, 4.0))))
    assert interval_norms(m, 10.0).decay_constant == pytest.approx(32.0)
    m = MultiStep((Step(1.0, (-3.0, -1.0)), Step(2.0, (-0.5, 4.0))))
    assert interval_norms(m, 10.0).decay_constant is None


def _segments(p, L):
    half = 0.5 * L
    cuts = {-half, half, *break_points(p, L)}
    if isinstance(p, InverseSquareCapped):
        # octave grading: the x^-2 tail has a fast-growing 4th derivative, so
        # balance the per-segment Simpson error by doubling segment lengths
        xstar = math.sqrt(p.decay / p.cap)
        x = xstar
        while x < half:
            cuts.add(x)
            cuts.add(-x)
            x *= 2.0
    return sorted(cuts)


def _simpson_l1(p, L, total_panels=10_000):
    """Composite Simpson with panels aligned to the potential's breakpoints."""
    segs = _segments(p, L)
    total = 0.0
    for a, b in zip(segs, segs[1:]):
        m = max(64, int(math.ceil(total_panels * (b - a) / L)))
        xs = np.linspace(a, b, 2 * m + 1)
        # segment endpoints sit exactly on step edges, where the closed
        # support convention returns the piece value; sample the interior
        nudge = (b - a) * 1e-12
        xs[0] += nudge
        xs[-1] -= nudge
        ys = evaluate(p, xs)
        h = (b - a) / (2 * m)
        total += h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-2:2].sum())
    return total


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 60.0))
def test_l1_matches_simpson_quadrature(seed, L):
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 == 0 else random_capped(rng)
    n = interval_norms(p, L)
    approx = _simpson_l1(p, L)
    assert approx == pytest.approx(n.l1, rel=1e-6, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 40.0), st.floats(1.01, 4.0))
def test_l1_monotone_in_length(seed, L, factor):
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L * factor) if seed % 2 == 0 else random_capped(rng)
    a = interval_norms(p, L).l1
    b = interval_norms(p, L * factor).l1
    assert b >= a - 1e-12 * max(1.0, abs(b))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.0, 50.0))
def test_decay_constant_dominates_pointwise(seed, L):
    rng = np.random.default_rng(seed)
    p = random_capped(rng) if seed % 2 == 0 else random_multistep(rng, L)
    c = interval_norms(p, L).decay_constant
    if c is None:
        return
    xs = rng.uniform(-L, L, 1000)
    xs = xs[xs != 0.0]
    vals = evaluate(p, xs)
    assert np.all(vals * xs * xs <= c * (1.0 + 1e-12) + 1e-300)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 50.0))
def test_sup_bounds_pointwise_values(seed, L):
    rng = np.random.default_rng(seed)
    p = random_multistep(rng, L) if seed % 2 == 0 else random_capped(rng)
    n = interval_norms(p, L)
    xs = rng.uniform(-0.5 * L, 0.5 * L, 1000)
    assert np.all(evaluate(p, xs) <= n.sup + 1e-12)
    assert n.l1 <= n.sup * L + 1e-12 * max(1.0, n.sup * L)


def _bits(v):
    """Exact identity of a query result: array bytes, float bits, None."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, tuple):
        return tuple(_bits(e) for e in v)
    return None if v is None else float(v).hex()


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.5, 60.0),
    st.floats(0.0, 10.0),
    st.floats(-40.0, 40.0),
    st.floats(1e-3, 40.0),
    st.integers(0, 10_000),
)
def test_piecewise_families_agree_bit_for_bit(L, h, a, width, seed):
    # Zero, Step and Constant are no-piece and one-piece multisteps: every
    # query must return the same bits for the family and its multistep form
    b = a + width
    half = 0.5 * L
    reach = 2.0 * max(half, abs(a), abs(b)) + 1.0
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-reach, reach, 64)
    xs[:4] = (a, b, -half, half)  # step edges and interval ends
    lo, hi = sorted(rng.uniform(-reach, reach, 2))
    pairs = [
        (Zero(), MultiStep(())),
        (Step(h, (a, b)), MultiStep((Step(h, (a, b)),))),
        # a constant equals a single step covering I and every sample point
        (Constant(h), MultiStep((Step(h, (-reach, reach)),))),
    ]
    for p, q in pairs:
        assert _bits(evaluate(p, xs)) == _bits(evaluate(q, xs))
        for x in xs[:8]:
            assert _bits(evaluate(p, float(x))) == _bits(evaluate(q, float(x)))
        assert _bits(break_points(p, L)) == _bits(break_points(q, L))
        assert _bits(astuple(interval_norms(p, L))) == _bits(astuple(interval_norms(q, L)))
        for interval in ((lo, hi), (-half, half), (a, b)):
            if interval[0] < interval[1]:
                assert _bits(sup_norm_on_interval(p, *interval)) == _bits(
                    sup_norm_on_interval(q, *interval)
                )


def test_sup_norm_on_subinterval():
    p = MultiStep((Step(1.0, (-3.0, -1.0)), Step(2.5, (2.0, 4.0))))
    assert sup_norm_on_interval(p, 2.5, 5.0) == 2.5
    assert sup_norm_on_interval(p, -0.5, 1.0) == 0.0
    assert sup_norm_on_interval(p, -4.0, 5.0) == 2.5
    q = InverseSquareCapped(1.0, 4.0)  # x* = 0.5
    assert sup_norm_on_interval(q, 1.0, 2.0) == 1.0  # decreasing: v(1) = 1
    assert sup_norm_on_interval(q, -0.1, 0.1) == 4.0
    assert sup_norm_on_interval(q, 0.25, 2.0) == 4.0  # reaches into the cap
    with pytest.raises(ValueError):
        sup_norm_on_interval(q, 2.0, 1.0)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-300, max_value=1e300, allow_nan=False)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 4), st.floats(-1e300, 1e300, allow_nan=False), positive, positive)
def test_json_round_trip_bit_exact(kind, a, height, c):
    b = a + max(abs(a) * 0.25, 1.0)
    if kind == 0:
        p = Zero()
    elif kind == 1:
        p = Constant(height)
    elif kind == 2:
        p = Step(height, (a, b))
    elif kind == 3:
        c2 = b + max(abs(b) * 0.5, 1.0)
        p = MultiStep((Step(height, (a, b)), Step(min(c, 1e290), (b, c2))))
    else:
        p = InverseSquareCapped(c, height)
    q = from_json(to_json(p))
    assert q == p  # dataclass equality is exact on floats


def test_json_shapes():
    assert json.loads(to_json(Step(1.0, (-0.5, 0.5)))) == {
        "type": "step", "height": 1.0, "support": [-0.5, 0.5],
    }
    assert from_dict({"type": "zero"}) == Zero()


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"type": "boxcar"}, "type"),
        ({"type": "step", "support": [0, 1]}, "height"),
        ({"type": "step", "height": 1.0}, "support"),
        ({"type": "step", "height": "tall", "support": [0, 1]}, "height"),
        ({"type": "step", "height": 1.0, "support": [0, 1, 2]}, "support"),
        ({"type": "constant"}, "value"),
        ({"type": "multistep", "pieces": 3}, "pieces"),
        ({"type": "inverse_square_capped", "decay": 1.0}, "cap"),
    ],
)
def test_from_dict_names_offending_field(payload, needle):
    with pytest.raises(ValueError, match=needle):
        from_dict(payload)


def test_validation_rejects_bad_specs():
    with pytest.raises(ValueError):
        Constant(-1.0)
    with pytest.raises(ValueError):
        Step(1.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        Step(-0.5, (0.0, 1.0))
    with pytest.raises(ValueError):
        MultiStep((Step(1.0, (0.0, 2.0)), Step(1.0, (1.0, 3.0))))  # overlap
    with pytest.raises(ValueError):
        MultiStep((Step(1.0, (1.0, 2.0)), Step(1.0, (0.0, 0.5))))  # unsorted
    with pytest.raises(ValueError):
        InverseSquareCapped(0.0, 1.0)
    with pytest.raises(ValueError):
        InverseSquareCapped(1.0, -2.0)
    with pytest.raises(ValueError):
        interval_norms(Zero(), 0.0)


def test_multistep_touching_endpoints_allowed():
    p = MultiStep((Step(1.0, (0.0, 1.0)), Step(2.0, (1.0, 2.0))))
    assert interval_norms(p, 10.0).l1 == pytest.approx(3.0)


def test_multistep_pieces_crossing_interval_boundary():
    # norms restrict to I even when supports spill past it
    p = MultiStep((Step(2.0, (-9.0, -0.5)), Step(1.0, (0.5, 12.0))))
    n = interval_norms(p, 4.0)
    assert n.l1 == pytest.approx(2.0 * 1.5 + 1.0 * 1.5)
    assert n.sup == 2.0
    # a piece entirely outside I contributes nothing to the interval norms
    q = MultiStep((Step(5.0, (-9.0, -8.0)), Step(1.0, (-1.0, 1.0))))
    m = interval_norms(q, 4.0)
    assert m.l1 == pytest.approx(2.0)
    assert m.sup == 1.0


def test_evaluate_capped_array_with_origin():
    p = InverseSquareCapped(1.0, 4.0)
    xs = np.array([-1.0, -0.1, 0.0, 0.25, 3.0])
    np.testing.assert_allclose(evaluate(p, xs), [1.0, 4.0, 4.0, 4.0, 1.0 / 9.0])


def test_break_points_clip_dedupe_and_kinks():
    touching = MultiStep((Step(1.0, (-3.0, -1.0)), Step(2.0, (-1.0, 0.5))))
    assert break_points(touching, 4.0) == (-1.0, 0.5)  # -3 is outside, -1 shared
    assert break_points(Step(1.0, (-0.5, 0.5)), 1.0) == ()  # edges on the ends
    assert break_points(InverseSquareCapped(1.0, 4.0), 2.0) == (-0.5, 0.5)
    assert break_points(InverseSquareCapped(1.0, 4.0), 1.0) == ()  # all capped
    assert break_points(Zero(), 1.0) == break_points(Constant(2.0), 1.0) == ()
    with pytest.raises(ValueError):
        break_points(Zero(), 0.0)
