import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from gaplab import (
    Constant,
    DiscreteOperator,
    Grid,
    InverseSquareCapped,
    MultiStep,
    SolverError,
    Step,
    Zero,
    assemble,
    decompose,
    default_cell_count,
    eigenvalues_exact,
    evaluate,
    lowest_two_eigenpairs,
    solve_extrapolated,
)
import gaplab
from gaplab import kernels
from gaplab.fdsolver import _mirror_halves, _nested_grids
from conftest import random_capped, random_multistep

PI_SQ = math.pi * math.pi


def free_eigenvalue(k, L, N):
    # exact spectrum of the cell-centered Neumann stencil
    h = L / N
    return 4.0 / (h * h) * math.sin(k * math.pi / (2 * N)) ** 2


def test_grid_invariants():
    g = Grid(2.0, 32)
    assert g.h == pytest.approx(0.0625)
    nodes = g.nodes()
    assert nodes[0] == pytest.approx(-1.0 + 0.03125)
    assert nodes[-1] == pytest.approx(1.0 - 0.03125)
    assert np.all(np.abs(nodes) < 1.0)
    with pytest.raises(ValueError):
        Grid(2.0, 8)
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    with pytest.raises(ValueError, match="1/h"):
        Grid(1e-300, 64)  # h^2 underflows to 0
    with pytest.raises(ValueError, match="1/h"):
        Grid(1e-155, 64)  # h^2 is subnormal and 1/h^2 overflows
    with pytest.raises(ValueError, match=r"1/h\^4"):
        Grid(1e-150, 256)  # 1/h^2 is finite, its square (the squared off-diagonal) is not
    with pytest.raises(ValueError, match=r"N = 6\.400e\+201 cells on L = 1e\+200"):
        Grid(1e200, 64 * 10**200)  # more cells than numpy can index
    with pytest.raises(ValueError, match="numpy can index"):
        Grid(1.0, 2**62)  # indexable, but not as doubles: 2^65 bytes
    # layers: equal cells between breaks, h is the largest width
    g = Grid(2.0, 20, (-0.5, 0.5), (4, 12, 4))
    assert g.h == pytest.approx(0.125)
    np.testing.assert_allclose(g.widths()[[0, 4, 16]], [0.125, 1.0 / 12, 0.125])
    assert np.all(np.diff(g.nodes()) > 0.0)
    with pytest.raises(ValueError, match="one cell count >= 1 per layer"):
        Grid(2.0, 20, (-0.5, 0.5), (4, 12, 5))
    with pytest.raises(ValueError, match="inside"):
        Grid(2.0, 20, (-0.5, 1.5), (4, 12, 4))
    with pytest.raises(ValueError, match="1/h"):
        Grid(2.0, 20, (0.0, 1e-100), (4, 12, 4))  # a layer too thin for 1/h^4


def test_assemble_free_stencil():
    # same structure as the 4-cell hand example, on an admissible grid:
    # boundary diagonal 1/h^2, interior 2/h^2, off-diagonal -1/h^2
    g = Grid(1.0, 16)
    op = assemble(Zero(), g)
    inv_h2 = 256.0
    assert op.diag[0] == inv_h2 and op.diag[-1] == inv_h2
    assert np.all(op.diag[1:-1] == 2.0 * inv_h2)
    assert np.all(op.offdiag == -inv_h2)


def test_assemble_constant_adds_to_diagonal():
    g = Grid(1.0, 16)
    base = assemble(Zero(), g)
    shifted = assemble(Constant(5.0), g)
    np.testing.assert_allclose(shifted.diag, base.diag + 5.0, rtol=0, atol=0)
    np.testing.assert_array_equal(shifted.offdiag, base.offdiag)


def test_assemble_step_faces_on_edges():
    # the solver's grids put a cell face on each step edge (-0.3 and 0.7
    # fall inside cells of the uniform 8/64 grid); the cells between the
    # two faces, and only they, see the step
    p = Step(1.0, (-0.3, 0.7))
    r = solve_extrapolated(p, 8.0, n0=64, levels=2)
    grid = r.grid
    assert grid.breaks == (-0.3, 0.7)
    faces = -4.0 + np.concatenate([[0.0], np.cumsum(grid.widths())])
    for edge in (-0.3, 0.7):
        assert np.min(np.abs(faces - edge)) < 1e-14
    x = grid.nodes()
    free = assemble(Zero(), grid)
    stepped = assemble(p, grid)
    inside = (x > -0.3) & (x < 0.7)
    np.testing.assert_array_equal(stepped.diag - free.diag, np.where(inside, 1.0, 0.0))
    np.testing.assert_array_equal(stepped.offdiag, free.offdiag)


def test_assemble_nonuniform_is_symmetrized_finite_volume():
    # W^{1/2} T W^{1/2} is the finite-volume matrix A: fluxes 1/d_i between
    # centres, no flux beyond either end, v w on the diagonal
    grid = Grid(3.0, 17, (-0.25, 0.5), (6, 3, 8))
    w = grid.widths()
    assert w.sum() == pytest.approx(3.0, rel=1e-15)
    p = Step(2.0, (-0.25, 0.5))
    op = assemble(p, grid)
    d = np.diff(grid.nodes())
    a = np.diag(evaluate(p, grid.nodes()) * w)
    for i, di in enumerate(d):
        a[i, i] += 1.0 / di
        a[i + 1, i + 1] += 1.0 / di
        a[i, i + 1] = a[i + 1, i] = -1.0 / di
    t = np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    s = np.sqrt(w)
    np.testing.assert_allclose(s[:, None] * t * s[None, :], a, rtol=1e-12, atol=1e-12)


def test_assemble_matches_dense_oracle():
    rng = np.random.default_rng(5)
    p = random_multistep(rng, 3.0)
    g = Grid(3.0, 64)
    op = assemble(p, g)
    dense = (
        np.diag(op.diag) + np.diag(op.offdiag, 1) + np.diag(op.offdiag, -1)
    )
    direct = np.diag(2.0 / g.h**2 + evaluate(p, g.nodes()))
    direct[0, 0] -= 1.0 / g.h**2
    direct[-1, -1] -= 1.0 / g.h**2
    for i in range(63):
        direct[i, i + 1] = direct[i + 1, i] = -1.0 / g.h**2
    np.testing.assert_allclose(dense, direct, rtol=0, atol=0)


@pytest.mark.parametrize("L,N", [(1.0, 64), (1.0, 256), (math.pi, 256)])
def test_free_spectrum_closed_form(L, N):
    pair0, pair1 = lowest_two_eigenpairs(assemble(Zero(), Grid(L, N)))
    # the count flips anywhere within ~eps*||T|| of zero: shifts below half an
    # ulp of the diagonal entries are absorbed by the Sturm recurrence
    assert abs(pair0.value) < 1e-10
    assert pair1.value == pytest.approx(free_eigenvalue(1, L, N), rel=2e-11)
    # ground vector is the constant, excited vector the first cosine mode
    n = np.full(N, 1.0 / math.sqrt(N))
    assert abs(float(pair0.vector @ n)) == pytest.approx(1.0, abs=1e-10)
    i = np.arange(N)
    mode = np.cos(math.pi * (2 * i + 1) / (2 * N))
    mode /= np.linalg.norm(mode)
    assert abs(float(pair1.vector @ mode)) == pytest.approx(1.0, abs=1e-8)


def test_constant_is_exact_shift():
    g = Grid(2.0, 128)
    z0, z1 = lowest_two_eigenpairs(assemble(Zero(), g))
    c0, c1 = lowest_two_eigenpairs(assemble(Constant(7.0), g))
    assert c0.value - z0.value == pytest.approx(7.0, abs=1e-11)
    assert c1.value - z1.value == pytest.approx(7.0, abs=1e-11)
    assert abs(float(c0.vector @ z0.vector)) == pytest.approx(1.0, abs=1e-12)


def test_eigenvalues_match_lapack():
    # Eigenvalues to 1e-11; eigenvectors to an angle of twice eps ||T|| / gap,
    # the conditioning of the eigenvector.  The last case is a double well
    # whose split, 1.7e-8, is small but resolvable (eps ||T|| is 3.6e-12).
    rng = np.random.default_rng(11)
    cases = [(random_multistep(rng, 6.0), 6.0, 512) for _ in range(5)]
    cases.append((Step(0.4, (-18.0, 18.0)), 40.0, 2560))
    for p, L, n in cases:
        op = assemble(p, Grid(L, n))
        ours = lowest_two_eigenpairs(op)
        ref, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 1))
        assert ours[0].value == pytest.approx(ref[0], rel=1e-11, abs=1e-11)
        assert ours[1].value == pytest.approx(ref[1], rel=1e-11, abs=1e-11)
        conditioning = np.finfo(float).eps * op.norm_inf() / (ref[1] - ref[0])
        for pair, ref_vec in zip(ours, vecs.T):
            sin_angle = np.linalg.norm(pair.vector - (pair.vector @ ref_vec) * ref_vec)
            assert sin_angle <= 2.0 * conditioning


def test_monotonicity_nonnegative_potential_raises_lambda0():
    rng = np.random.default_rng(17)
    g = Grid(4.0, 256)
    base, _ = lowest_two_eigenpairs(assemble(Zero(), g))
    for _ in range(100):
        a = float(rng.uniform(-2.0, 1.5))
        b = a + float(rng.uniform(0.1, 2.0))
        p = Step(float(rng.uniform(0.0, 5.0)), (a, b))
        lam0, _ = lowest_two_eigenpairs(assemble(p, g))
        assert lam0.value >= base.value - 1e-12


def test_eigenpair_invariants():
    p = Step(1.0, (-0.5, 0.5))
    op = assemble(p, Grid(10.0, 640))
    pair0, pair1 = lowest_two_eigenpairs(op)
    assert pair0.value < pair1.value
    assert np.linalg.norm(pair0.vector) == pytest.approx(1.0, abs=1e-12)
    assert pair0.vector.min() > 0.0
    norm_t = op.norm_inf()
    for pair in (pair0, pair1):
        resid = np.linalg.norm(op.matvec(pair.vector) - pair.value * pair.vector)
        assert resid <= 1e-8 * norm_t


def test_solve_extrapolated_free_case():
    for L in (1.0, math.pi):
        r = solve_extrapolated(Zero(), L, n0=256, levels=3)
        assert r.gap == pytest.approx(PI_SQ / L**2, rel=1e-9)
        assert abs(r.lambda0) < 1e-9  # eps*||T|| floor at the finest grid
        inv_sqrt = 1.0 / math.sqrt(L)
        assert r.inf_phi0 == pytest.approx(inv_sqrt, rel=1e-9)
        assert r.sup_phi0 == pytest.approx(inv_sqrt, rel=1e-9)
        h = r.grid.h
        assert float(np.sum(r.phi0**2) * h) == pytest.approx(1.0, abs=1e-12)
        assert r.phi0.min() > 0.0


def test_solve_extrapolated_levels_and_raw_values():
    r = solve_extrapolated(Constant(2.0), 1.0, n0=64, levels=4)
    assert len(r.raw_lambda0) == 4 and len(r.raw_lambda1) == 4
    assert r.lambda0 == pytest.approx(2.0, abs=1e-10)
    assert r.observed_order[1] == pytest.approx(2.0, abs=0.05)
    assert math.isnan(r.observed_order[0])  # constant shift is exact per level
    assert abs(r.lambda0 - r.raw_lambda0[-1]) <= 1e-10  # the Richardson term
    # the rest of the estimate is the solver floor, which covers the error
    assert abs(r.lambda0 - 2.0) <= r.error_estimate[0]


def test_convergence_order_constant_potential():
    # raw lambda1 errors against the exact continuum value drop like h^2
    L, c = 2.0, 2.5
    exact = c + PI_SQ / L**2
    r = solve_extrapolated(Constant(c), L, n0=64, levels=4)
    errs = np.array([abs(v - exact) for v in r.raw_lambda1])
    ns = np.array([64.0 * 2**j for j in range(4)])
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    assert -slope == pytest.approx(2.0, abs=0.1)


def test_rounding_level_difference_reads_no_order():
    # Criterion-3 suite draw: the finest level difference of lambda1 is
    # 6.2e-11 against a finest-level floor of 5.8e-11.  A level difference
    # carries both levels' floors, so it is rounding, not an order of 1.49.
    p = InverseSquareCapped(2.7701106888897016, 3.7840966601371955)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve_extrapolated(p, 80.19065303497489, n0=5133, levels=3)
    assert math.isnan(r.observed_order[1])


def _oracle_dev(p, L, r):
    ex0, ex1 = eigenvalues_exact(decompose(p, L), 2)
    errs = (abs(r.lambda0 - ex0), abs(r.lambda1 - ex1))
    return max(errs) / max(abs(ex1), PI_SQ / L**2), errs


def test_misaligned_step_converges_at_order_two():
    # the edges +-0.5 fall inside cells of the uniform 10/1024 grid; with
    # faces on them the step converges at order 2 and extrapolates to 1e-9
    p = Step(1.0, (-0.5, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = solve_extrapolated(p, 10.0, n0=1024, levels=3)
    assert r.observed_order[0] == pytest.approx(2.0, abs=0.1)
    assert r.observed_order[1] == pytest.approx(2.0, abs=0.1)
    dev, errs = _oracle_dev(p, 10.0, r)
    assert dev < 1e-9
    assert all(e <= est for e, est in zip(errs, r.error_estimate))


def test_sub_cell_step_matches_oracle():
    # a step 0.001 wide on cells 10/640 wide: sampled at cell centres it
    # gave lambda0 = 2.73e-3 against the exact 4.979240e-4
    p = Step(5.0, (0.001, 0.002))
    r = solve_extrapolated(p, 10.0, n0=default_cell_count(10.0), levels=3)
    assert r.lambda0 == pytest.approx(4.979240e-4, rel=1e-6)
    dev, errs = _oracle_dev(p, 10.0, r)
    assert dev < 1e-6
    assert all(e <= est for e, est in zip(errs, r.error_estimate))


@pytest.mark.parametrize("p", [
    MultiStep((Step(1.0, (-0.5, 0.5)), Step(2.0, (0.5, math.nextafter(0.5, 1.0))))),
    Step(1.0, (-0.5, math.nextafter(5.0, 0.0))),
], ids=["interior", "at_the_end"])
def test_one_ulp_layer_matches_oracle(p):
    # a layer one ulp wide keeps a single cell: split, its cells would
    # couple as 1/w^2 and rounding would cut the grid in two
    r = solve_extrapolated(p, 10.0, n0=default_cell_count(10.0), levels=3)
    assert 1 in r.grid.counts
    dev, errs = _oracle_dev(p, 10.0, r)
    assert dev < 1e-8
    assert all(e <= est for e, est in zip(errs, r.error_estimate))
    assert max(r.error_estimate) < 1e-6


def test_thin_strong_barrier_matches_oracle():
    # a barrier of height 1e5 and width 1e-5, far below one cell: it must
    # still be split into cells, or it biases lambda0 (by 8e-7 when kept
    # as one cell) beyond what refinement and the error estimate can see
    p = Step(1e5, (0.0, 1e-5))
    r = solve_extrapolated(p, 10.0, n0=default_cell_count(10.0), levels=3)
    assert 1 not in r.grid.counts
    dev, errs = _oracle_dev(p, 10.0, r)
    assert dev < 1e-9
    assert all(e <= est for e, est in zip(errs, r.error_estimate))


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_extrapolated(Zero(), -1.0)
    with pytest.raises(ValueError):
        solve_extrapolated(Zero(), 1.0, n0=32)
    with pytest.raises(ValueError):
        solve_extrapolated(Zero(), 1.0, n0=64, levels=5)
    with pytest.raises(SolverError):
        lowest_two_eigenpairs(
            type("T", (), {"diag": np.array([1.0]), "offdiag": np.array([]), })()
        )


def test_default_cell_count():
    assert default_cell_count(1.0) == 256
    assert default_cell_count(10.0) == 640
    assert default_cell_count(400.0) == 25600


def _weak_link(left=7):
    """Neumann blocks of `left` and 16 - `left` cells joined by a weak link
    (a path-graph Laplacian): lambda0 = 0 and lambda1 ~ 2.5e-9.  Returns the
    operator and its dense eigenvalues and eigenvectors.  Unequal blocks
    make no mirror image, so the eigensolver bisects and solves the whole
    matrix; left = 8 is mirror-symmetric and split into halves."""
    diag = np.full(16, 2.0)
    diag[[0, left - 1, left, 15]] = 1.0
    off = np.full(15, -1.0)
    off[left - 1] = -1e-8
    diag[[left - 1, left]] -= off[left - 1]
    op = DiscreteOperator(diag, off)
    lams, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return op, lams, vecs


def _hand_back(monkeypatch, *vectors):
    """Patch the eigenvector kernel to return `vectors`, ground state first."""
    handed = iter(vectors)

    def kernel(counts, sigma):
        v = next(handed)
        return v, 1, bool(np.isfinite(v).all())

    monkeypatch.setattr(kernels, "inverse_iteration", kernel)


def _assert_reports_split(message, op, lams):
    split, floor = (float(x) for x in re.findall(r"= ([-+.e\d]+)", message))
    assert split == pytest.approx(lams[1] - lams[0], rel=1e-2)
    assert floor == pytest.approx(np.finfo(float).eps * op.norm_inf(), rel=1e-3)


def test_sign_changing_ground_state_reports_split(monkeypatch):
    # The patched kernel hands back -phi1 for the ground state, a vector
    # whose residual passes the 1e-8 * ||T|| certificate but which changes
    # sign.
    op, lams, vecs = _weak_link()
    _hand_back(monkeypatch, -vecs[:, 1], vecs[:, 0])
    with pytest.raises(SolverError, match="not strictly positive") as info:
        lowest_two_eigenpairs(op)
    _assert_reports_split(str(info.value), op, lams)


def test_excited_residual_failure_reports_split(monkeypatch):
    # A split below what double precision separates leaves the lambda1 solve
    # with a vector that is no eigenvector.  The patched kernel hands back
    # phi2 for it: orthogonal to the ground state, residual lambda2 - lambda1.
    op, lams, vecs = _weak_link()
    _hand_back(monkeypatch, vecs[:, 0], vecs[:, 2])
    with pytest.raises(SolverError, match=r"eigenpair 1 residual .* \* \|\|T\|\| \(") as info:
        lowest_two_eigenpairs(op)
    _assert_reports_split(str(info.value), op, lams)


@pytest.mark.parametrize("vector, needle", [
    (np.full(16, np.nan), "non-finite"),
    (None, "vanishes"),
])
def test_unusable_vectors_raise(monkeypatch, vector, needle):
    # No fallback: a non-finite solve, or an excited vector that is the
    # ground vector again, is a SolverError.
    op, _, vecs = _weak_link()
    v = vecs[:, 0] if vector is None else vector
    _hand_back(monkeypatch, v, v)
    with pytest.raises(SolverError, match=needle):
        lowest_two_eigenpairs(op)


@pytest.mark.parametrize("bad, needle", [
    ("non-finite", "non-finite"),
    ("zero", "vanishes"),
    ("phi2", "eigenpair 0 residual"),
])
def test_split_path_keeps_certificates(monkeypatch, bad, needle):
    # The mirror-symmetric weak link is split, and each eigenvector solve
    # runs on an 8-cell half.  The patched kernel hands back half vectors
    # (the right half of a unit vector, times sqrt(2)): the certificates
    # still run on the mirrored vectors against the full operator.  phi2,
    # the even state above the pair, passes every check but the residual.
    op, lams, vecs = _weak_link(8)
    even, odd = _mirror_halves(op)
    assert even.diag.size == odd.diag.size == 8
    ground, excited = (vecs[8:, k] * math.sqrt(2.0) for k in (0, 1))
    if bad == "non-finite":
        ground = np.full(8, np.nan)
    elif bad == "zero":
        excited = np.zeros(8)
    else:
        ground = vecs[8:, 2] * math.sqrt(2.0)
    _hand_back(monkeypatch, ground, excited)
    with pytest.raises(SolverError, match=needle) as info:
        lowest_two_eigenpairs(op)
    _assert_reports_split(str(info.value), op, lams)


def test_split_weak_link_matches_dense():
    # the even half is the 8-cell Neumann block, the odd half the same block
    # with the link's 2e-8 on its first diagonal entry
    op, lams, vecs = _weak_link(8)
    pairs = lowest_two_eigenpairs(op)
    for k, pair in enumerate(pairs):
        assert pair.value == pytest.approx(lams[k], abs=1e-13)
        assert abs(float(pair.vector @ vecs[:, k])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bump", [3e-10, 1e-6])
def test_near_degenerate_asymmetric_pair(bump):
    # A barrier of 1e3 across the centre leaves two wells, and a bump in the
    # right well splits their pair of states.  The operator is no palindrome,
    # so it is solved whole.  With a bump of 3e-10 the finest lambda1 -
    # lambda0 is 0.25 eps ||T||, below what double precision separates, and
    # the excited vector's guards missed it: the solve returned a ground
    # state mixed with the excited one (inf/sup phi0 = 5.3e-12).  It must
    # raise, on the ground vector's rounding floor.  A bump of 1e-6 splits
    # the pair by 982 eps ||T||, which solves.
    p = MultiStep((Step(1e3, (-0.5, 0.5)), Step(bump, (1.0, 2.0))))
    if bump < 1e-8:
        with pytest.raises(SolverError, match="rounding floor") as info:
            solve_extrapolated(p, 10.0, n0=640)
        split, floor = (float(x) for x in re.findall(r"= ([-+.e\d]+)", str(info.value))[1:])
        assert split == pytest.approx(0.25 * floor, rel=0.01)
    else:
        r = solve_extrapolated(p, 10.0, n0=640)
        floor = np.finfo(float).eps * assemble(p, r.grid).norm_inf()
        assert r.raw_lambda1[-1] - r.raw_lambda0[-1] > 900 * floor


@pytest.mark.parametrize("decay, cap, ratio", [
    (4.813604793300804, 7.861723353326532, 1.6017e-5),
    (4.889495615165041, 6.73753048312226, 1.8744e-5),
], ids=["suite_seed_1002", "suite_seed_152"])
def test_symmetric_double_well_ground_state(decay, cap, ratio):
    # Capped draws of the criterion-3 suite whose finest-grid split
    # lambda1 - lambda0 (4.4e-11 for the first) is below eps ||T|| (5.8e-11):
    # one solve on the whole operator mixed the two states and read inf/sup
    # phi0 = 1.146e-5 and 1.468e-5.  The ratios are the exact ground
    # state's, from Bessel functions at 40 digits.
    r = solve_extrapolated(InverseSquareCapped(decay, cap), 80.19065303497489, n0=5133)
    assert r.inf_phi0 / r.sup_phi0 == pytest.approx(ratio, rel=1e-3)


def _even_potential(kind, rng, L):
    """A centred step, a mirror-symmetric pair of steps or a capped draw."""
    if kind == 0:
        a = float(rng.uniform(0.01, 0.49)) * L
        return Step(float(rng.uniform(0.0, 3.0)), (-a, a))
    if kind == 1:
        a, b = sorted(float(x) for x in rng.uniform(0.01, 0.49, 2) * L)
        height = float(rng.uniform(0.0, 3.0))
        return MultiStep((Step(height, (-b, -a)), Step(height, (a, b))))
    return random_capped(rng)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2), st.integers(0, 10_000), st.floats(0.5, 20.0), st.integers(256, 600))
def test_even_potentials_split_like_lapack(kind, seed, L, n0):
    # Every grid of an even potential, the quarter grid that guesses level 0
    # included, is mirror-symmetric bitwise, so its
    # operator is a palindrome and is split.  Where double precision
    # resolves the pair, the split eigenvalues agree with LAPACK's to the
    # bisection tolerance plus eps ||T||.  Each vector agrees to an angle of
    # (tol + eps ||T||) / gap, gap to the nearest other eigenvalue, plus
    # LAPACK's eps ||T|| / gap: the solve runs at the bisected value, up to
    # tol from the eigenvalue (a 63-cell quarter grid's lambda1 vector lay
    # 4.0e-13 from the 40-digit one, with tol / gap = 1.7e-12 and
    # eps ||T|| / gap = 1.6e-13).
    p = _even_potential(kind, np.random.default_rng(seed), L)
    for grid in _nested_grids(p, L, n0 // 4, 1) + _nested_grids(p, L, n0, 2):
        x = grid.nodes()
        assert np.array_equal(x[::-1], -x)  # exact equality, the centre 0 of odd N too
        op = assemble(p, grid)
        assert np.array_equal(op.diag[::-1], op.diag)
        assert np.array_equal(op.offdiag[::-1], op.offdiag)
        assert _mirror_halves(op) is not None
        ref, vecs = eigh_tridiagonal(op.diag, op.offdiag, select="i", select_range=(0, 2))
        rounding = np.finfo(float).eps * op.norm_inf()
        assume(ref[1] - ref[0] > 2.0 * (kernels.tolerance(ref[1]) + rounding))
        gaps = (ref[1] - ref[0], min(ref[1] - ref[0], ref[2] - ref[1]))
        for k, pair in enumerate(lowest_two_eigenpairs(op)):
            assert abs(pair.value - ref[k]) <= kernels.tolerance(ref[k]) + rounding
            ref_vec = vecs[:, k]
            sin_angle = np.linalg.norm(pair.vector - (pair.vector @ ref_vec) * ref_vec)
            assert sin_angle <= (kernels.tolerance(ref[k]) + 2.0 * rounding) / gaps[k]


_THREADS_PROBE = """
import hashlib
from gaplab import Step, solve_extrapolated
r = solve_extrapolated(Step(1.0, (-0.5, 1.5)), 80.0, n0=5120, levels=3)
print(r.grid.N, hashlib.sha256(r.phi0.tobytes()).hexdigest(), repr(r.inf_phi0),
      repr(r.sup_phi0), repr(r.error_estimate))
"""


def test_output_bits_independent_of_blas_threads():
    # OpenBLAS threads a dot product or norm over more than 10000 entries,
    # and the last bits of a threaded sum depend on the thread count.  The
    # finest operator here is unsplit with N = 20480; with np.linalg.norm
    # and @ its phi0, inf_phi0, sup_phi0 and error_estimate differed in the
    # last bits between 1 and 2 threads.  The solver sums with numpy's
    # pairwise reduction, which never reaches BLAS.
    src = str(pathlib.Path(gaplab.__file__).resolve().parent.parent)
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                              text=True, timeout=600, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0].split()[0] == "20480"
    assert outs[0] == outs[1]
