import math
import re

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from gaplab import (
    Constant,
    DiscreteOperator,
    Grid,
    SolverError,
    Step,
    Zero,
    assemble,
    default_cell_count,
    evaluate,
    lowest_two_eigenpairs,
    solve_extrapolated,
)
from gaplab import kernels
from conftest import random_multistep

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


def test_assemble_step_samples_cell_centers():
    # h = 0.5: nodes at +-0.25 (inside the support) and +-0.75, +-1.25, ...
    g = Grid(8.0, 16)
    op = assemble(Step(1.0, (-0.5, 0.5)), g)
    inv_h2 = 4.0
    v = np.zeros(16)
    v[7] = v[8] = 1.0  # only the two nodes at +-0.25 see the step
    expected = np.full(16, 2.0 * inv_h2)
    expected[0] = expected[-1] = inv_h2
    np.testing.assert_allclose(op.diag, expected + v, rtol=0, atol=0)


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
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = random_multistep(rng, 6.0)
        op = assemble(p, Grid(6.0, 512))
        ours = lowest_two_eigenpairs(op)
        ref = eigh_tridiagonal(
            op.diag, op.offdiag, select="i", select_range=(0, 1), eigvals_only=True
        )
        assert ours[0].value == pytest.approx(ref[0], rel=1e-11, abs=1e-11)
        assert ours[1].value == pytest.approx(ref[1], rel=1e-11, abs=1e-11)


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
    assert r.error_estimate[0] <= 1e-10


def test_convergence_order_constant_potential():
    # raw lambda1 errors against the exact continuum value drop like h^2
    L, c = 2.0, 2.5
    exact = c + PI_SQ / L**2
    r = solve_extrapolated(Constant(c), L, n0=64, levels=4)
    errs = np.array([abs(v - exact) for v in r.raw_lambda1])
    ns = np.array([64.0 * 2**j for j in range(4)])
    slope, _ = np.polyfit(np.log(ns), np.log(errs), 1)
    assert -slope == pytest.approx(2.0, abs=0.1)


def test_misaligned_step_warns_about_order():
    with pytest.warns(RuntimeWarning, match="convergence order"):
        solve_extrapolated(Step(1.0, (-0.5, 0.5)), 10.0, n0=1024, levels=3)


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


def test_sign_changing_ground_state_reports_split(monkeypatch):
    # Two 8-cell Neumann blocks joined by a weak link (a path-graph
    # Laplacian): lambda0 = 0 and lambda1 ~ 2.5e-9.  The patched kernel hands
    # back -phi1 for the ground state, a vector whose residual passes the
    # 1e-8 * ||T|| certificate but which changes sign.
    diag = np.full(16, 2.0)
    diag[[0, 7, 8, 15]] = 1.0
    off = np.full(15, -1.0)
    off[7] = -1e-8
    diag[[7, 8]] -= off[7]
    op = DiscreteOperator(diag, off)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lams, vecs = np.linalg.eigh(dense)
    phi0, phi1 = vecs[:, 0], vecs[:, 1]

    def swapped(diag, off, sigma, start, ortho, *rest):
        return (phi0 if ortho is not None else -phi1), 1, True

    monkeypatch.setattr(kernels, "inverse_iteration", swapped)
    with pytest.raises(SolverError, match="not strictly positive") as info:
        lowest_two_eigenpairs(op)
    split, floor = (
        float(x) for x in re.findall(r"= ([-+.e\d]+)", str(info.value))
    )
    assert split == pytest.approx(lams[1] - lams[0], rel=1e-2)
    assert floor == pytest.approx(np.finfo(float).eps * op.norm_inf(), rel=1e-3)
