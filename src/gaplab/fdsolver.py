"""Finite-difference eigensolver for -u'' + v u on (-L/2, L/2) with Neumann ends.

The discretization is the 3-point stencil on a cell-centered uniform grid;
Neumann conditions enter through the natural reflection, which puts 1/h^2
instead of 2/h^2 on the two boundary diagonal entries.  This choice keeps
the free operator's spectrum in closed form,

    lambda_k = (4/h^2) sin^2(k pi / (2N)),   eigvec_k(i) = cos(k pi (2i+1)/(2N)),

which the tests use as an exact oracle.  Eigenvalues are located by
Sturm-sequence bisection, eigenvectors by shifted inverse iteration, and
``solve_extrapolated`` removes the leading O(h^2) error by Richardson
extrapolation over nested grids.

Most of a solve is Sturm sweeps, so the two bisections of one operator share
their counts, and each finer grid starts from counts taken around the value
the coarser grids predict.  A count only ever decides a midpoint that plain
bisection would decide the same way (the count is monotone in the shift),
so this reuse changes the number of sweeps, never an eigenvalue.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .potentials import PotentialSpec, evaluate

__all__ = [
    "Grid",
    "DiscreteOperator",
    "Eigenpair",
    "SpectralResult",
    "SolverError",
    "assemble",
    "lowest_two_eigenpairs",
    "solve_extrapolated",
    "default_cell_count",
]

_INV_ITER_MAX = 50
_INV_ITER_DIR_TOL = 1e-12
_RESIDUAL_REL = 1e-8
_GALLOP_START = 16.0  # first half-width around a guess, in bisection tolerances
_GALLOP_GROWTH = 16.0


class SolverError(RuntimeError):
    """Raised when the eigensolver cannot certify its result."""


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform grid on (-L/2, L/2): nodes at -L/2 + (i + 1/2) h."""

    L: float
    N: int

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"grid length must be finite and > 0, got {self.L}")
        if self.N < 16:
            raise ValueError(f"grid needs at least 16 cells, got {self.N}")
        h2 = self.h * self.h
        if not (h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"grid spacing h = {self.h:.3e} is too small: 1/h^2 overflows")

    @property
    def h(self) -> float:
        return self.L / self.N

    def nodes(self) -> np.ndarray:
        h = self.h
        return -0.5 * self.L + (np.arange(self.N) + 0.5) * h


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal matrix: main diagonal and (constant) off-diagonal."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        if self.diag.ndim != 1 or self.offdiag.shape != (self.diag.size - 1,):
            raise ValueError("diag must be 1-d with offdiag one entry shorter")
        self.diag.flags.writeable = False
        self.offdiag.flags.writeable = False

    def matvec(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.offdiag * x[1:]
        y[1:] += self.offdiag * x[:-1]
        return y

    def norm_inf(self) -> float:
        row = np.abs(self.diag).copy()
        row[:-1] += np.abs(self.offdiag)
        row[1:] += np.abs(self.offdiag)
        return float(row.max())


class Eigenpair(NamedTuple):
    value: float
    vector: np.ndarray  # l2-normalized


@dataclass(frozen=True)
class SpectralResult:
    """Extrapolated lowest two eigenvalues plus the finest-grid ground state.

    ``phi0`` is L2(I)-normalized (sum phi0_i^2 h = 1) and positive;
    ``error_estimate`` holds |extrapolant - finest raw value| per eigenvalue;
    ``observed_order`` is the measured convergence order from the last three
    grids (nan when the differences sit at rounding level or levels == 2).
    ``raw_lambda0`` / ``raw_lambda1`` keep the per-level values the
    extrapolation consumed (coarsest first), handy for a-posteriori error
    control.
    """

    lambda0: float
    lambda1: float
    gap: float
    grid: Grid
    phi0: np.ndarray
    inf_phi0: float
    sup_phi0: float
    error_estimate: Tuple[float, float]
    observed_order: Tuple[float, float]
    raw_lambda0: Tuple[float, ...]
    raw_lambda1: Tuple[float, ...]


def default_cell_count(L: float, per_unit: int = 64, floor: int = 256) -> int:
    """Sweep-friendly default N0 = max(floor, ceil(per_unit * L))."""
    return max(floor, int(math.ceil(per_unit * L)))


def assemble(p: PotentialSpec, grid: Grid) -> DiscreteOperator:
    """Stencil assembly: diag_i = 2/h^2 + v(x_i), halved at the two boundary
    cells; every off-diagonal entry is -1/h^2."""
    h = grid.h
    inv_h2 = 1.0 / (h * h)
    diag = np.full(grid.N, 2.0 * inv_h2)
    diag[0] = inv_h2
    diag[-1] = inv_h2
    diag = diag + evaluate(p, grid.nodes())
    off = np.full(grid.N - 1, -inv_h2)
    return DiscreteOperator(diag, off)


def _start_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, n)


def _gallop(diag, off2, pivmin, k, guess, lo, hi, counts):
    """Count at guess -/+ w, w starting at 16 bisection tolerances and each
    side widening 16-fold, until count(guess - w) <= k < count(guess + w) or
    the side leaves the Gershgorin enclosure (lo, hi)."""
    if not math.isfinite(guess):
        return
    start = _GALLOP_START * max(1e-13, 1e-12 * abs(guess))
    for side in (-1.0, 1.0):
        width = start
        while lo < guess + side * width < hi:
            shift = guess + side * width
            count = counts[shift] = kernels.sturm_count(diag, off2, shift, pivmin)
            if (count <= k) == (side < 0.0):  # this side encloses eigenvalue k
                break
            width *= _GALLOP_GROWTH


def lowest_two_eigenpairs(
    op: DiscreteOperator, near: Optional[Tuple[float, float]] = None
) -> Tuple[Eigenpair, Eigenpair]:
    """Lowest two eigenpairs of the tridiagonal operator.

    Eigenvalues by bisection on the Sturm sign count (absolute tolerance
    max(1e-13, 1e-12 |lambda|)); eigenvectors by inverse iteration with the
    bisected value as shift, at most 50 sweeps.  The second vector is
    re-orthogonalized against the first every sweep.  The ground vector is
    sign-fixed positive.  Raises :class:`SolverError` on non-convergence.

    ``near`` is a guess (lambda0, lambda1), e.g. from a coarser grid; the
    bisections start from Sturm counts taken around it.  It changes only how
    many Sturm sweeps the bisections take, never the eigenpairs returned.
    """
    diag = np.ascontiguousarray(op.diag, dtype=float)
    off = np.ascontiguousarray(op.offdiag, dtype=float)
    n = diag.size
    if n < 2:
        raise SolverError("need at least a 2x2 operator")
    off2 = off * off
    # zero-pivot guard for the Sturm recurrence and the shifted LU; far below
    # any eigenvalue tolerance but large enough that 1/pivmin cannot overflow
    # the back-substitution
    pivmin = max(off2.max(), 1.0) * 1e-250

    radius = 2.0 * np.abs(off).max()
    lo = float(diag.min() - radius)
    hi = float(np.abs(diag).max() + radius)  # Gershgorin: bounds every eigenvalue

    # Sturm counts shared by both bisections (shift -> count).  They only
    # decide midpoints without a sweep, never move one, so the seeds below
    # change the cost of the bisection and not its result.
    counts = {}
    if near is None:
        # T's row sums are v at the nodes, and min v <= lambda0 <= mean v
        # (Weyl; the Rayleigh quotient of the constant vector)
        rows = diag.copy()
        rows[:-1] += off
        rows[1:] += off
        for shift in (float(rows.min()), float(rows.mean())):
            counts[shift] = kernels.sturm_count(diag, off2, shift, pivmin)
    else:
        for k, guess in enumerate(near):
            _gallop(diag, off2, pivmin, k, float(guess), lo, hi, counts)
    lam0 = kernels.bisect_eigenvalue(diag, off2, 0, lo, hi, pivmin, counts)
    lam1 = kernels.bisect_eigenvalue(diag, off2, 1, max(lo, lam0 - 1e-13), hi, pivmin,
                                     counts)
    if not lam0 < lam1:
        # can only happen if the bisection tolerances overlap; 1-d Neumann
        # operators have simple eigenvalues
        raise SolverError(f"eigenvalues not separated: {lam0} vs {lam1}")

    norm_t = op.norm_inf()
    resid_tol = 1e-11 * max(1.0, norm_t)
    rng = np.random.default_rng(1234567891)
    vec0 = None
    for _ in range(2):
        v, _, ok = kernels.inverse_iteration(
            diag, off, lam0, _start_vector(rng, n), None,
            _INV_ITER_MAX, _INV_ITER_DIR_TOL, resid_tol, pivmin,
        )
        if ok:
            vec0 = v
            break
    if vec0 is None:
        raise SolverError("inverse iteration for the ground state did not converge")
    if vec0.sum() < 0.0:
        vec0 = -vec0

    vec1 = None
    for _ in range(2):
        v, _, ok = kernels.inverse_iteration(
            diag, off, lam1, _start_vector(rng, n), vec0,
            _INV_ITER_MAX, _INV_ITER_DIR_TOL, resid_tol, pivmin,
        )
        if ok:
            vec1 = v
            break
    if vec1 is None:
        raise SolverError("inverse iteration for the first excited state did not converge")
    for lam, vec, which in ((lam0, vec0, "0"), (lam1, vec1, "1")):
        resid = float(np.linalg.norm(op.matvec(vec) - lam * vec))
        if resid > _RESIDUAL_REL * norm_t:
            raise SolverError(
                f"eigenpair {which} residual {resid:.3e} exceeds {_RESIDUAL_REL:.0e} * ||T||"
            )
    # Positivity up to the resolution of inverse iteration: components the
    # true ground state drives below ~1e-16 of its peak (deep tunneling) come
    # out as rounding noise of either sign; clamp them to the measurement
    # floor.  Anything more negative means a genuinely wrong vector.
    peak = float(vec0.max())
    if vec0.min() <= 0.0:
        if vec0.min() < -1e-12 * peak:
            # a split near eps*||T|| leaves inverse iteration unable to tell
            # the two eigenvectors apart
            raise SolverError(
                "ground-state vector is not strictly positive "
                f"(lambda1 - lambda0 = {lam1 - lam0:.3e}, "
                f"eps*||T|| = {np.finfo(float).eps * norm_t:.3e})"
            )
        vec0 = np.maximum(vec0, 1e-16 * peak)
    return Eigenpair(float(lam0), vec0), Eigenpair(float(lam1), vec1)


def _richardson(values):
    """Limit of a sequence sampled on grids N0, 2*N0, ... assuming an
    even-power error expansion with leading order h^2."""
    row = list(values)
    level = 1
    while len(row) > 1:
        fac = 4.0 ** level
        row = [(fac * row[j + 1] - row[j]) / (fac - 1.0) for j in range(len(row) - 1)]
        level += 1
    return row[0]


def _observed_order(values, scale: float) -> float:
    # `scale` is the spectral scale of the problem: differences at rounding
    # level relative to it carry no order information (e.g. lambda0 = 0 for
    # the free operator, or a constant potential's exact shift).
    if len(values) < 3:
        return math.nan
    v = values[-3:]
    d1 = v[0] - v[1]
    d2 = v[1] - v[2]
    # below ~25x the bisection tolerance the differences carry no order signal
    floor = max(1e-11 * max(scale, 1e-30), 2.5e-12)
    if abs(d1) <= floor or abs(d2) <= floor:
        return math.nan
    return math.log2(abs(d1 / d2))


def solve_extrapolated(
    p: PotentialSpec, L: float, n0: int = 256, levels: int = 3
) -> SpectralResult:
    """Solve on grids n0, 2 n0, ..., Richardson-extrapolate both eigenvalues,
    and keep the ground state from the finest grid.

    Warns (RuntimeWarning) when the observed convergence order strays from 2
    by more than 0.5 (expected for step potentials whose jumps fall inside
    cells); the extrapolated values are still returned.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    if n0 < 64:
        raise ValueError(f"coarsest grid needs n0 >= 64, got {n0}")
    if levels not in (2, 3, 4):
        raise ValueError(f"levels must be 2, 3 or 4, got {levels}")

    lam0s, lam1s = [], []
    finest_pair = None
    finest_grid = None
    for j in range(levels):
        grid = Grid(L, n0 * 2 ** j)
        near = None
        if j == 1:
            near = (lam0s[0], lam1s[0])
        elif j >= 2:
            # the O(h^2) error quarters per halving of h
            near = (lam0s[-1] + (lam0s[-1] - lam0s[-2]) / 4.0,
                    lam1s[-1] + (lam1s[-1] - lam1s[-2]) / 4.0)
        pair0, pair1 = lowest_two_eigenpairs(assemble(p, grid), near=near)
        lam0s.append(pair0.value)
        lam1s.append(pair1.value)
        finest_pair = (pair0, pair1)
        finest_grid = grid

    lam0 = _richardson(lam0s)
    lam1 = _richardson(lam1s)
    err0 = abs(lam0 - lam0s[-1])
    err1 = abs(lam1 - lam1s[-1])
    scale = max(max(abs(x) for x in lam0s), max(abs(x) for x in lam1s))
    p0 = _observed_order(lam0s, scale)
    p1 = _observed_order(lam1s, scale)
    for which, order in (("lambda0", p0), ("lambda1", p1)):
        if not math.isnan(order) and abs(order - 2.0) > 0.5:
            warnings.warn(
                f"observed convergence order {order:.2f} for {which} deviates from 2 "
                "(potential discontinuities straddling cells?)",
                RuntimeWarning,
                stacklevel=2,
            )

    gap = lam1 - lam0
    if not gap > 0.0:
        raise SolverError(f"extrapolated gap is not positive: {gap}")

    h = finest_grid.h
    phi0 = finest_pair[0].vector / math.sqrt(h)  # l2 -> L2(I) normalization
    phi0.flags.writeable = False
    return SpectralResult(
        lambda0=float(lam0),
        lambda1=float(lam1),
        gap=float(gap),
        grid=finest_grid,
        phi0=phi0,
        inf_phi0=float(phi0.min()),
        sup_phi0=float(phi0.max()),
        error_estimate=(float(err0), float(err1)),
        observed_order=(p0, p1),
        raw_lambda0=tuple(lam0s),
        raw_lambda1=tuple(lam1s),
    )
