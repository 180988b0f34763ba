"""Finite-volume eigensolver for -u'' + v u on (-L/2, L/2) with Neumann ends.

The grid is cell-centred with a face at every break of the potential (step
edges, the capped family's kinks) and equal cells within each layer, so the
centre value of v is a step's exact cell average and no jump falls inside a
cell; on such piecewise-uniform grids the scheme converges at second order
(supra-convergence: Manteuffel & White, Math. Comp. 47, 1986).  Neumann
conditions enter as the absent flux beyond either end.  On a uniform grid
(Zero, Constant) the operator is the 3-point stencil with 1/h^2 instead of
2/h^2 on the two boundary diagonal entries, whose free spectrum is in
closed form,

    lambda_k = (4/h^2) sin^2(k pi / (2N)),   eigvec_k(i) = cos(k pi (2i+1)/(2N)),

which the tests use as an exact oracle.  Eigenvalues are located by
Sturm-sequence bisection (``lowest_two_eigenvalues``), eigenvectors by one
twisted-factorization solve at each bisected value (``lowest_two_eigenpairs``;
Parlett & Dhillon, Linear Algebra Appl. 267, 1997), and
``solve_extrapolated`` removes the leading O(h^2) error by Richardson
extrapolation over nested grids.  Extrapolation needs only the eigenvalues
of the coarser grids, and the ground state comes from the finest grid, so
the coarser grids are solved for eigenvalues only; the finest grid solves
for the eigenvectors and keeps every certificate (finite vectors, both
residual checks, the positivity of the ground state).

Most of a solve is Sturm sweeps, so the two bisections of one operator share
their counts, and every grid starts from a guess: level 0 from a grid a
quarter its size (for n0 >= 256), level 1 from level 0, finer levels from
the value the coarser ones predict.  Newton steps on det(T - sigma I) move
each guess toward its eigenvalue, each step one Sturm sweep that also sums
d log|det| / d sigma (``kernels.sturm_newton``), and the bisection starts
from counts taken at those steps and around where they end.  A count only
ever decides a midpoint that plain bisection would decide the same way (the
count is monotone in the shift), so this reuse changes the number of
sweeps, never an eigenvalue.  Per eigenvalue on the benchmark's 39 cases,
levels 0, 1 and 2 took 43 (no guess), 28 and 11 Sturm sweeps before the
quarter grid and the Newton steps; now they take 8.6, 8.6 and 9.6 Sturm
sweeps plus 2.2, 1.8 and 1.0 Newton sweeps (each costs about 1.8 Sturm
sweeps), and the quarter grid 42.5 sweeps of a quarter the cells.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .potentials import PotentialSpec, break_points, evaluate

__all__ = [
    "Grid",
    "DiscreteOperator",
    "Eigenpair",
    "SpectralResult",
    "SolverError",
    "assemble",
    "lowest_two_eigenvalues",
    "lowest_two_eigenpairs",
    "solve_extrapolated",
    "default_cell_count",
]

_RESIDUAL_REL = 1e-8
_GALLOP_START = 16.0  # first half-width around a guess, in bisection tolerances
_GALLOP_GROWTH = 16.0
_NEWTON_STEPS = 8  # most Newton sweeps per guessed eigenvalue
_THIN_LAYER = math.sqrt(np.finfo(float).eps)  # in units of L, see _nested_grids


class SolverError(RuntimeError):
    """Raised when the eigensolver cannot certify its result."""


@dataclass(frozen=True)
class Grid:
    """Cell-centred grid on (-L/2, L/2) with a cell face at every break.

    The interior ``breaks`` cut the interval into layers, and layer k is
    split into ``counts[k]`` equal cells; node i is the centre of cell i.
    ``Grid(L, N)`` is the uniform grid, nodes at -L/2 + (i + 1/2) L/N.
    """

    L: float
    N: int
    breaks: Tuple[float, ...] = ()
    counts: Tuple[int, ...] = ()

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValueError(f"grid length must be finite and > 0, got {self.L}")
        if not self.counts:
            object.__setattr__(self, "counts", (self.N,))
        counts = self.counts
        if len(counts) != len(self.breaks) + 1 or sum(counts) != self.N or min(counts) < 1:
            raise ValueError("a grid needs one cell count >= 1 per layer, summing to N")
        if not all(w > 0.0 for _, _, w in self._layers()):
            raise ValueError("grid breaks must be increasing and inside (-L/2, L/2)")
        if self.N < 16:
            raise ValueError(f"grid needs at least 16 cells, got {self.N}")
        # numpy refuses an array of more than intp.max bytes
        if self.N > np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise ValueError(
                f"grid of N = {self.N:.3e} cells on L = {self.L} is larger than "
                "numpy can index as an array of doubles"
            )
        # every entry of the operator is at most 1/h^2 in the smallest width h,
        # and the eigensolver squares the off-diagonal entries
        h = min(w for _, _, w in self._layers())
        h2 = h * h
        if not (h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"grid spacing h = {h:.3e} is too small: 1/h^2 overflows")
        if not math.isfinite((1.0 / h2) * (1.0 / h2)):
            raise ValueError(f"grid spacing h = {h:.3e} is too small: 1/h^4 overflows")

    def _layers(self):
        """(left edge, cell count, cell width) of each layer."""
        edges = (-0.5 * self.L, *self.breaks, 0.5 * self.L)
        return [(a, c, (b - a) / c) for a, b, c in zip(edges, edges[1:], self.counts)]

    @property
    def h(self) -> float:
        """The largest cell width (L/N on a uniform grid)."""
        return max(w for _, _, w in self._layers())

    def widths(self) -> np.ndarray:
        return np.repeat([w for _, _, w in self._layers()], self.counts)

    def nodes(self) -> np.ndarray:
        return np.concatenate([a + (np.arange(c) + 0.5) * w for a, c, w in self._layers()])


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

    ``phi0`` is L2(I)-normalized (sum phi0_i^2 w_i = 1 over the cell widths
    of ``grid``) and positive.  ``error_estimate`` holds, per eigenvalue,
    |extrapolant - finest raw value| plus the solver floor of the finest
    grid, eps |y|^T |T| |y| + max(1e-13, 1e-12 |lambda|) for the eigenvector
    y (eps ||T|| on a uniform grid).  ``observed_order`` is the measured
    convergence order from the last three grids (nan when a difference is
    within that floor, or levels == 2).  ``raw_lambda0`` / ``raw_lambda1``
    keep the per-level values the extrapolation consumed (coarsest first).
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
    cells = per_unit * L
    if not math.isfinite(cells):
        raise ValueError(
            f"L = {L} at {per_unit} cells per unit needs more cells than numpy can index"
        )
    return max(floor, int(math.ceil(cells)))


def assemble(p: PotentialSpec, grid: Grid) -> DiscreteOperator:
    """Finite-volume operator W^-1/2 A W^-1/2 for cell widths w_i and centre
    spacings d_i = (w_i + w_{i+1})/2:

        diag_i = 1/(w_i d_{i-1}) + 1/(w_i d_i) + v(x_i),
        off_i  = -1/(d_i sqrt(w_i w_{i+1})),

    with no flux term beyond either end (Neumann).  v is sampled at the
    cell centres; with a face at every break that is the cell average of a
    step and second-order accurate for the capped family.  On a uniform grid
    this is the 3-point stencil, 2/h^2 + v (1/h^2 at the ends) and -1/h^2.
    """
    w = grid.widths()
    d = 0.5 * (w[:-1] + w[1:])
    diag = np.zeros(grid.N)
    diag[:-1] += 1.0 / (w[:-1] * d)
    diag[1:] += 1.0 / (w[1:] * d)
    diag = diag + evaluate(p, grid.nodes())
    off = -1.0 / (d * np.sqrt(w[:-1] * w[1:]))
    return DiscreteOperator(diag, off)


def _nested_grids(p: PotentialSpec, L: float, n0: int, levels: int):
    """Grids of about n0, 2 n0, ... cells with a face at every break of p: a
    layer of length l gets max(1, round(n0 l / L)) equal cells, doubled per
    level so that the grids are nested.

    A layer narrower than sqrt(eps) L keeps one cell at every level.  Split
    into cells of width w, it would couple them by 1/w^2, whose rounding
    moves lambda by ~eps/l (a 1-ulp layer's grid falls apart); kept whole,
    it biases lambda by ~|v| l^2, which refinement does not remove but which
    stays near rounding level below that width.
    """
    breaks = break_points(p, L)
    edges = (-0.5 * L, *breaks, 0.5 * L)
    lengths = [b - a for a, b in zip(edges, edges[1:])]
    grids = []
    for j in range(levels):
        counts = tuple(1 if ell < _THIN_LAYER * L else max(1, round(n0 * (ell / L))) << j
                       for ell in lengths)
        grids.append(Grid(L, sum(counts), breaks, counts))
    return grids


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


def _newton(diag, off2, pivmin, guess, gap, counts, deflate=None):
    """Newton iterates sigma <- sigma - 1/s on det(T - sigma I) from guess,
    s = d log|det| / d sigma, deflated by the eigenvalue ``deflate`` when it
    is given (s + 1/(deflate - sigma), Maehly).  Stops once step^2 <= tol
    gap / 4, where the next error is within a quarter of the bisection
    tolerance tol for eigenvalues about ``gap`` apart, or when a step is not
    finite or not shorter than the one before, or after _NEWTON_STEPS
    sweeps.  Each sweep's Sturm count goes into ``counts``; returns the last
    iterate."""
    sigma = guess
    last = math.inf
    for _ in range(_NEWTON_STEPS):
        if not math.isfinite(sigma) or sigma == deflate:
            break
        counts[sigma], dlogdet = kernels.sturm_newton(diag, off2, sigma, pivmin)
        if deflate is not None:
            dlogdet += 1.0 / (deflate - sigma)
        if dlogdet == 0.0:
            break
        step = 1.0 / dlogdet
        if not abs(step) < last:  # a nan step fails this too
            break
        sigma -= step
        if step * step <= 0.25 * max(1e-13, 1e-12 * abs(sigma)) * gap:
            break
        last = abs(step)
    return sigma


def _kernel_inputs(op: DiscreteOperator):
    """(diag, off, off2, pivmin) of the operator as the kernels take them.

    ``off2``, the squared off-diagonal, is a Python list: every Sturm sweep
    of this operator iterates it as it is, so it is converted here once per
    operator rather than once per sweep."""
    diag = np.ascontiguousarray(op.diag, dtype=float)
    off = np.ascontiguousarray(op.offdiag, dtype=float)
    if diag.size < 2:
        raise SolverError("need at least a 2x2 operator")
    off2 = off * off
    # zero-pivot guard for the Sturm and twisted-factorization recurrences;
    # far below any eigenvalue tolerance but large enough that off/pivmin
    # cannot overflow the eigenvector recurrence
    pivmin = max(off2.max(), 1.0) * 1e-250
    return diag, off, off2.tolist(), pivmin


def _bisect_lowest_two(inputs, near):
    """Bisected (lambda0, lambda1) of the operator with these kernel inputs,
    not yet checked for separation; see lowest_two_eigenvalues."""
    diag, off, off2, pivmin = inputs
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
        guess0, guess1 = float(near[0]), float(near[1])
        gap = abs(guess1 - guess0)
        guess0 = _newton(diag, off2, pivmin, guess0, gap, counts)
        _gallop(diag, off2, pivmin, 0, guess0, lo, hi, counts)
    lam0 = kernels.bisect_eigenvalue(diag, off2, 0, lo, hi, pivmin, counts)
    if near is not None:
        guess1 = _newton(diag, off2, pivmin, guess1, gap, counts, deflate=lam0)
        _gallop(diag, off2, pivmin, 1, guess1, lo, hi, counts)
    lam1 = kernels.bisect_eigenvalue(diag, off2, 1, max(lo, lam0 - 1e-13), hi, pivmin,
                                     counts)
    return lam0, lam1


def _separated(lam0, lam1):
    if not lam0 < lam1:
        # can only happen if the bisection tolerances overlap; 1-d Neumann
        # operators have simple eigenvalues
        raise SolverError(f"eigenvalues not separated: {lam0} vs {lam1}")
    return lam0, lam1


def lowest_two_eigenvalues(
    op: DiscreteOperator, near: Optional[Tuple[float, float]] = None
) -> Tuple[float, float]:
    """Lowest two eigenvalues of the tridiagonal operator, by bisection on
    the Sturm sign count (absolute tolerance max(1e-13, 1e-12 |lambda|)).

    ``near`` is a guess (lambda0, lambda1), e.g. from a coarser grid.  Newton
    steps on the determinant move each guess toward its eigenvalue (lambda1
    deflated by the bisected lambda0), and the bisections start from Sturm
    counts taken at those steps and around where they end.  It changes only
    how many Sturm sweeps the bisections take, never the values returned.
    Raises :class:`SolverError` if the two values are not separated.
    """
    return _separated(*_bisect_lowest_two(_kernel_inputs(op), near))


def lowest_two_eigenpairs(
    op: DiscreteOperator, near: Optional[Tuple[float, float]] = None
) -> Tuple[Eigenpair, Eigenpair]:
    """Lowest two eigenpairs of the tridiagonal operator.

    Eigenvalues from :func:`lowest_two_eigenvalues` (``near`` is passed on
    and never changes the result); each eigenvector from one
    twisted-factorization solve at the bisected value, which is one
    inverse-iteration step from the best unit start vector.  The second
    vector is orthogonalized against the first once.  The ground vector is
    sign-fixed positive.  Raises :class:`SolverError` on a non-finite
    vector, on a second vector that orthogonalization reduces to rounding
    (norm at most N eps), on a residual above 1e-8 ||T|| or on a ground
    vector that is not positive; each message reports lambda1 - lambda0
    and eps ||T||.
    """
    inputs = _kernel_inputs(op)
    lam0, lam1 = _separated(*_bisect_lowest_two(inputs, near))
    diag, off, _, pivmin = inputs
    norm_t = op.norm_inf()
    # a split near eps*||T|| leaves the solves unable to tell the two
    # eigenvectors apart; the errors below report how close it is
    split = (f"lambda1 - lambda0 = {lam1 - lam0:.3e}, "
             f"eps*||T|| = {np.finfo(float).eps * norm_t:.3e}")

    vecs = []
    for lam, state in ((lam0, "ground state"), (lam1, "first excited state")):
        vec, _, finite = kernels.inverse_iteration(diag, off, lam, pivmin)
        if not finite:
            raise SolverError(f"the {state} vector has a non-finite component ({split})")
        vecs.append(vec)
    vec0, vec1 = vecs
    if vec0.sum() < 0.0:
        vec0 = -vec0
    # the vectors are unit: a remainder within the N eps rounding of this
    # step is no direction at all
    vec1 = vec1 - (vec1 @ vec0) * vec0
    norm1 = float(np.linalg.norm(vec1))
    if not norm1 > vec1.size * np.finfo(float).eps:
        raise SolverError(
            f"the first excited state vector vanishes against the ground state ({split})"
        )
    vec1 = vec1 / norm1
    for lam, vec, which in ((lam0, vec0, "0"), (lam1, vec1, "1")):
        resid = float(np.linalg.norm(op.matvec(vec) - lam * vec))
        if resid > _RESIDUAL_REL * norm_t:
            raise SolverError(
                f"eigenpair {which} residual {resid:.3e} exceeds "
                f"{_RESIDUAL_REL:.0e} * ||T|| ({split})"
            )
    # Positivity up to the resolution of the solve: components the true
    # ground state drives below ~1e-16 of its peak (deep tunneling) come out
    # as rounding noise of either sign; clamp them to the measurement floor.
    # Anything more negative means a genuinely wrong vector.
    peak = float(vec0.max())
    if vec0.min() <= 0.0:
        if vec0.min() < -1e-12 * peak:
            raise SolverError(f"ground-state vector is not strictly positive ({split})")
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


def _observed_order(values, floor: float) -> float:
    # differences within rounding carry no order information (e.g. lambda0 =
    # 0 for the free operator, or a constant potential's exact shift).  A
    # level difference carries the floors of both its levels, and `floor`,
    # the finest level's, is the largest of them.
    if len(values) < 3:
        return math.nan
    d1 = values[-3] - values[-2]
    d2 = values[-2] - values[-1]
    if abs(d1) <= 2.0 * floor or abs(d2) <= 2.0 * floor:
        return math.nan
    return math.log2(abs(d1 / d2))


def solve_extrapolated(
    p: PotentialSpec, L: float, n0: int = 256, levels: int = 3
) -> SpectralResult:
    """Solve on grids n0, 2 n0, ..., Richardson-extrapolate both eigenvalues,
    and keep the ground state from the finest grid.

    The coarser grids are solved for eigenvalues only
    (:func:`lowest_two_eigenvalues`): the extrapolation uses nothing else of
    them.  Only the finest grid runs :func:`lowest_two_eigenpairs`, whose
    eigenvectors are checked for finiteness, residual and positivity, so
    only that grid can raise a :class:`SolverError` about an eigenvector.

    The grids have a face at every break of the potential and are nested
    (every cell halved per level), so the error expands in even powers of
    the cell widths.  Warns (RuntimeWarning) when the observed convergence
    order strays from 2 by more than 0.5; the extrapolated values are still
    returned.
    """
    if not (L > 0.0 and math.isfinite(L)):
        raise ValueError(f"interval length must be finite and > 0, got {L}")
    if n0 < 64:
        raise ValueError(f"coarsest grid needs n0 >= 64, got {n0}")
    if levels not in (2, 3, 4):
        raise ValueError(f"levels must be 2, 3 or 4, got {levels}")

    lam0s, lam1s = [], []
    for j, grid in enumerate(_nested_grids(p, L, n0, levels)):
        near = None
        if j == 0 and n0 >= 256:
            # guessed from a grid a quarter the size, not checked for
            # separation: a guess never changes a value
            quarter = _nested_grids(p, L, n0 // 4, 1)[0]
            near = _bisect_lowest_two(_kernel_inputs(assemble(p, quarter)), None)
        elif j == 1:
            near = (lam0s[0], lam1s[0])
        elif j >= 2:
            # the O(h^2) error quarters per halving of h
            near = (lam0s[-1] + (lam0s[-1] - lam0s[-2]) / 4.0,
                    lam1s[-1] + (lam1s[-1] - lam1s[-2]) / 4.0)
        op = assemble(p, grid)
        if j < levels - 1:
            lam0_j, lam1_j = lowest_two_eigenvalues(op, near=near)
        else:
            ground, excited = lowest_two_eigenpairs(op, near=near)
            lam0_j, lam1_j = ground.value, excited.value
        lam0s.append(lam0_j)
        lam1s.append(lam1_j)

    # what no level difference can show: the bisection tolerance, and the
    # first-order shift eps |y|^T |T| |y| from rounding every entry of the
    # finest operator by a relative eps (eps ||T|| on a uniform grid)
    eps = np.finfo(float).eps
    limits, errors, orders = [], [], []
    for which, values, pair in (("lambda0", lam0s, ground), ("lambda1", lam1s, excited)):
        y = np.abs(pair.vector)
        rounding = eps * float(np.abs(op.diag) @ (y * y)
                               + 2.0 * np.abs(op.offdiag) @ (y[:-1] * y[1:]))
        floor = rounding + max(1e-13, 1e-12 * abs(values[-1]))
        order = _observed_order(values, floor)
        if abs(order - 2.0) > 0.5:
            warnings.warn(
                f"observed convergence order {order:.2f} for {which} deviates from 2",
                RuntimeWarning,
                stacklevel=2,
            )
        limit = _richardson(values)
        limits.append(limit)
        errors.append(abs(limit - values[-1]) + floor)
        orders.append(order)
    lam0, lam1 = limits
    gap = lam1 - lam0
    if not gap > 0.0:
        raise SolverError(f"extrapolated gap is not positive: {gap}")

    phi0 = ground.vector / np.sqrt(grid.widths())  # l2 -> L2(I) normalization
    phi0.flags.writeable = False
    return SpectralResult(
        lambda0=float(lam0),
        lambda1=float(lam1),
        gap=float(gap),
        grid=grid,
        phi0=phi0,
        inf_phi0=float(phi0.min()),
        sup_phi0=float(phi0.max()),
        error_estimate=(float(errors[0]), float(errors[1])),
        observed_order=(orders[0], orders[1]),
        raw_lambda0=tuple(lam0s),
        raw_lambda1=tuple(lam1s),
    )
