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
the coarser grids are solved for eigenvalues only.  The finest grid solves
for the ground vector and keeps its certificates (a finite vector, its
residual, its positivity).  The excited vector would feed nothing but
lambda1's rounding floor, which eps ||T||_inf bounds, so it is solved,
once, only on a graded grid where that bound is loose (see
``lowest_two_eigenpairs``).  On any unsplit operator, whichever vectors are
solved, a lambda1 - lambda0 within the ground vector's rounding floor
raises, since nothing then tells the two states apart.

Most of a solve is Sturm sweeps.  The rows of one layer's equal cells
are equal, and a Sturm sweep takes each such run in O(1) by the discrete
Pruefer angle (``kernels._run_phase``), so a sweep costs about as much
as its few other rows, whatever N; the eigenvector's twisted solve fills
a run's pivots from the same phase in numpy, with no Python work per
row.  Every potential of the capped family is
even, and so is a centred step; a grid with symmetric breaks and counts
places its nodes mirror-symmetrically, so such a potential assembles a
mirror-symmetric operator, whose diagonal and off-diagonal are bitwise
palindromes.  Such an operator splits into an even and an odd half of
about N/2 cells (Cantoni & Butler, Linear Algebra Appl. 13, 1976):
lambda0 is the lowest eigenvalue of the even half, lambda1 that of the odd
half, and each eigenvector is one solve on its half mirrored back to length
N.  Each value then costs half the cells per sweep, and a split between
lambda0 and lambda1 near eps ||T|| can no longer mix the two vectors.  For
even N the two halves differ only in their first row, which enters no
run, and share one run-length form.  Any
other operator runs the general path on the whole matrix, whose two
bisections share their Sturm counts.

Every search starts from bounds that hold for every assembled operator,
which is positive semidefinite (v >= 0 in every family), or from a guess
nearer than they are; a guess or a bound only places Sturm counts, so it
moves no value.  Level 0 of a split operator guesses for itself: its
halves take Newton steps on det(T - sigma I) from below, the even half's
from max(0, its smallest Gershgorin row sum) less a rounding margin, the
odd half's from where the even half's ended, below lambda0 <= lambda1.
From below the iterates rise monotonically to the lowest eigenvalue,
quadratically once close, and the guess is the iterate whose step falls
within a relative _GUESS_WIDTH.  Level 0 of an unsplit operator takes its
guess from a grid a quarter its size (for n0 >= 256), whose two
bisections, sharing their counts, stop at a relative width of
_GUESS_WIDTH; they take seeds at that lower bound, at the constant
vector's Rayleigh quotient (above lambda0) and at the larger Ritz value
of T on the span of the constant vector and the free first mode (above
lambda1).  Level 1 starts from level 0, finer levels from the value the
coarser ones predict.  From a guess, Newton steps move it toward its
eigenvalue, each step one Sturm sweep that also sums d log|det| / d
sigma (``kernels.sturm_newton``), and the bisection starts from counts
taken at those steps and in a window around where they end, as wide as
the error the last step predicts (``_gallop``).  Each matrix, the whole
operator or one half, keeps its counts in one ``kernels.SturmCounts``,
which the seeds, the Newton steps, the window and the bisection all ask.
It settles a question from a kept count wherever the count's
monotonicity in the shift, or a shifted diagonal that rounds to one
already counted, decides it as a sweep would, so this reuse changes the
number of sweeps, never an eigenvalue.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .potentials import PotentialSpec, _check_length, break_points, evaluate

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
_NEWTON_STEPS = 8  # most Newton sweeps per guessed eigenvalue
_GUESS_WIDTH = 1e-3  # relative step, or bisection width, at which a guess stops
_GALLOP_WIDE = 16.0  # first half-width, in tolerances, where Newton says nothing
_EPS = np.finfo(float).eps
_THIN_LAYER = math.sqrt(_EPS)  # in units of L, see _nested_grids


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
        _check_length(self.L)
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
        """Cell centres.  On a mirror-symmetric grid (symmetric breaks and
        counts) the right half is the left half mirrored, x_{N-1-i} = -x_i
        bitwise, so that an even potential assembles a palindrome."""
        x = np.concatenate([a + (np.arange(c) + 0.5) * w for a, c, w in self._layers()])
        mirrored = tuple(-b for b in reversed(self.breaks))
        if self.counts == self.counts[::-1] and self.breaks == mirrored:
            half = self.N // 2
            x[self.N - half:] = -x[half - 1::-1]
            if self.N % 2:
                x[half] = 0.0
        return x


@dataclass(frozen=True)
class DiscreteOperator:
    """Symmetric tridiagonal matrix: main diagonal and off-diagonal (which
    varies where the cell width changes, at layer faces)."""

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
    """An eigenvalue, its l2-normalized vector (None where it was not
    solved) and its rounding floor: the first-order shift eps |y|^T |T| |y|
    of the value from rounding every entry of T by a relative eps, for the
    vector y returned, or its bound eps ||T||_inf where no vector was."""

    value: float
    vector: Optional[np.ndarray]
    floor: float


@dataclass(frozen=True)
class SpectralResult:
    """Extrapolated lowest two eigenvalues plus the finest-grid ground state.

    ``phi0`` is L2(I)-normalized (sum phi0_i^2 w_i = 1 over the cell widths
    of ``grid``) and positive.  ``error_estimate`` holds, per eigenvalue,
    |extrapolant - finest raw value| plus the solver floor of the finest
    grid, r + kernels.tolerance(lambda), with r the finest eigenpair's
    ``Eigenpair.floor``: eps |y|^T |T| |y| of the ground vector for lambda0
    (eps ||T|| on a uniform grid), and for lambda1 its bound eps ||T||_inf,
    or the excited vector's own floor where that bound exceeds twice
    lambda0's (a graded grid).  ``observed_order`` is the measured
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


def _gallop(counts, k, guess, error, lo, hi):
    """Count at guess -/+ w, each side widening 4-fold, until count(guess - w)
    <= k < count(guess + w) or the side leaves the Gershgorin enclosure
    (lo, hi).  w starts at the error the last Newton step predicts, but at
    no less than the bisection tolerance at guess nor than the rounding
    floor eps ||T|| / 20 (hi >= ||T||), to which the Newton iterate settles
    however short its steps.  When no Newton step passed its stop test
    (error inf), w starts at 16 tolerances."""
    if not math.isfinite(guess):
        return
    tol = kernels.tolerance(guess)
    if error < math.inf:
        width = max(tol, error, _EPS * hi / 20.0)
    else:
        width = _GALLOP_WIDE * tol
    for side in (-1.0, 1.0):
        w = width
        while lo < guess + side * w < hi:
            if counts.exceeds(guess + side * w, k) == (side > 0.0):
                break  # this side encloses eigenvalue k
            w *= 4.0


def _newton(counts, guess, gap, floor):
    """Newton iterates sigma <- sigma - 1/s on det(T - sigma I) from guess,
    s = d log|det| / d sigma.  A step of size t leaves an error of about
    t^2 / gap for the next eigenvalue ``gap`` away (None where no guess
    tells), and at most t; from the second step on, the contraction the last
    two steps t', t show, t^3 / t'^2, is an estimate too, and the smaller
    one is taken.  Stops once that error is within a quarter of the
    bisection tolerance, or once t is within the rounding floor ``floor``,
    below which the steps are rounding noise however close the eigenvalues;
    or when a step is not finite or not shorter than the one before, or
    after _NEWTON_STEPS sweeps.  Each sweep's Sturm count
    is kept in ``counts`` (a kernels.SturmCounts).  Returns the last iterate,
    the error its last step predicts (inf when no step passed the stop
    test) and the gap the last contraction shows, t'^2 / t (None before a
    second step): the error t^2 / gap read backwards, which sums over every
    other eigenvalue and so lies below the distance to the nearest."""
    sigma = guess
    last = math.inf
    seen = None
    for _ in range(_NEWTON_STEPS):
        if not math.isfinite(sigma):
            break
        dlogdet = counts.newton(sigma)
        if dlogdet == 0.0:
            break
        step = 1.0 / dlogdet
        size = abs(step)
        if not size < last:  # a nan step fails this too
            break
        sigma -= step
        error = size * min(1.0, size / gap) if gap is not None and gap > 0.0 else size
        if last < math.inf:
            error = min(error, size * (size / last) ** 2)
            seen = last * last / size
        if error <= 0.25 * kernels.tolerance(sigma) or size <= floor:
            return sigma, error, seen
        last = size
    return sigma, math.inf, seen


def _mirror_symmetric(op: DiscreteOperator) -> bool:
    """Whether _mirror_halves splits the operator: at least 4 cells, a
    negative off-diagonal, and a diagonal and off-diagonal that are bitwise
    palindromes."""
    diag, off = op.diag, op.offdiag
    return bool(diag.size >= 4 and np.all(off < 0.0) and np.array_equal(diag, diag[::-1])
                and np.array_equal(off, off[::-1]))


def _mirror_halves(op: DiscreteOperator):
    """The even and odd halves of a mirror-symmetric operator, or None.

    T is mirror-symmetric when its diagonal and off-diagonal are bitwise
    palindromes; with a negative off-diagonal, lambda0 is then the lowest
    eigenvalue of the even half and lambda1 that of the odd half (a Jacobi
    matrix's k-th eigenvector changes sign k times; Cantoni & Butler,
    Linear Algebra Appl. 13, 1976).  Each half acts on the right half of
    the vector.  For N = 2m both are the lower-right m x m block, with the
    centre coupling c added to (even) or taken off (odd) its first diagonal
    entry.  For N = 2m + 1 the even half adds the centre node, coupled by
    sqrt(2) c, and the odd half is the block alone.  Operators below 4
    cells, or with an off-diagonal entry >= 0, are not split."""
    if not _mirror_symmetric(op):
        return None
    diag, off = op.diag, op.offdiag
    n = diag.size
    m = n // 2
    if n % 2 == 0:
        even, odd = diag[m:].copy(), diag[m:].copy()
        even[0] += off[m - 1]
        odd[0] -= off[m - 1]
        return DiscreteOperator(even, off[m:]), DiscreteOperator(odd, off[m:])
    coupled = off[m:].copy()
    coupled[0] *= math.sqrt(2.0)
    return DiscreteOperator(diag[m:], coupled), DiscreteOperator(diag[m + 1:], off[m + 1:])


def _unfold(y, n, parity):
    """The unit length-n vector, even (parity 1.0) or odd (-1.0), whose
    right half solves that half of the operator (see _mirror_halves); for
    odd n the even half's first entry is the centre, scaled back by
    sqrt(2)."""
    m = n // 2
    x = y[y.size - m:]
    vec = np.empty(n)
    vec[n - m:] = x
    vec[:m] = parity * x[::-1]
    if n % 2:
        vec[m] = math.sqrt(2.0) * y[0] if parity > 0.0 else 0.0
    return vec * math.sqrt(0.5)


def _lower_bound(op: DiscreteOperator) -> Tuple[float, float]:
    """A lower bound on every eigenvalue of an assembled operator or of one
    of its halves, and the bound hi >= ||T||_inf it takes its margin from:
    max(0, the smallest Gershgorin row sum) less 4 eps hi, hi = max |diag|
    + 2 max |off|.  Such a matrix is positive semidefinite, T = W^-1/2 K
    W^-1/2 + diag(v) with v >= 0 for every family, and so is each half,
    which acts on an invariant subspace of T; on a graded grid the smallest
    row sum lies below 0.  The margin covers the rounding of T's entries."""
    edges = np.abs(op.offdiag)
    rows = op.diag.copy()
    rows[:-1] -= edges
    rows[1:] -= edges
    hi = float(np.abs(op.diag).max()) + 2.0 * float(edges.max())
    return max(0.0, float(rows.min())) - 4.0 * _EPS * hi, hi


def _upper_bounds(op: DiscreteOperator) -> Tuple[float, float]:
    """Upper bounds on lambda0 and lambda1: the Rayleigh quotient of the
    constant vector, which is T's mean row sum, and the larger
    Rayleigh-Ritz value of T on span{1, c}, c_i = cos(pi (i + 1/2) / N)
    (Courant-Fischer: any two independent vectors bound lambda1; these two
    are T's lowest eigenvectors where v is constant)."""
    n = op.diag.size
    q0 = np.full(n, 1.0 / math.sqrt(n))
    q1 = np.cos(math.pi * (np.arange(n) + 0.5) / n)
    q1 -= kernels.dot(q1, q0) * q0
    q1 /= kernels.norm(q1)
    t0 = op.matvec(q0)
    a, b, c = kernels.dot(q0, t0), kernels.dot(q1, t0), kernels.dot(q1, op.matvec(q1))
    return a, 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)


def _newton_from_below(counts, sigma, floor):
    """Newton iterates sigma <- sigma - 1/s on det(T - sigma I) from sigma
    below T's lowest eigenvalue, s = d log|det| / d sigma = -sum_j 1 /
    (lambda_j - sigma).  Each step, 1 / sum_j 1 / (lambda_j - sigma), is at
    most lambda0 - sigma, so the iterates rise toward lambda0 and never pass
    it, quadratically once lambda0 - sigma is small against the next
    eigenvalue's distance.  Stops once a step is within _GUESS_WIDTH of the
    iterate or within the rounding floor ``floor``, when s is not negative
    (sigma at or past lambda0 in rounding), or after _NEWTON_STEPS sweeps;
    it never bisects.  Each sweep's count is kept in ``counts``.  Returns
    the last iterate: a guess, which places counts and moves no value."""
    for _ in range(_NEWTON_STEPS):
        dlogdet = counts.newton(sigma)
        if not dlogdet < 0.0:
            break
        step = -1.0 / dlogdet
        sigma += step
        if step <= max(_GUESS_WIDTH * abs(sigma), floor):
            break
    return sigma


def _bisect_lowest_two(op: DiscreteOperator, near, rel_width=0.0):
    """Bisected (lambda0, lambda1) of the operator, not yet checked for
    separation, and per eigenvalue the kernels.SturmCounts of the matrix it
    was bisected on and its parity (1.0 even, -1.0 odd; None unsplit); see
    lowest_two_eigenvalues.  ``rel_width`` > 0 stops each bisection at that
    relative width instead of the tolerance: a guess, not a result."""
    if op.diag.size < 2:
        raise SolverError("need at least a 2x2 operator")
    halves = _mirror_halves(op)
    if halves is None:
        # one matrix holds both eigenvalues (k = 0 and 1), and both
        # bisections share its counts
        counts = kernels.SturmCounts(op.diag, op.offdiag)
        sectors = ((counts, 0, None), (counts, 1, None))
        if near is None:
            # Counts only decide midpoints without a sweep, never move one,
            # so these seeds change the cost of the bisections and not their
            # results: a lower bound on lambda0 and upper bounds on lambda0
            # and lambda1
            counts.exceeds(_lower_bound(op)[0], 0)
            for k, bound in enumerate(_upper_bounds(op)):
                counts.exceeds(bound, k)
    else:
        even, odd = halves
        counts = kernels.SturmCounts(even.diag, even.offdiag)
        if op.diag.size % 2:
            other = kernels.SturmCounts(odd.diag, odd.offdiag)
        else:
            # for even N the halves differ only in row 0, which enters no
            # run: they share one run-length form
            other = counts.with_first_diagonal(float(odd.diag[0]))
        sectors = ((counts, 0, 1.0), (other, 0, -1.0))
        if near is None:
            # each half's lowest eigenvalue guessed by Newton from below: the
            # even half's from the lower bound, the odd half's from the even
            # half's iterate, which lies below lambda0 <= lambda1
            start, hi = _lower_bound(even)
            start = _newton_from_below(counts, start, _EPS * hi)
            near = (start, _newton_from_below(other, start, _EPS * hi))
    if near is not None:
        guesses = (float(near[0]), float(near[1]))
        gap = abs(guesses[1] - guesses[0])
        seen = None
    lams = []
    for j, (counts, k, parity) in enumerate(sectors):
        diag, off = counts.diag, counts.off
        radius = 2.0 * np.abs(off).max()
        lo = float(diag.min() - radius)
        hi = float(np.abs(diag).max() + radius)  # Gershgorin: bounds every eigenvalue
        if near is not None:
            # On the unsplit matrix lambda0 and lambda1 each have the other
            # lambda1 - lambda0 away.  A half's next eigenvalue is
            # lambda2 > lambda1 (even) or lambda3 (odd): lambda1 - lambda0
            # bounds the even half's gap from below.  The odd half's gap is
            # at least lambda2 - lambda1 (interlacing: lambda3 >= lambda2),
            # and lambda2 - lambda0 is at least the gap the even half's last
            # Newton contraction showed, where it showed one.  Else
            # lambda1 - lambda0 stands in for lambda2 - lambda1, which it
            # does not exceed on a flat spectrum (1 : 3) or below a central
            # barrier (a split pair).  Newton only places counts, so an
            # estimate that is off costs sweeps, never a value.
            next_gap = gap
            if parity == -1.0 and seen is not None and seen > guesses[1] - lams[0]:
                next_gap = seen - (guesses[1] - lams[0])
            guess, error, seen = _newton(counts, guesses[j], next_gap, _EPS * hi)
            _gallop(counts, k, guess, error, lo, hi)
        if k:
            lo = max(lo, lams[0] - 1e-13)
        lams.append(kernels.bisect_eigenvalue(counts, k, lo, hi, rel_width))
    return lams, sectors


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
    the Sturm sign count (absolute tolerance kernels.tolerance(lambda)).

    A mirror-symmetric operator (bitwise palindromes, negative off-diagonal)
    is split into its even and odd halves, and each value is the lowest
    eigenvalue of one half: half the cells per sweep, and no count of one
    value depends on the other.  Any other operator is bisected whole, the
    two bisections sharing their Sturm counts.

    ``near`` is a guess (lambda0, lambda1), e.g. from a coarser grid.  Newton
    steps on the determinant move each guess toward its eigenvalue, and
    the bisections start from Sturm counts taken at those steps and around
    where they end.  Without one, a split operator guesses each value by
    Newton steps from a lower bound (see the module docstring), and an
    unsplit one seeds its counts at bounds on lambda0 and lambda1.  Guesses
    and seeds change only how many Sturm sweeps the bisections take, never
    the values returned.  Raises :class:`SolverError` if the two values are
    not separated.
    """
    return _separated(*_bisect_lowest_two(op, near)[0])


def _rounding(op: DiscreteOperator, vec: np.ndarray) -> float:
    """eps |y|^T |T| |y| for the unit vector y = ``vec``: the first-order
    shift of its eigenvalue from rounding every entry of T by a relative
    eps.  At most eps ||T||_inf."""
    y = np.abs(vec)
    return _EPS * (kernels.dot(np.abs(op.diag), y * y)
                   + 2.0 * kernels.dot(np.abs(op.offdiag), y[:-1] * y[1:]))


def lowest_two_eigenpairs(
    op: DiscreteOperator, near: Optional[Tuple[float, float]] = None, *, excited: bool = True
) -> Tuple[Eigenpair, Eigenpair]:
    """Lowest two eigenpairs of the tridiagonal operator, each with its
    rounding floor.

    Eigenvalues from :func:`lowest_two_eigenvalues` (``near`` is passed on
    and never changes the result); each eigenvector from one
    twisted-factorization solve at the bisected value, which is one
    inverse-iteration step from the best unit start vector.  A split
    operator solves on the half that holds the value and mirrors the
    solution back to length N, even for lambda0 and odd for lambda1, so a
    split between lambda0 and lambda1 near eps ||T|| cannot mix the two
    vectors.  The certificates run on the full vectors against the full
    operator: the ground vector is sign-fixed positive, and the second
    vector is orthogonalized against it once.  Raises :class:`SolverError`
    on a non-finite vector, on a residual above 1e-8 ||T||, on a ground
    vector that is not positive, on a second vector that orthogonalization
    reduces to rounding (norm at most N eps), and, on an unsplit operator,
    where lambda1 - lambda0 is at most the ground vector's rounding floor,
    below which the two states may mix unseen; each message reports
    lambda1 - lambda0 and eps ||T||.

    ``excited=False`` solves the excited vector only where lambda1's floor
    needs it: where eps ||T||_inf, a bound on eps |y|^T |T| |y| for every
    unit y, exceeds twice the ground vector's floor (a graded grid, whose
    thinnest cell raises ||T||_inf over what either vector sees).
    Elsewhere the second pair's vector is None and its floor that bound.
    """
    lams, sectors = _bisect_lowest_two(op, near)
    lam0, lam1 = _separated(*lams)
    norm_t = op.norm_inf()
    # a split near eps*||T|| leaves the unsplit solves unable to tell the
    # two eigenvectors apart; the errors below report how close it is
    split = f"lambda1 - lambda0 = {lam1 - lam0:.3e}, eps*||T|| = {_EPS * norm_t:.3e}"

    def solve(lam, sector, state):
        counts, _, parity = sector
        vec, _, finite = kernels.inverse_iteration(counts, lam)
        if not finite:
            raise SolverError(f"the {state} vector has a non-finite component ({split})")
        return vec if parity is None else _unfold(vec, op.diag.size, parity)

    def certify(lam, vec, which):
        resid = kernels.norm(op.matvec(vec) - lam * vec)
        if resid > _RESIDUAL_REL * norm_t:
            raise SolverError(
                f"eigenpair {which} residual {resid:.3e} exceeds "
                f"{_RESIDUAL_REL:.0e} * ||T|| ({split})"
            )

    vec0 = solve(lam0, sectors[0], "ground state")
    if vec0.sum() < 0.0:
        vec0 = -vec0
    certify(lam0, vec0, "0")
    # Positivity up to the resolution of the solve: components the true
    # ground state drives below ~1e-16 of its peak (deep tunneling) come out
    # as rounding noise of either sign; clamp them to the measurement floor.
    # Anything more negative means a genuinely wrong vector.
    ground = vec0
    peak = float(vec0.max())
    if vec0.min() <= 0.0:
        if vec0.min() < -1e-12 * peak:
            raise SolverError(f"ground-state vector is not strictly positive ({split})")
        ground = np.maximum(vec0, 1e-16 * peak)
    floor0 = _rounding(op, ground)
    if sectors[0][2] is None and lam1 - lam0 <= floor0:  # unsplit: one matrix holds both
        raise SolverError(
            "lambda1 - lambda0 is within the ground state's rounding floor "
            f"eps |y0|^T |T| |y0| = {floor0:.3e} ({split})"
        )
    vec1, floor1 = None, _EPS * norm_t
    if excited or floor1 > 2.0 * floor0:
        vec1 = solve(lam1, sectors[1], "first excited state")
        # the vectors are unit: a remainder within the N eps rounding of this
        # step is no direction at all
        vec1 = vec1 - kernels.dot(vec1, vec0) * vec0
        norm1 = kernels.norm(vec1)
        if not norm1 > vec1.size * _EPS:
            raise SolverError(
                f"the first excited state vector vanishes against the ground state ({split})"
            )
        vec1 = vec1 / norm1
        certify(lam1, vec1, "1")
        floor1 = _rounding(op, vec1)
    return Eigenpair(float(lam0), ground, floor0), Eigenpair(float(lam1), vec1, floor1)


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
    them.  The finest grid makes one :func:`lowest_two_eigenpairs` call
    with ``excited=False``, which certifies the ground vector, solves the
    excited one only where lambda1's rounding floor needs it (a graded
    grid), raises a :class:`SolverError` on an unsplit pair within the
    ground vector's floor, and returns each value with its floor.

    The grids have a face at every break of the potential and are nested
    (every cell halved per level), so the error expands in even powers of
    the cell widths.  Warns (RuntimeWarning) when the observed convergence
    order strays from 2 by more than 0.5; the extrapolated values are still
    returned.
    """
    _check_length(L)
    if n0 < 64:
        raise ValueError(f"coarsest grid needs n0 >= 64, got {n0}")
    if levels not in (2, 3, 4):
        raise ValueError(f"levels must be 2, 3 or 4, got {levels}")

    lam0s, lam1s = [], []
    for j, grid in enumerate(_nested_grids(p, L, n0, levels)):
        op = assemble(p, grid)
        near = None
        if j == 0 and n0 >= 256 and not _mirror_symmetric(op):
            # An unsplit operator's bisections start from a grid a quarter
            # the size, bisected to a relative _GUESS_WIDTH and not checked
            # for separation: a guess never changes a value.  A split one's
            # halves guess for themselves, by Newton steps from a lower bound
            # (_bisect_lowest_two), where a quarter grid would only add its
            # assembly: a sweep takes each run of equal rows in O(1), so its
            # sweeps cost what level 0's do.
            quarter = _nested_grids(p, L, n0 // 4, 1)[0]
            near = _bisect_lowest_two(assemble(p, quarter), None, _GUESS_WIDTH)[0]
        elif j == 1:
            near = (lam0s[0], lam1s[0])
        elif j >= 2:
            # the O(h^2) error quarters per halving of h
            near = (lam0s[-1] + (lam0s[-1] - lam0s[-2]) / 4.0,
                    lam1s[-1] + (lam1s[-1] - lam1s[-2]) / 4.0)
        if j < levels - 1:
            lam0_j, lam1_j = lowest_two_eigenvalues(op, near=near)
        else:
            ground, excited = lowest_two_eigenpairs(op, near=near, excited=False)
            lam0_j, lam1_j = ground.value, excited.value
        lam0s.append(lam0_j)
        lam1s.append(lam1_j)

    limits, errors, orders = [], [], []
    for which, values, pair in (("lambda0", lam0s, ground), ("lambda1", lam1s, excited)):
        # what no level difference can show: the bisection tolerance and the
        # finest operator's rounding floor
        floor = pair.floor + kernels.tolerance(values[-1])
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
