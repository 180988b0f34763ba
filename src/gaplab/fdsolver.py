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
row.  So ``assemble`` builds a step potential's operator from the grid's
layers: each layer gives its two face rows and one group of equal
interior rows, with the bits the formula over arrays gives them, and the
operator answers every question of the eigensolver (its run-length form,
its split, its bounds, ||T||_inf) from those few groups.  Only the finest
level reads N-vectors (its eigenvector, the certificates and phi0), and
an unsplit level 0 for its seeds' Rayleigh quotients.  The capped
family's rows differ along its tails, which every sweep reads row by row,
so its operator is held as arrays.  Every potential of the capped family
is even, and so is a centred step; a grid with symmetric breaks and
counts places its nodes mirror-symmetrically, so such a potential
assembles a mirror-symmetric operator, whose diagonal and off-diagonal
are palindromes.  Such an operator splits into an even and an odd half of
about N/2 cells (Cantoni & Butler, Linear Algebra Appl. 13, 1976):
lambda0 is the lowest eigenvalue of the even half, lambda1 that of the odd
half, and each eigenvector is one solve on its half mirrored back to length
N.  Each value then costs half the cells per sweep, and a split between
lambda0 and lambda1 near eps ||T|| can no longer mix the two vectors.  An
assembled operator is tested for the split, and split, on its groups.  For
even N the two halves differ only in their first row, which enters no
run: their run-length forms differ only in that row's diagonal entry.  Any
other operator runs the general path on the whole matrix, whose two
bisections share their Sturm counts.

Every search starts from bounds that hold for every assembled operator,
which is positive semidefinite (v >= 0 in every family), and from a guess;
a guess or a bound only places Sturm counts, so it moves no value.  Each
eigenvalue takes one search on its matrix, the whole operator or one
half: from the guess, Newton steps on det(T - sigma I), each one Sturm
sweep that also sums d log|det| / d sigma (``kernels.sturm_newton``); then
counts in a window around where they end, as wide as the error the last
step predicts (``_gallop``); then bisection.  Level 0 guesses from its own
counts.  An unsplit operator takes seeds at a lower bound on lambda0,
max(0, its smallest Gershgorin row sum) less a rounding margin, at the
constant vector's Rayleigh quotient (above lambda0) and at the larger Ritz
value of T on the span of the constant vector and the free first mode
(above lambda1), and bisects each eigenvalue on those counts to a relative
_GUESS_WIDTH.  A split operator's even half starts at its lower bound, and
its odd half at the bisected lambda0, which lies below the odd half's
spectrum.  Level 1 starts from level 0, finer levels from the value the
coarser ones predict.  Each matrix keeps its counts in one
``kernels.SturmCounts``, which the seeds, the Newton steps, the window and
the bisections all ask.  It settles a question from a kept count wherever
the count's monotonicity in the shift, or a shifted diagonal that rounds
to one already counted, decides it as a sweep would, so this reuse changes
the number of sweeps, never an eigenvalue.
"""

import bisect
import itertools
import math
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import kernels
from .potentials import (InverseSquareCapped, PotentialSpec, _check_length, break_points,
                         evaluate)

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
_GUESS_WIDTH = 1e-3  # relative bisection width at which level 0's guess stops
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
        object.__setattr__(self, "N", _integer(self.N, "N"))
        counts = tuple(_integer(c, "a cell count") for c in self.counts) or (self.N,)
        object.__setattr__(self, "counts", counts)
        if len(counts) != len(self.breaks) + 1 or sum(counts) != self.N or min(counts) < 1:
            raise ValueError("a grid needs one cell count >= 1 per layer, summing to N")
        if not all(w > 0.0 for _, _, w in self._layers):
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
        h = min(w for _, _, w in self._layers)
        h2 = h * h
        if not (h2 > 0.0 and math.isfinite(1.0 / h2)):
            raise ValueError(f"grid spacing h = {h:.3e} is too small: 1/h^2 overflows")
        if not math.isfinite((1.0 / h2) * (1.0 / h2)):
            raise ValueError(f"grid spacing h = {h:.3e} is too small: 1/h^4 overflows")

    @cached_property
    def _layers(self):
        """(left edge, cell count, cell width) of each layer."""
        edges = (-0.5 * self.L, *self.breaks, 0.5 * self.L)
        return [(a, c, (b - a) / c) for a, b, c in zip(edges, edges[1:], self.counts)]

    @property
    def h(self) -> float:
        """The largest cell width (L/N on a uniform grid)."""
        return max(w for _, _, w in self._layers)

    def widths(self) -> np.ndarray:
        return np.repeat([w for _, _, w in self._layers], self.counts)

    @cached_property
    def _mirrored(self) -> bool:
        """Whether the breaks and counts are symmetric about 0."""
        return (self.counts == self.counts[::-1]
                and self.breaks == tuple(-b for b in reversed(self.breaks)))

    def nodes(self) -> np.ndarray:
        """Cell centres.  On a mirror-symmetric grid (symmetric breaks and
        counts) the right half is the left half mirrored, x_{N-1-i} = -x_i
        bitwise, so that an even potential assembles a palindrome."""
        x = np.concatenate([a + (np.arange(c) + 0.5) * w for a, c, w in self._layers])
        if self._mirrored:
            half = self.N // 2
            x[self.N - half:] = -x[half - 1::-1]
            if self.N % 2:
                x[half] = 0.0
        return x

    def _node(self, i: int) -> float:
        """x_i, the same double as ``nodes()[i]``."""
        n, half = self.N, self.N // 2
        if self._mirrored:
            if i >= n - half:
                return -self._node(n - 1 - i)
            if n % 2 and i == half:
                return 0.0
        for a, c, w in self._layers:
            if i < c:
                return a + (i + 0.5) * w
            i -= c


class DiscreteOperator:
    """Symmetric tridiagonal matrix: main diagonal and off-diagonal (which
    varies where the cell width changes, at layer faces).

    Besides its arrays, an operator gives what the eigensolver asks of it:
    its size, its run-length form ``runs`` and ``pivmin`` (see
    ``kernels.SturmCounts``), its mirror ``halves``, its Gershgorin range,
    a lower bound on its spectrum and ||T||_inf.  Built from its arrays, it
    finds them by scanning and comparing them; ``assemble`` gives a piecewise-
    constant potential's operator as groups of equal rows, which answer the
    same questions, bit for bit, without an array of N entries."""

    def __init__(self, diag: np.ndarray, offdiag: np.ndarray):
        if diag.ndim != 1 or offdiag.shape != (diag.size - 1,):
            raise ValueError("diag must be 1-d with offdiag one entry shorter")
        self.diag = _read_only(diag)
        self.offdiag = _read_only(offdiag)
        self.size = diag.size

    @cached_property
    def runs(self) -> kernels.RunLength:
        """The run-length form that the Sturm kernels sweep."""
        return kernels.run_length(self.diag, self.offdiag * self.offdiag)

    @cached_property
    def pivmin(self) -> float:
        # zero-pivot guard for the Sturm and twisted-factorization recurrences;
        # far below any eigenvalue tolerance but large enough that off/pivmin
        # cannot overflow the eigenvector recurrence
        return max((self.offdiag * self.offdiag).max(), 1.0) * 1e-250

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

    def gershgorin(self) -> Tuple[float, float]:
        """An interval that holds every eigenvalue."""
        radius = 2.0 * np.abs(self.offdiag).max()
        return float(self.diag.min() - radius), float(np.abs(self.diag).max() + radius)

    def lower_bound(self) -> Tuple[float, float]:
        """A lower bound on every eigenvalue of an assembled operator or of one
        of its halves, and the bound hi >= ||T||_inf it takes its margin from:
        max(0, the smallest Gershgorin row sum) less 4 eps hi, hi = max |diag|
        + 2 max |off|.  Such a matrix is positive semidefinite, T = W^-1/2 K
        W^-1/2 + diag(v) with v >= 0 for every family, and so is each half,
        which acts on an invariant subspace of T; on a graded grid the
        smallest row sum lies below 0.  The margin covers the rounding of T's
        entries."""
        edges = np.abs(self.offdiag)
        rows = self.diag.copy()
        rows[:-1] -= edges
        rows[1:] -= edges
        hi = float(np.abs(self.diag).max()) + 2.0 * float(edges.max())
        return max(0.0, float(rows.min())) - 4.0 * _EPS * hi, hi

    @cached_property
    def halves(self):
        """The even and odd halves of a mirror-symmetric operator, or None.

        T is mirror-symmetric when its diagonal and off-diagonal are
        palindromes; with a negative off-diagonal, lambda0 is then the lowest
        eigenvalue of the even half and lambda1 that of the odd half (a
        Jacobi matrix's k-th eigenvector changes sign k times; Cantoni &
        Butler, Linear Algebra Appl. 13, 1976).  Each half acts on the right
        half of the vector.  For N = 2m both are the lower-right m x m block,
        with the centre coupling c added to (even) or taken off (odd) its
        first diagonal entry.  For N = 2m + 1 the even half adds the centre
        node, coupled by sqrt(2) c, and the odd half is the block alone.
        Operators below 4 cells, or with an off-diagonal entry >= 0, are not
        split."""
        diag, off = self.diag, self.offdiag
        if not (self.size >= 4 and np.all(off < 0.0) and np.array_equal(diag, diag[::-1])
                and np.array_equal(off, off[::-1])):
            return None
        m = self.size // 2
        if self.size % 2 == 0:
            even, odd = diag[m:].copy(), diag[m:].copy()
            even[0] += off[m - 1]
            odd[0] -= off[m - 1]
            even, odd = DiscreteOperator(even, off[m:]), DiscreteOperator(odd, off[m:])
            # they differ only in row 0, which enters no run: the odd half's
            # form is the even half's with its own first stretch entry
            stretch = even.runs.stretch.copy()
            stretch[0] = odd.diag[0]
            odd.runs, odd.pivmin = even.runs._replace(stretch=stretch), even.pivmin
            return even, odd
        coupled = off[m:].copy()
        coupled[0] *= math.sqrt(2.0)
        return DiscreteOperator(diag[m:], coupled), DiscreteOperator(diag[m + 1:], off[m + 1:])


class _Layered(DiscreteOperator):
    """An operator held as groups of equal rows, ``assemble``'s form of a
    piecewise-constant potential's operator: each group (diag, off, n) is n
    rows of the diagonal entry diag, each coupled to the row before it by
    off (0.0 for row 0, a group of its own).  A layer gives its face rows a
    group each and its other rows one group, so the questions of the
    eigensolver are answered from a handful of groups, with the same
    floating-point operations as the arrays' answers, bit for bit; the
    arrays are built when first read."""

    def __init__(self, groups):
        self.groups = groups
        self.size = sum(n for _, _, n in groups)

    @cached_property
    def diag(self) -> np.ndarray:
        return self._rows(0)

    @cached_property
    def offdiag(self) -> np.ndarray:
        return self._rows(1)[1:]

    def _rows(self, column):
        values, counts = zip(*((group[column], group[2]) for group in self.groups))
        return _read_only(np.repeat(values, counts))

    @cached_property
    def runs(self) -> kernels.RunLength:
        """What kernels.run_length finds on the arrays: consecutive groups of
        one pair (diag, off^2) join, and each block of at least MIN_RUN rows
        and a nonzero off^2 is a run.  The entries are positive, or an off^2
        of +0.0, so == compares their bits."""
        blocks = []
        for c, off, n in self.groups:
            if blocks and blocks[-1][:2] == [c, off * off]:
                blocks[-1][2] += n
            else:
                blocks.append([c, off * off, n])
        stretch, b2s, segments = [], [], []
        for c, b2, n in blocks:
            if n >= kernels.MIN_RUN and b2 != 0.0:
                segments.append((b2s, c, b2, n))
                b2s = []
            else:
                stretch += [c] * n
                b2s += [b2] * n
        segments.append((b2s, 0.0, 0.0, 0))
        return kernels.RunLength(np.array(stretch), segments)

    @cached_property
    def pivmin(self) -> float:
        return max(max(off * off for _, off, _ in self.groups), 1.0) * 1e-250

    def gershgorin(self) -> Tuple[float, float]:
        diag = [d for d, _, _ in self.groups]
        radius = 2.0 * max(abs(off) for _, off, _ in self.groups[1:])
        return min(diag) - radius, max(map(abs, diag)) + radius

    def _row_sums(self, entry, combine):
        """combine(combine(entry(diag_i), |off_i|), |off_{i-1}|) at each kind
        of row, as the arrays combine a row with its coupling to the right,
        then to the left: a group's last row has the next group's coupling
        on its right, its other rows their own on both sides (0.0 beyond an
        end, and x -/+ 0.0 is x)."""
        right = [abs(off) for _, off, _ in self.groups[1:]] + [0.0]
        rows = []
        for (d, off, n), r in zip(self.groups, right):
            rows.append(combine(combine(entry(d), r), abs(off)))
            if n > 1:
                rows.append(combine(combine(entry(d), abs(off)), abs(off)))
        return rows

    def norm_inf(self) -> float:
        return max(self._row_sums(abs, operator.add))

    def lower_bound(self) -> Tuple[float, float]:
        diag, off, _ = zip(*self.groups)
        hi = max(map(abs, diag)) + 2.0 * max(map(abs, off))
        return max(0.0, min(self._row_sums(float, operator.sub))) - 4.0 * _EPS * hi, hi

    @cached_property
    def halves(self):
        groups = self.groups
        if not (self.size >= 4 and all(off < 0.0 for _, off, _ in groups[1:])
                and _palindrome((d, n) for d, _, n in groups)
                and _palindrome((off, n) for _, off, n in groups[1:])):
            return None
        m = self.size // 2
        (d, c, _), *rest = self._tail(m)
        if self.size % 2 == 0:
            return _Layered([(d + c, 0.0, 1), *rest]), _Layered([(d - c, 0.0, 1), *rest])
        (d1, c1, _), *rest = self._tail(m + 1)
        return (_Layered([(d, 0.0, 1), (d1, c1 * math.sqrt(2.0), 1), *rest]),
                _Layered([(d1, 0.0, 1), *rest]))

    def _tail(self, start):
        """The groups of rows start, ..., N - 1, row `start` a group of its
        own coupled to the row before it."""
        for j, (d, off, n) in enumerate(self.groups):
            if start < n:
                rest = [(d, off, n - start - 1)] if n - start > 1 else []
                return [(d, off, 1), *rest, *self.groups[j + 1:]]
            start -= n


def _integer(value, name: str) -> int:
    """``value`` by operator.index (numpy integers pass); a float raises."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _palindrome(values) -> bool:
    """Whether the rows of the (value, count) groups read the same both
    ways, by ==: whether their runs of equal values do."""
    runs = []
    for value, n in values:
        if runs and runs[-1][0] == value:
            runs[-1][1] += n
        else:
            runs.append([value, n])
    return runs == runs[::-1]


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

    The entries are built from the grid's layers.  Within a layer the
    widths are equal, so a row's entries less v are one of three (the
    layer's first row, its last, any other), each formed by the same
    floating-point operations, in the same order, as the formula above
    over arrays, bit for bit.  A layer of one cell, or one whose nodes lie
    strictly inside it with no break of a piecewise-constant v inside it,
    holds one value of v, which ``evaluate`` takes at its first node (a
    one-ulp layer's node may round onto a break, where the first step's
    height holds, as it does in the arrays).  Where every layer does
    (a step potential on a grid with a face at each of its breaks), the
    operator is held as groups of equal rows, a few per layer, and no array
    of N entries is built until one is read.  Otherwise (the capped family,
    or a grid that a break of v crosses) v is sampled at every node and the
    operator held as its arrays.
    """
    layers = grid._layers
    edges = (-0.5 * grid.L, *grid.breaks, 0.5 * grid.L)
    starts = [0, *itertools.accumulate(grid.counts)]
    firsts = [grid._node(i) for i in starts[:-1]]  # each layer's first node
    jumps = None if isinstance(p, InverseSquareCapped) else break_points(p, grid.L)
    flat = jumps is not None and all(
        j - i == 1 or a < x and grid._node(j - 1) < b
        and bisect.bisect_right(jumps, a) == bisect.bisect_left(jumps, b)
        for a, b, i, j, x in zip(edges, edges[1:], starts, starts[1:], firsts))
    widths = [None, *(w for _, _, w in layers), None]
    groups = []  # (layer, diag less v, coupling to the row before, rows)
    for k, (_, n, w) in enumerate(layers):
        left, right = widths[k], widths[k + 2]
        kinds = [(left, right, 1)] if n == 1 else [(left, w, 1), (w, w, n - 2), (w, right, 1)]
        groups += [(k, *_row(a, w, b), times) for a, b, times in kinds if times]
    if flat:
        v = evaluate(p, np.array(firsts)).tolist()
        return _Layered([(base + v[k], off, n) for k, base, off, n in groups])
    _, base, off, n = (np.array(column) for column in zip(*groups))
    return DiscreteOperator(np.repeat(base, n) + evaluate(p, grid.nodes()), np.repeat(off, n)[1:])


def _row(left, w, right):
    """A row of cell width w between widths left and right (None beyond an
    end): its diagonal entry less v, 0.0 + 1/(w d_right) + 1/(w d_left), and
    its off-diagonal entry to the row before it, -1/(d_left sqrt(left w)),
    d the mean of the two widths (0.0 at row 0)."""
    diag = 0.0
    if right is not None:
        diag += 1.0 / (w * (0.5 * (w + right)))
    if left is None:
        return diag, 0.0
    d = 0.5 * (left + w)
    return diag + 1.0 / (w * d), -1.0 / (d * math.sqrt(left * w))


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
    tells), and at most t.  Stops once that error is within a quarter of
    the bisection tolerance, or once t is within the rounding floor
    ``floor``, below which the steps are rounding noise however close the
    eigenvalues; or when a step is not finite or not shorter than the one
    before, or after _NEWTON_STEPS sweeps.  Each sweep's Sturm count is kept
    in ``counts`` (a kernels.SturmCounts).  Returns the last iterate and the
    error its last step predicts (inf when no step passed the stop test)."""
    sigma = guess
    last = math.inf
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
        if error <= 0.25 * kernels.tolerance(sigma) or size <= floor:
            return sigma, error
        last = size
    return sigma, math.inf


def _unfold(y, n, parity):
    """The unit length-n vector, even (parity 1.0) or odd (-1.0), whose
    right half solves that half of the operator (see DiscreteOperator.halves); for
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


def _upper_bounds(op: DiscreteOperator) -> Tuple[float, float]:
    """Upper bounds on lambda0 and lambda1: the Rayleigh quotient of the
    constant vector, which is T's mean row sum, and the larger
    Rayleigh-Ritz value of T on span{1, c}, c_i = cos(pi (i + 1/2) / N)
    (Courant-Fischer: any two independent vectors bound lambda1; these two
    are T's lowest eigenvectors where v is constant)."""
    n = op.size
    q0 = np.full(n, 1.0 / math.sqrt(n))
    q1 = np.cos(math.pi * (np.arange(n) + 0.5) / n)
    q1 -= kernels.dot(q1, q0) * q0
    q1 /= kernels.norm(q1)
    t0 = op.matvec(q0)
    a, b, c = kernels.dot(q0, t0), kernels.dot(q1, t0), kernels.dot(q1, op.matvec(q1))
    return a, 0.5 * (a + c) + math.hypot(0.5 * (a - c), b)


def _bisect_lowest_two(op: DiscreteOperator, near):
    """Bisected (lambda0, lambda1) of the operator, not yet checked for
    separation, and per eigenvalue the kernels.SturmCounts of the matrix it
    was bisected on and its parity (1.0 even, -1.0 odd; None unsplit); see
    lowest_two_eigenvalues.  Each eigenvalue takes one search on its matrix:
    from its guess (``near``, or without one level 0's own, see the module
    docstring), _newton, then _gallop, then bisection to the tolerance."""
    if op.size < 2:
        raise SolverError("need at least a 2x2 operator")
    halves = op.halves
    if halves is None:
        # one matrix holds both eigenvalues (k = 0 and 1), and both
        # bisections share its counts
        counts = kernels.SturmCounts(op)
        sectors = ((counts, 0, None), (counts, 1, None))
        if near is None:
            # seeds at bounds on lambda0 and lambda1, then each value bisected
            # on those counts to a relative _GUESS_WIDTH, counts kept for the end
            counts.exceeds(op.lower_bound()[0], 0)
            for k, bound in enumerate(_upper_bounds(op)):
                counts.exceeds(bound, k)
            lo, hi = op.gershgorin()
            near = [kernels.bisect_eigenvalue(counts, k, lo, hi, _GUESS_WIDTH) for k in (0, 1)]
    else:
        sectors = ((kernels.SturmCounts(halves[0]), 0, 1.0),
                   (kernels.SturmCounts(halves[1]), 0, -1.0))
        if near is None:
            # the even half from its lower bound, the odd half from the
            # bisected lambda0, which lies below its spectrum (lambda0 <= lambda1)
            near = (halves[0].lower_bound()[0], None)
    gap = None if near[1] is None else abs(float(near[1]) - float(near[0]))
    lams = []
    for j, (counts, k, parity) in enumerate(sectors):
        lo, hi = counts.matrix.gershgorin()
        # On the unsplit matrix lambda0 and lambda1 each have the other
        # lambda1 - lambda0 away.  A half's next eigenvalue is lambda2 >
        # lambda1 (even) or lambda3 (odd), and the guessed lambda1 - lambda0
        # stands in for both gaps; a split level 0 guesses no gap.  Newton
        # only places counts, so an estimate that is off costs sweeps, never
        # a value.
        guess = lams[0] if near[j] is None else float(near[j])
        guess, error = _newton(counts, guess, gap, _EPS * hi)
        _gallop(counts, k, guess, error, lo, hi)
        if k:
            lo = max(lo, lams[0] - 1e-13)
        lams.append(kernels.bisect_eigenvalue(counts, k, lo, hi))
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

    A mirror-symmetric operator (palindromes, negative off-diagonal)
    is split into its even and odd halves, and each value is the lowest
    eigenvalue of one half: half the cells per sweep, and no count of one
    value depends on the other.  Any other operator is bisected whole, the
    two bisections sharing their Sturm counts.

    ``near`` is a guess (lambda0, lambda1), e.g. from a coarser grid.  Newton
    steps on the determinant move each guess toward its eigenvalue, and
    the bisections start from Sturm counts taken at those steps and around
    where they end.  Without one, the operator guesses from its own counts
    (see the module docstring): an unsplit one bisects seeds at bounds on
    lambda0 and lambda1 to a relative _GUESS_WIDTH, a split one starts its
    even half at a lower bound and its odd half at lambda0.  Guesses and
    seeds change only how many Sturm sweeps the bisections take, never the
    values returned.  Raises :class:`SolverError` if the two values are not
    separated.
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
        return vec if parity is None else _unfold(vec, op.size, parity)

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
    n0, levels = _integer(n0, "n0"), _integer(levels, "levels")
    if n0 < 64:
        raise ValueError(f"coarsest grid needs n0 >= 64, got {n0}")
    if levels not in (2, 3, 4):
        raise ValueError(f"levels must be 2, 3 or 4, got {levels}")

    lam0s, lam1s = [], []
    for j, grid in enumerate(_nested_grids(p, L, n0, levels)):
        op = assemble(p, grid)
        near = None
        if j == 1:
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
