"""Uniform Cartesian grids on the unit box and the discrete Dirichlet Laplacian.

Unknowns live on the interior nodes of a uniform grid over [0, 1]^dim with
implicit zero boundary values.  The negative Laplacian is the standard
(2*dim + 1)-point central-difference stencil, a symmetric positive-definite
operator.  The type-I discrete sine transform (DST-I) diagonalises it
exactly, so linear systems are solved directly by two d-dimensional sine
transforms and one division by the eigenvalues (the fast Poisson solver of
Buzbee, Golub and Nielson, 1970).  Along axes of at most ``_DENSE_MAX``
unknowns the transform is a product with the dense sine matrix (Lynch, Rice
and Thomas, 1964), which BLAS does faster than an FFT there; longer axes use
the FFT.  Every solve runs in one array kernel, ``_solve``, with the
transforms and a backward-error guard independent of them, which applies the
stencil matrix-free on the lattice, so no solve needs ``scipy``;
``solve_spd`` is its GridFunction wrapper.  The kernel also takes a stack of
right-hand sides on one grid, solves each row to the bits of its lone solve
and guards each row on its own.  The operator's sparse CSR matrix
is assembled, and ``scipy.sparse`` imported, only when
``DiscreteOperator.matrix`` is first read; scipy is no runtime dependency and
comes with the ``test`` extra.  Everything here is value-semantic: build and
solve are pure functions, safe to call concurrently on distinct inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "DiscreteOperator",
    "LinearSolveError",
    "build_grid",
    "build_laplacian",
    "solve_spd",
    "max_margin",
    "min_on_compact",
    "sample_field",
    "l1_norm",
    "require_same_grid",
]

# Backward-error bound for _solve, in units of machine epsilon:
#   max|A x - b| <= _BACKWARD_ERROR_FACTOR * eps * (||A||_inf (max|x| + tiny) + max|b|)
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).  The
# smallest normal number ``tiny`` accounts for gradual underflow, where each
# operation also carries an absolute error up to eps * tiny (Higham §2.1):
# without it the bound underflows to 0 for subnormal right-hand sides.  The
# observed backward error stays below 1.4 with the FFT (1D/225, 1D/1024,
# 2D/256); the dense products sum m terms per entry, and it read at most 1.5
# on 3D/24, 3.6 on 1D/224, 6.0 on 3D/128 and 7.5 on 2D/224.  A factor 64
# leaves a wide margin above that rounding noise, while a wrong eigenvalue
# or a corrupted transform leaves a residual comparable to max|b| itself,
# many orders of magnitude above the bound.
_BACKWARD_ERROR_FACTOR = 64.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# Longest axis (in unknowns) whose DST-I is a dense matrix product; longer
# ones use the FFT.  Per axis with one BLAS thread (2-core x86-64), dense
# over FFT time read 0.57 at 1D m = 255, 1.22 at m = 383, 1.01 at 2D m = 223,
# 1.39 at m = 255 and 0.48 at 3D m = 127.  The matrix stays under 400 KB.
_DENSE_MAX = 223


class LinearSolveError(RuntimeError):
    """A solve failed its backward-error check.  Carries max|A x - b|."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid on the unit box with zero Dirichlet boundary.

    Only interior nodes carry unknowns.  ``boundary_distance`` holds each
    one's distance to the box boundary, min(k, cells - k) / cells over its
    lattice indices k, which defines the compact bands {d(x) >= margin}.
    """

    dim: int
    cells_per_side: int
    spacing: float
    boundary_margin: float
    interior_count: int
    node_coords: np.ndarray  # (interior_count, dim), C-ordered lattice
    boundary_distance: np.ndarray  # (interior_count,)

    @cached_property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side - 1,) * self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    def matches(self, other: "Grid") -> bool:
        return self.dim == other.dim and self.cells_per_side == other.cells_per_side


def require_same_grid(a: Grid, b: Grid) -> None:
    if not a.matches(b):
        raise ValueError(
            f"grid mismatch: {a.dim}D/{a.cells_per_side} cells vs "
            f"{b.dim}D/{b.cells_per_side} cells"
        )


@dataclass(eq=False)
class GridFunction:
    """Nodal values of a scalar field on the interior nodes of a grid.

    Boundary values are implicitly zero.  Construction rejects non-finite
    entries, so any operation returning a GridFunction yields finite data.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape == self.grid.shape:
            values = values.ravel()
        if values.shape != (self.grid.interior_count,):
            raise ValueError(
                f"expected {self.grid.interior_count} nodal values, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function contains non-finite values")
        self.values = values

    def reshape(self) -> np.ndarray:
        """Values as a (m-1,)*dim lattice array (view when possible)."""
        return self.values.reshape(self.grid.shape)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """The (2*dim+1)-point Dirichlet Laplacian stencil on ``grid``.

    ``eigenvalues`` is a lattice array of ``grid.shape`` holding the
    eigenvalue of the DST-I mode with wave numbers (k_1, ..., k_dim).
    ``sine`` is the unnormalised DST-I matrix of one axis,
    S[j-1, k-1] = 2 sin(pi j k / cells_per_side), or None when the axis has
    more than ``_DENSE_MAX`` unknowns and solves use the FFT.
    """

    grid: Grid
    eigenvalues: np.ndarray
    sine: np.ndarray | None

    @cached_property
    def matrix(self):
        """Sparse SPD CSR matrix of the stencil, assembled on first read.

        The 1D stencil (-1, 2, -1)/h^2 is extended to higher dimensions as a
        Kronecker sum, matching the C-ordering of GridFunction values.  No
        solve reads it; it needs scipy, which comes with the ``test`` extra.
        """
        import scipy.sparse as sp

        m = self.grid.cells_per_side - 1
        h2 = self.grid.spacing**2
        main = np.full(m, 2.0 / h2)
        off = np.full(m - 1, -1.0 / h2)
        t = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        eye = sp.identity(m, format="csr")
        if self.grid.dim == 1:
            a = t
        elif self.grid.dim == 2:
            a = sp.kron(t, eye) + sp.kron(eye, t)
        else:
            a = (
                sp.kron(sp.kron(t, eye), eye)
                + sp.kron(sp.kron(eye, t), eye)
                + sp.kron(sp.kron(eye, eye), t)
            )
        return sp.csr_matrix(a)


def build_grid(dim: int, cells_per_side: int, boundary_margin: float = 0.0) -> Grid:
    """Build a uniform grid on [0, 1]^dim.

    ``cells_per_side`` is the number of cells along each axis; the interior
    holds (cells_per_side - 1)^dim nodes.  ``boundary_margin`` is validated
    and stored on the grid, but nothing in the package passes or reads it;
    the compact bands of the diagnostics take their margins as arguments.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if cells_per_side < 2:
        raise ValueError(f"cells_per_side must be at least 2, got {cells_per_side}")
    if not 0.0 <= boundary_margin < 0.5:
        raise ValueError(
            f"boundary_margin must lie in [0, 0.5), got {boundary_margin}"
        )
    spacing = 1.0 / cells_per_side
    index = np.arange(1, cells_per_side)
    mesh = np.meshgrid(*(spacing * index,) * dim, indexing="ij")
    node_coords = np.stack([c.ravel() for c in mesh], axis=1)
    # Counted in cells and divided once, the distance is the same for x and
    # 1 - x and is max_margin(cells_per_side) at the deepest node.
    steps = np.minimum(index, cells_per_side - index)
    steps = reduce(np.minimum, np.ix_(*(steps,) * dim)).ravel()
    boundary_distance = steps / cells_per_side
    return Grid(
        dim=dim,
        cells_per_side=cells_per_side,
        spacing=spacing,
        boundary_margin=boundary_margin,
        interior_count=(cells_per_side - 1) ** dim,
        node_coords=node_coords,
        boundary_distance=boundary_distance,
    )


def build_laplacian(grid: Grid) -> DiscreteOperator:
    """The negative Laplacian with zero Dirichlet boundary.

    Its eigenvalues are sums over the axes of (4/h^2) sin^2(pi k h / 2),
    k = 1 .. cells_per_side - 1.  The sine matrix reduces j k modulo
    2 cells_per_side in integers, so ``sin`` never sees an argument above 2 pi.
    """
    m = grid.cells_per_side - 1
    k = np.arange(1, m + 1)
    axis_eigs = (4.0 / grid.spacing**2) * np.sin(0.5 * np.pi * k * grid.spacing) ** 2
    eigenvalues = sum(np.ix_(*(axis_eigs,) * grid.dim))
    sine = None
    if m <= _DENSE_MAX:
        sine = 2.0 * np.sin((np.pi / (m + 1)) * (np.outer(k, k) % (2 * (m + 1))))
    return DiscreteOperator(grid=grid, eigenvalues=eigenvalues, sine=sine)


# Per dimension, the index tuples of the (lower, upper) ends of the stencil
# edges along each lattice axis; the leading (stack) axes and the axes after
# it are taken whole.
_SHIFTS = {
    d: [
        tuple((..., edge) + (slice(None),) * (d - 1 - a) for edge in (np.s_[:-1], np.s_[1:]))
        for a in range(d)
    ]
    for d in (1, 2, 3)
}


def _apply(grid: Grid, x: np.ndarray) -> np.ndarray:
    """A x for the (2*dim+1)-point stencil on the lattice, boundary values 0,
    for ``x`` of shape (..., interior_count): one product per leading index.

    Built from ``grid.spacing`` alone, so it checks a solve independently of
    the eigenvalues and the sine transform.
    """
    u = x.reshape(x.shape[:-1] + grid.shape)
    y = (2.0 * grid.dim) * u
    for lo, hi in _SHIFTS[grid.dim]:
        y[lo] -= u[hi]
        y[hi] -= u[lo]
    y *= 1.0 / grid.spacing**2
    return y.reshape(x.shape)


def _dst1(a: np.ndarray, axis: int) -> np.ndarray:
    """Unnormalised DST-I along one axis, y_k = 2 sum_j a_j sin(pi j k / (m+1)),
    read off the real FFT of the odd extension [0, a, 0, -reversed(a)]."""
    a = a.swapaxes(axis, -1)
    m = a.shape[-1]
    extended = np.zeros(a.shape[:-1] + (2 * m + 2,))
    extended[..., 1 : m + 1] = a
    np.negative(a[..., ::-1], out=extended[..., m + 2 :])
    return (-np.fft.rfft(extended).imag[..., 1:-1]).swapaxes(-1, axis)


def _sine_transform(op: DiscreteOperator, y: np.ndarray) -> np.ndarray:
    """Unnormalised DST-I of ``y`` along its trailing ``grid.dim`` (lattice)
    axes, each leading index on its own: one product with the symmetric
    ``op.sine`` per axis (last, second to last, first), or ``_dst1`` per axis
    when no matrix is stored.

    Each leading index gets the BLAS call of a lone lattice array, of the
    same shape: merging the stack into one (k m, m) matrix, or taking a 1D
    stack as one (k, m) matrix, would round differently from a lone solve.
    """
    s = op.sine
    d = op.grid.dim
    if s is None:
        for axis in range(-d, 0):
            y = _dst1(y, axis)
        return y
    m = s.shape[0]
    shape = y.shape
    y = y.reshape(-1, m ** (d - 1), m) @ s
    if d > 1:
        y = s @ y.reshape(-1, m, m)
    if d > 2:
        y = s @ y.reshape(-1, m, m * m)
    return y.reshape(shape)


def _solve(op: DiscreteOperator, b: np.ndarray) -> np.ndarray:
    """x with op @ x = b for a finite array ``b`` of shape (interior_count,)
    or (k, interior_count): the one Laplacian solve of the package.  A
    leading stack axis solves k right-hand sides at once, each row to the
    same bits as alone.

    With S the unnormalised DST-I along every axis, S S = (2 cells_per_side)^dim
    times the identity and S diagonalises op, so x = S(S b / eigenvalues) /
    (2 cells_per_side)^dim; S is the dense ``op.sine`` along each axis when
    stored and the FFT otherwise.  Each row is checked by applying the
    stencil matrix-free (``_apply``, independent of the transform and never
    ``op.matrix``): a backward error max|A x - b| above
    _BACKWARD_ERROR_FACTOR * eps * (||A||_inf (max|x| + tiny) + max|b|), the
    maxima taken over that row, raises LinearSolveError, so a wrong
    eigenvalue or sine matrix is caught.  A non-finite max|x| in any row,
    the sign that the transforms overflowed on a ``b`` near the float
    limit, raises OverflowError.
    """
    grid = op.grid
    y = _sine_transform(op, b.reshape(b.shape[:-1] + grid.shape)) / op.eigenvalues
    x = _sine_transform(op, y).reshape(b.shape) / (2.0 * grid.cells_per_side) ** grid.dim

    rows = b.size // grid.interior_count

    def row_max(a):
        """Each row's max|a|, as floats."""
        return np.abs(a).reshape(rows, -1).max(axis=1).tolist()

    # A x - b is freed before |x| is taken: the arrays a solve holds at once
    # set how far the heap grows, and each fresh page costs a fault.
    maxima = row_max(_apply(grid, x) - b), row_max(x), row_max(b)
    a_norm = 4.0 * grid.dim / grid.spacing**2
    for residual, x_max, b_max in zip(*maxima):
        if not math.isfinite(x_max):
            raise OverflowError("sine-transform solve overflowed: the solution is not finite")
        bound = _BACKWARD_ERROR_FACTOR * _EPS * (a_norm * (x_max + _TINY) + b_max)
        if not residual <= bound:
            raise LinearSolveError(
                f"sine-transform solve failed its backward-error check: "
                f"max|Ax - b| = {residual:.3e} > {bound:.3e}",
                residual=residual,
            )
    return x


def solve_spd(op: DiscreteOperator, rhs: GridFunction) -> GridFunction:
    """Solve op @ x = rhs exactly by the sine-transform Poisson solver
    ``_solve``: LinearSolveError when its backward-error guard fails, and
    OverflowError, without numpy warnings, when the transforms overflow."""
    require_same_grid(op.grid, rhs.grid)
    with np.errstate(over="ignore", invalid="ignore"):
        x = _solve(op, rhs.values)
    return GridFunction(rhs.grid, x)


def max_margin(cells_per_side: int) -> float:
    """The largest margin whose compact band {d(x) >= margin} holds a node of
    a grid with ``cells_per_side`` cells: (cells // 2) / cells, the boundary
    distance of its deepest node."""
    return (cells_per_side // 2) / cells_per_side


def min_on_compact(u: GridFunction, margin: float) -> float:
    """Minimum of u over the compact band of nodes with d(x) >= margin."""
    if not 0.0 <= margin < 0.5:
        raise ValueError(f"margin must lie in [0, 0.5), got {margin}")
    if margin > max_margin(u.grid.cells_per_side):
        raise ValueError(f"no interior nodes at distance >= {margin} from the boundary")
    return float(u.values[u.grid.boundary_distance >= margin].min())


def sample_field(grid: Grid, fn) -> GridFunction:
    """Sample a callable (points array (N, dim) -> (N,)) at the interior nodes."""
    values = np.asarray(fn(grid.node_coords), dtype=float)
    return GridFunction(grid, values)


def l1_norm(u: GridFunction) -> float:
    """Discrete L1 norm: sum of |values| times the cell volume."""
    return float(np.sum(np.abs(u.values)) * u.grid.cell_volume)
