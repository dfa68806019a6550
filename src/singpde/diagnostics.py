"""Discrete norms, tail-exponent fits and residuals.

Gradients are per-cell forward differences anchored at each cell's lower
corner, with the implicit zero boundary values filled in, so a grid with m
cells per side yields an m^dim cell field.  ``tail_fit`` estimates a
weak-Lebesgue (Marcinkiewicz) tail exponent of nodal or cell values: the
masses of the superlevel sets {|v| >= t}, counts times the cell volume, at
log-spaced thresholds t, fitted by least squares of log(mass) against log(t).

Also here: the truncation energy sum |grad T_k(u)^((gamma+1)/2)|^2, the
torsion function solving -Lap phi0 = 1, and a Kato-type residual comparing
the integral of (u1 - u2)^+ against the signed difference of the two
solutions' sources weighted by phi0.  The sources are inputs: the solver
defines them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import Grid, GridFunction, build_laplacian, require_same_grid, solve_spd
from .singularity import trunc_power

__all__ = [
    "ExponentFit",
    "KatoReport",
    "discrete_gradient_magnitude",
    "sobolev_norm",
    "tail_fit",
    "truncation_energy",
    "torsion_function",
    "kato_residual",
]


def _full_lattice(u: GridFunction) -> np.ndarray:
    """Nodal values on the full (m+1)^dim lattice, zeros on the boundary."""
    m = u.grid.cells_per_side
    full = np.zeros((m + 1,) * u.grid.dim)
    inner = (slice(1, m),) * u.grid.dim
    full[inner] = u.reshape()
    return full


def _cell_gradients(u: GridFunction) -> list[np.ndarray]:
    """Forward-difference gradient components, one (m,)*dim array per axis."""
    grid = u.grid
    m = grid.cells_per_side
    full = _full_lattice(u)
    comps = []
    for axis in range(grid.dim):
        diff = np.diff(full, axis=axis) / grid.spacing
        # Restrict the remaining axes to the lower-corner lattice points.
        slices = tuple(
            slice(None) if a == axis else slice(0, m) for a in range(grid.dim)
        )
        comps.append(diff[slices])
    return comps


def discrete_gradient_magnitude(u: GridFunction) -> np.ndarray:
    """Euclidean magnitude of the per-cell forward-difference gradient."""
    comps = _cell_gradients(u)
    if len(comps) == 1:
        return np.abs(comps[0])
    return np.sqrt(sum(c**2 for c in comps))


def gradient_energy(u: GridFunction) -> float:
    """Sum of |grad u|^2 over cells times the cell volume."""
    comps = _cell_gradients(u)
    return float(sum(np.sum(c**2) for c in comps) * u.grid.cell_volume)


def sobolev_norm(u: GridFunction, q: float) -> float:
    """(sum_cells |grad u|^q + sum_nodes |u|^q)^(1/q), volume-weighted."""
    if q < 1:
        raise ValueError(f"q must be at least 1, got {q}")
    vol = u.grid.cell_volume
    grad = discrete_gradient_magnitude(u)
    total = float(np.sum(grad**q) * vol + np.sum(np.abs(u.values) ** q) * vol)
    return total ** (1.0 / q)


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log(mass) against log(threshold)."""

    slope: float
    r_squared: float
    conclusive: bool = True


# tail_fit spaces this many thresholds log-uniformly between these two
# percentiles of the positive |values|.
_THRESHOLD_COUNT = 16
_LO_PERCENTILE = 10.0
_HI_PERCENTILE = 99.9
# Tail estimates are only meaningful from threshold 1 upward.
_THRESHOLD_FLOOR = 1.0


def tail_fit(values, cell_volume: float) -> ExponentFit:
    """Tail exponent of ``values`` (nodal values, or a cell array from
    discrete_gradient_magnitude), each node or cell weighing ``cell_volume``.

    The thresholds run log-uniformly between two percentiles of the positive
    |values|, the lower one raised to at least _THRESHOLD_FLOOR and cut to a
    tenth of the upper one if it then reaches it.  No threshold exceeds the
    upper percentile, so every superlevel set {|values| >= t} has positive
    mass; only a field without a nonzero value yields an inconclusive fit,
    not a failure.
    """
    absvals = np.abs(np.asarray(values, dtype=float)).ravel()
    positive = absvals[absvals > 0]
    if positive.size == 0:
        return ExponentFit(float("nan"), float("nan"), conclusive=False)
    lo = max(float(np.percentile(positive, _LO_PERCENTILE)), _THRESHOLD_FLOOR)
    hi = float(np.percentile(positive, _HI_PERCENTILE))
    if lo >= hi:
        lo = hi / 10.0
    t = np.geomspace(lo, hi, _THRESHOLD_COUNT)
    logt = np.log(t)
    logm = np.log([float(np.count_nonzero(absvals >= x) * cell_volume) for x in t])
    slope, intercept = np.polyfit(logt, logm, 1)
    pred = slope * logt + intercept
    ss_res = float(np.sum((logm - pred) ** 2))
    ss_tot = float(np.sum((logm - logm.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return ExponentFit(slope=float(slope), r_squared=r_squared)


def truncation_energy(u: GridFunction, k: float, gamma: float) -> float:
    """Gradient energy of (T_k(u))^((gamma+1)/2) for gamma >= 1."""
    w = GridFunction(u.grid, trunc_power(k, gamma, u.values))
    return gradient_energy(w)


def torsion_function(grid: Grid) -> GridFunction:
    """Solve -Lap phi0 = 1 with zero boundary values; phi0 > 0 inside."""
    lap = build_laplacian(grid)
    ones = GridFunction(grid, np.ones(grid.interior_count))
    phi0 = solve_spd(lap, ones)
    if float(phi0.values.min()) <= 0.0:
        raise RuntimeError("torsion function came out nonpositive at a node")
    return phi0


@dataclass(frozen=True)
class KatoReport:
    """Comparison of the positive-part mass against the weighted source gap.

    lhs  = sum (u1 - u2)^+ * vol
    rhs  = sum [u1 >= u2] * (F1 - F2) * phi0 * vol

    with F1, F2 the sources of which u1, u2 are the discrete solutions,
    -Lap u_i = F_i.  The indicator multiplies the whole source difference,
    so for exact discrete solutions the inequality lhs <= rhs holds exactly
    and ``residual = rhs - lhs`` is nonnegative; how far below zero solver
    tolerance may take it is the caller's bound.
    """

    lhs: float
    rhs: float
    residual: float


def kato_residual(
    u1: GridFunction,
    u2: GridFunction,
    F1: GridFunction,
    F2: GridFunction,
    phi0: GridFunction,
) -> KatoReport:
    grid = u1.grid
    for other in (u2.grid, F1.grid, F2.grid, phi0.grid):
        require_same_grid(grid, other)
    a = u1.values
    b = u2.values
    vol = grid.cell_volume
    lhs = float(np.sum(np.clip(a - b, 0.0, None)) * vol)
    indicator = a >= b
    rhs = float(np.sum(indicator * (F1.values - F2.values) * phi0.values) * vol)
    return KatoReport(lhs=lhs, rhs=rhs, residual=rhs - lhs)
