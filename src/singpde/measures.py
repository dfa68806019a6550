"""Nonnegative Radon measures: point atoms plus an integrable density.

A measure is discretized onto a grid by spreading each atom with a compactly
supported quartic bump kernel k(r) = (1 - (r/w)^2)^2 of width
w = max(spacing, 1/n) and renormalizing discretely so each atom keeps its
mass exactly; the density part is sampled nodewise.  The width never drops
below one grid spacing, so the discretized measure is always resolvable.

Atoms closer than one kernel width to the boundary get their kernel clipped
and renormalized over the interior nodes.  If the clipped kernel touches no
interior node at all, the whole mass is deposited on the nearest interior
node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .mesh import Grid, GridFunction

__all__ = [
    "RadonMeasure",
    "DiscretizedMeasure",
    "mollify",
    "scale_measure",
]


@dataclass(frozen=True)
class RadonMeasure:
    """Atoms (location strictly inside the open unit box, mass >= 0) plus an
    optional nonnegative density given as a closed-form field."""

    atoms: tuple[tuple[tuple[float, ...], float], ...] = ()
    density: ScalarField | None = None

    def __post_init__(self):
        normalized = []
        for location, mass in self.atoms:
            loc = tuple(float(c) for c in location)
            mass = float(mass)
            if mass < 0:
                raise ValueError(f"atom mass must be nonnegative, got {mass}")
            if any(not 0.0 < c < 1.0 for c in loc):
                raise ValueError(f"atom location {loc} must lie strictly inside (0, 1)^dim")
            normalized.append((loc, mass))
        object.__setattr__(self, "atoms", tuple(normalized))


@dataclass(frozen=True, eq=False)
class DiscretizedMeasure:
    """Mollified nodal representation of a measure at one regularization level."""

    grid: Grid
    values: GridFunction


def mollify(mu: RadonMeasure, grid: Grid, n: int) -> DiscretizedMeasure:
    """Spread mu onto the grid with kernel width max(spacing, 1/n)."""
    if int(n) != n or n < 1:
        raise ValueError(f"regularization level must be an integer >= 1, got {n}")
    width = max(grid.spacing, 1.0 / n)
    values = np.zeros(grid.interior_count)
    for location, mass in mu.atoms:
        if mass == 0.0:
            continue
        loc = np.asarray(location[: grid.dim])
        if loc.size < grid.dim:
            raise ValueError(
                f"atom location {location} has fewer coordinates than dim={grid.dim}"
            )
        r = np.linalg.norm(grid.node_coords - loc, axis=1)
        kernel = np.clip(1.0 - (r / width) ** 2, 0.0, None) ** 2
        weight = kernel.sum() * grid.cell_volume
        if weight > 0.0:
            values += (mass / weight) * kernel
        else:
            # Kernel support contains no interior node; keep the mass anyway.
            values[int(np.argmin(r))] += mass / grid.cell_volume
    if mu.density is not None:
        dens = mu.density(grid.node_coords)
        if np.any(dens < 0):
            raise ValueError("measure density must be nonnegative")
        values += dens
    return DiscretizedMeasure(grid=grid, values=GridFunction(grid, values))


def scale_measure(mu: RadonMeasure, factor: float) -> RadonMeasure:
    """Measure with all atom masses and the density scaled by factor >= 0."""
    if factor < 0:
        raise ValueError(f"scale factor must be nonnegative, got {factor}")
    atoms = tuple((loc, mass * factor) for loc, mass in mu.atoms)
    density = None
    if mu.density is not None:
        from .fields import scale_field

        density = scale_field(mu.density, factor)
    return RadonMeasure(atoms=atoms, density=density)
