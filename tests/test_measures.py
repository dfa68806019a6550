import numpy as np
import pytest

from singpde.fields import constant
from singpde.measures import RadonMeasure, mollify, scale_measure
from singpde.mesh import build_grid


def delta(x, mass=1.0):
    return RadonMeasure(atoms=(((x,), mass),))


def discrete_mass(mud):
    return float(np.sum(mud.values.values) * mud.grid.cell_volume)


def test_measure_rejects_negative_mass_and_outside_atoms():
    with pytest.raises(ValueError):
        RadonMeasure(atoms=(((0.5,), -1.0),))
    with pytest.raises(ValueError):
        RadonMeasure(atoms=(((1.5,), 1.0),))
    with pytest.raises(ValueError):
        RadonMeasure(atoms=(((0.0,), 1.0),))


def test_mollify_delta_mass_and_support():
    g = build_grid(1, 64)
    mud = mollify(delta(0.5), g, 1024)
    assert discrete_mass(mud) == pytest.approx(1.0, abs=1e-3)
    width = max(g.spacing, 1.0 / 1024)
    x = g.node_coords[:, 0]
    outside = np.abs(x - 0.5) > width + 1e-12
    assert np.all(mud.values.values[outside] == 0.0)


def test_mollify_zero_measure():
    g = build_grid(2, 8)
    mud = mollify(RadonMeasure(), g, 4)
    assert np.all(mud.values.values == 0.0)


def test_mollify_constant_density_samples_exactly():
    g = build_grid(2, 8)
    mud = mollify(RadonMeasure(density=constant(1.0)), g, 16)
    assert np.all(mud.values.values == 1.0)


def test_mollify_nonnegative_and_mass_conserving_across_levels():
    g = build_grid(2, 16)
    mu = RadonMeasure(atoms=(((0.4, 0.6), 2.5),))
    for n in (1, 2, 8, 64, 1024):
        mud = mollify(mu, g, n)
        assert np.all(mud.values.values >= 0.0)
        assert abs(discrete_mass(mud) - 2.5) <= 0.05 * 2.5


def test_mollify_boundary_atom_clips_and_keeps_mass():
    g = build_grid(1, 16)
    mud = mollify(delta(0.01), g, 16)
    assert discrete_mass(mud) == pytest.approx(1.0, abs=1e-12)


def test_mollify_corner_atom_nearest_node_fallback():
    g = build_grid(3, 8)
    mu = RadonMeasure(atoms=(((0.02, 0.02, 0.02), 1.0),))
    mud = mollify(mu, g, 10**6)  # width = spacing; no node inside the kernel
    assert discrete_mass(mud) == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(mud.values.values) == 1


def test_mollify_rejects_bad_level():
    g = build_grid(1, 8)
    with pytest.raises(ValueError):
        mollify(delta(0.5), g, 0)


def test_scale_measure_scales_total_variation():
    g = build_grid(1, 16)
    mu = RadonMeasure(atoms=(((0.5,), 1.5),), density=constant(0.5))
    doubled = scale_measure(mu, 2.0)
    assert discrete_mass(mollify(doubled, g, 16)) == pytest.approx(
        2.0 * discrete_mass(mollify(mu, g, 16))
    )
    with pytest.raises(ValueError):
        scale_measure(mu, -1.0)
