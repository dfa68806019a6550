import numpy as np
import pytest

from singpde.diagnostics import (
    discrete_gradient_magnitude,
    gradient_energy,
    kato_residual,
    sobolev_norm,
    tail_fit,
    torsion_function,
    truncation_energy,
)
from singpde.fields import constant
from singpde.measures import RadonMeasure
from singpde.mesh import GridFunction, build_grid, build_laplacian, sample_field, solve_spd
from singpde.singularity import SingularNonlinearity, trunc_T
from singpde.solver import ProblemSpec, SolverConfig, level_source, solve_regularized

DELTA_HALF = RadonMeasure(atoms=(((0.5,), 1.0),))


def greens_tent(cells=64):
    grid = build_grid(1, cells)
    load = np.zeros(grid.interior_count)
    load[cells // 2 - 1] = 1.0 / grid.spacing
    u = solve_spd(build_laplacian(grid), GridFunction(grid, load))
    return grid, u


# -- gradients and norms -----------------------------------------------------


def test_gradient_of_zero_function():
    grid = build_grid(2, 8)
    u = GridFunction(grid, np.zeros(grid.interior_count))
    assert np.all(discrete_gradient_magnitude(u) == 0.0)


def test_gradient_of_identity_ramp():
    grid = build_grid(1, 8)
    u = sample_field(grid, lambda p: p[:, 0])
    grad = discrete_gradient_magnitude(u)
    # interior cells carry unit slope; the last cell jumps down to the zero
    # boundary value with slope (1 - h)/h
    assert np.allclose(grad[:-1], 1.0)
    assert grad[-1] == pytest.approx((1 - grid.spacing) / grid.spacing)


def test_gradient_of_greens_tent_is_half_everywhere():
    _, u = greens_tent()
    assert np.allclose(discrete_gradient_magnitude(u), 0.5)


def test_sobolev_norm_zero():
    grid = build_grid(1, 16)
    u = GridFunction(grid, np.zeros(grid.interior_count))
    assert sobolev_norm(u, 1.0) == 0.0


def test_sobolev_norm_greens_tent_q1():
    grid, u = greens_tent()
    # gradient part 0.5, function part 0.125 (trapezoid-exact for the tent)
    assert sobolev_norm(u, 1.0) == pytest.approx(0.625, abs=grid.spacing)


def test_sobolev_norm_is_homogeneous():
    grid, u = greens_tent(32)
    doubled = GridFunction(grid, 2.0 * u.values)
    for q in (1.0, 1.2, 2.0):
        assert sobolev_norm(doubled, q) == pytest.approx(2.0 * sobolev_norm(u, q))


def test_sobolev_norm_rejects_q_below_one():
    grid, u = greens_tent(16)
    with pytest.raises(ValueError):
        sobolev_norm(u, 0.5)


# -- tail fits ---------------------------------------------------------------


def power_law_sample(count=100_000):
    """Values sqrt(count / k), k = 1..count, all >= 1: count(v >= t) is
    floor(count / t^2), a tail of exponent -2."""
    return np.sqrt(count / np.arange(1, count + 1))


def test_distribution_constant_field():
    # A constant field puts the lower percentile at or above the upper one,
    # above the floor (3) as well as below it (0.5), so the thresholds run
    # over the decade below the value; every superlevel set is the whole box.
    grid = build_grid(1, 64)
    for value in (3.0, 0.5):
        fit = tail_fit(np.full(64, value), grid.cell_volume)
        assert fit.conclusive
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0


def test_distribution_greens_gradient_step():
    # Two levels: 48 cells at 1 and 16 at 8, so the thresholds run from
    # exactly 1 to exactly 8 and the values sit on both end thresholds.
    # Masses count |v| >= t, so the first threshold holds the whole box and
    # the last one the upper quarter.
    grid = build_grid(1, 64)
    field = np.where(np.arange(64) < 48, 1.0, 8.0)
    fit = tail_fit(field, grid.cell_volume)
    t = np.geomspace(1.0, 8.0, 16)
    masses = np.array([1.0] + [0.25] * 15)
    slope = np.polyfit(np.log(t), np.log(masses), 1)[0]
    assert fit.conclusive
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.slope < -0.1


def test_distribution_masses_nonincreasing():
    rng = np.random.default_rng(2)
    grid = build_grid(2, 16)
    u = GridFunction(grid, rng.uniform(0, 5, grid.interior_count))
    fit = tail_fit(u.values, grid.cell_volume)
    assert fit.conclusive
    assert fit.slope < 0.0
    assert 0.0 <= fit.r_squared <= 1.0
    # Only |values| count, in any shape, and the volume shifts log(mass)
    # by a constant.
    assert tail_fit(-u.reshape(), grid.cell_volume) == fit
    scaled = tail_fit(u.values, 4.0 * grid.cell_volume)
    assert scaled.slope == pytest.approx(fit.slope, rel=1e-12)
    assert scaled.r_squared == pytest.approx(fit.r_squared, rel=1e-12)


def test_marcinkiewicz_fit_exact_power_law():
    fit = tail_fit(power_law_sample(), 1e-5)
    assert fit.conclusive
    assert fit.slope == pytest.approx(-2.0, abs=1e-2)
    assert fit.r_squared >= 0.9999


def test_tail_fit_starts_at_the_floor():
    # As many values again at 0.01 put the lower percentile far below 1;
    # the floor keeps them out of the fit, which then sees the same tail.
    tail = power_law_sample()
    fit = tail_fit(np.concatenate([np.full(tail.size, 0.01), tail]), 1e-5)
    assert fit.conclusive
    assert fit.slope == pytest.approx(-2.0, abs=1e-2)
    assert fit.r_squared >= 0.9999


def test_marcinkiewicz_fit_inconclusive_with_few_points():
    # Every threshold lies at or below the upper percentile, so only a field
    # without positive values has no threshold with positive mass.
    grid = build_grid(3, 4)
    for values in (np.zeros(grid.interior_count), np.array([])):
        fit = tail_fit(values, grid.cell_volume)
        assert not fit.conclusive
        assert np.isnan(fit.slope) and np.isnan(fit.r_squared)


# -- truncation energies and the G_1 part ------------------------------------


def test_truncation_energy_zero_function():
    grid = build_grid(1, 16)
    u = GridFunction(grid, np.zeros(grid.interior_count))
    assert truncation_energy(u, 2.0, 1.0) == 0.0


def test_truncation_energy_inactive_truncation_gamma_one():
    grid, u = greens_tent()
    # u <= 0.25 < k, and (gamma+1)/2 = 1, so this is the plain energy
    assert truncation_energy(u, 1.0, 1.0) == pytest.approx(gradient_energy(u))


def test_truncation_energy_rejects_gamma_below_one():
    grid, u = greens_tent(16)
    with pytest.raises(ValueError):
        truncation_energy(u, 1.0, 0.5)


def test_g1_supported_near_peak_only():
    grid, u = greens_tent()
    lifted = GridFunction(grid, 0.8 + u.values)  # exceeds 1 only near the atom
    g1 = lifted.values - trunc_T(1.0, lifted.values)
    x = grid.node_coords[:, 0]
    assert np.all(g1[np.abs(x - 0.5) > 0.45] == 0.0)
    assert np.any(g1 > 0.0)


def test_g1_t1_identity_exact():
    rng = np.random.default_rng(9)
    grid = build_grid(2, 12)
    u = GridFunction(grid, rng.uniform(0, 3, grid.interior_count))
    g1 = np.sign(u.values) * np.maximum(np.abs(u.values) - 1.0, 0.0)
    assert np.all(trunc_T(1.0, u.values) + g1 == u.values)


def test_chebyshev_consistency_with_truncation_energy():
    spec = ProblemSpec(
        grid=build_grid(2, 16),
        h=SingularNonlinearity.pure_power(1.0),
        f=constant(1.0),
        mu=RadonMeasure(atoms=(((0.5, 0.5), 1.0),)),
        n=64,
    )
    res = solve_regularized(spec)
    assert res.converged
    for k in (0.05, 0.1, 0.2):
        w = GridFunction(spec.grid, trunc_T(k, res.u.values))
        grad = discrete_gradient_magnitude(w)
        energy = gradient_energy(w)
        for t in (0.5, 1.0, 2.0):
            mass = float(
                np.count_nonzero(grad >= t) * spec.grid.cell_volume
            )
            assert t**2 * mass <= energy + 1e-12


# -- torsion function --------------------------------------------------------


def test_torsion_1d_exact_quadratic():
    grid = build_grid(1, 64)
    phi0 = torsion_function(grid)
    x = grid.node_coords[:, 0]
    assert np.max(np.abs(phi0.values - x * (1 - x) / 2)) <= 1e-12
    assert phi0.values[31] == pytest.approx(0.125, abs=1e-12)


def test_torsion_symmetry_under_reflection():
    grid = build_grid(2, 16)
    phi0 = torsion_function(grid).reshape()
    assert np.allclose(phi0, phi0[::-1, :], atol=1e-11)
    assert np.allclose(phi0, phi0[:, ::-1], atol=1e-11)
    assert np.allclose(phi0, phi0.T, atol=1e-11)


def test_torsion_2d_positive_with_central_maximum():
    grid = build_grid(2, 32)
    phi0 = torsion_function(grid)
    assert np.min(phi0.values) > 0.0
    lattice = phi0.reshape()
    assert lattice[15, 15] == np.max(lattice)


# -- Kato residuals ----------------------------------------------------------


def kato_setup(mass1=2.0, mass2=1.0, cells=64, n=256):
    """Specs and tight level solves of two problems whose measures differ
    only in the atom's mass, and the torsion function of their grid."""
    grid = build_grid(1, cells)
    specs = [
        ProblemSpec(
            grid=grid,
            h=SingularNonlinearity.pure_power(0.5),
            f=constant(1.0),
            mu=RadonMeasure(atoms=(((0.5,), mass),)),
            n=n,
        )
        for mass in (mass1, mass2)
    ]
    solutions = []
    for spec in specs:
        res = solve_regularized(spec, SolverConfig(tol_fp=1e-12))
        assert res.converged
        solutions.append(res.u)
    return specs, solutions, torsion_function(grid)


def test_kato_identical_inputs_residual_zero():
    (spec, _), (u, _), phi0 = kato_setup(mass1=1.0, mass2=1.0)
    f = level_source(spec, u)
    report = kato_residual(u, u, f, f, phi0)
    assert report.lhs == 0.0
    assert report.rhs == 0.0
    assert report.residual == 0.0


def test_kato_ordered_measures_both_orientations():
    (spec1, spec2), (u1, u2), phi0 = kato_setup()
    f1, f2 = level_source(spec1, u1), level_source(spec2, u2)
    forward = kato_residual(u1, u2, f1, f2, phi0)
    mirrored = kato_residual(u2, u1, f2, f1, phi0)
    assert forward.lhs > 0.0
    assert forward.residual >= -1e-10
    assert mirrored.lhs == 0.0
    assert mirrored.residual >= -1e-10


def test_kato_wrong_sources_make_the_residual_negative():
    # Each solution paired with the other problem's source, F2(u1) and
    # F1(u2): where u1 >= u2 the gap is (h(u1) - h(u2)) f + mu2 - mu1 <= 0,
    # so the row the verify suite bounds by -1e-10 can fail.
    (spec1, spec2), (u1, u2), phi0 = kato_setup()
    wrong = kato_residual(u1, u2, level_source(spec2, u1), level_source(spec1, u2), phi0)
    assert wrong.lhs > 0.0
    assert wrong.residual < -1e-3


def test_kato_rejects_mismatched_grids():
    (spec1, spec2), (u1, u2), _ = kato_setup()
    f1, f2 = level_source(spec1, u1), level_source(spec2, u2)
    with pytest.raises(ValueError):
        kato_residual(u1, u2, f1, f2, torsion_function(build_grid(1, 32)))
