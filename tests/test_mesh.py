from dataclasses import replace

import numpy as np
import pytest

from singpde import (
    GridFunction,
    LinearSolveError,
    build_grid,
    build_laplacian,
    min_on_compact,
    sample_field,
    solve_spd,
)
from singpde.mesh import _apply, _dst1


def test_build_grid_1d_nodes():
    g = build_grid(1, 4)
    assert g.spacing == 0.25
    assert g.interior_count == 3
    np.testing.assert_allclose(g.node_coords.ravel(), [0.25, 0.5, 0.75])
    assert g.spacing * g.cells_per_side == pytest.approx(1.0)


def test_build_grid_2d_margin_band_contains_all_nodes():
    g = build_grid(2, 4, boundary_margin=0.25)
    assert g.interior_count == 9
    # every interior node has min(x, 1-x, y, 1-y) >= 0.25
    assert np.all(g.boundary_distance >= 0.25 - 1e-12)


def test_build_grid_3d_single_node():
    g = build_grid(3, 2)
    assert g.interior_count == 1
    np.testing.assert_allclose(g.node_coords, [[0.5, 0.5, 0.5]])


def test_build_grid_distance_floor():
    for dim in (1, 2, 3):
        g = build_grid(dim, 8)
        assert np.all(g.boundary_distance >= g.spacing - 1e-12)


@pytest.mark.parametrize(
    "dim,cells,margin",
    [(4, 8, 0.0), (0, 8, 0.0), (1, 1, 0.0), (1, 8, 0.5), (1, 8, -0.1)],
)
def test_build_grid_rejects_bad_arguments(dim, cells, margin):
    with pytest.raises(ValueError):
        build_grid(dim, cells, margin)


def test_laplacian_1d_stencil_row():
    g = build_grid(1, 4)
    row = build_laplacian(g).matrix.toarray()[1]
    np.testing.assert_allclose(row, [-16.0, 32.0, -16.0])


def test_laplacian_matrix_is_assembled_once():
    op = build_laplacian(build_grid(2, 8))
    assert op.matrix is op.matrix


@pytest.mark.parametrize(
    "dim,cells", [(1, 2), (1, 33), (2, 2), (2, 9), (3, 2), (3, 6)]
)
def test_apply_matches_assembled_matrix(dim, cells):
    # The matrix-free stencil of the solve guard and the CSR Kronecker sum
    # are two roundings of the same operator.
    g = build_grid(dim, cells)
    x = np.random.default_rng(cells).uniform(-1.0, 1.0, g.interior_count)
    a_norm = 4.0 * dim / g.spacing**2
    bound = 4.0 * np.finfo(float).eps * a_norm * np.max(np.abs(x))
    assert np.max(np.abs(_apply(g, x) - build_laplacian(g).matrix @ x)) <= bound


@pytest.mark.parametrize("shape", [(1,), (6,), (5, 3), (1, 1, 1), (4, 2, 3)])
def test_dst1_matches_explicit_sine_sum(shape):
    a = np.random.default_rng(len(shape)).uniform(-1.0, 1.0, shape)
    for axis, m in enumerate(shape):
        j = np.arange(1, m + 1)
        s = 2.0 * np.sin(np.pi * np.outer(j, j) / (m + 1))
        expected = np.moveaxis(np.tensordot(s, a, axes=([1], [axis])), 0, axis)
        np.testing.assert_allclose(_dst1(a, axis), expected, rtol=0, atol=1e-14)


def test_laplacian_is_exactly_symmetric():
    for dim, cells in ((1, 16), (2, 8), (3, 4)):
        a = build_laplacian(build_grid(dim, cells)).matrix
        assert (a - a.T).nnz == 0


def test_laplacian_matches_sin_second_derivative():
    g = build_grid(1, 64)
    u = sample_field(g, lambda p: np.sin(np.pi * p[:, 0]))
    lap_u = build_laplacian(g).matrix @ u.values
    exact = np.pi**2 * np.sin(np.pi * g.node_coords[:, 0])
    assert np.max(np.abs(lap_u - exact)) <= 0.01


def test_laplacian_annihilates_zero():
    g = build_grid(2, 8)
    out = build_laplacian(g).matrix @ np.zeros(g.interior_count)
    assert np.all(out == 0.0)


def test_laplacian_consistency_is_second_order():
    errors, spacings = [], []
    for cells in (8, 16, 32, 64):
        g = build_grid(1, cells)
        u = sample_field(g, lambda p: np.sin(np.pi * p[:, 0]))
        lap_u = build_laplacian(g).matrix @ u.values
        exact = np.pi**2 * np.sin(np.pi * g.node_coords[:, 0])
        errors.append(np.max(np.abs(lap_u - exact)))
        spacings.append(g.spacing)
    slope = np.polyfit(np.log(spacings), np.log(errors), 1)[0]
    assert abs(slope - 2.0) <= 0.2


def test_solve_zero_rhs_returns_zero():
    g = build_grid(2, 8)
    out = solve_spd(build_laplacian(g), GridFunction(g, np.zeros(g.interior_count)))
    assert np.all(out.values == 0.0)


def test_solve_sin_rhs_matches_closed_form():
    g = build_grid(1, 64)
    rhs = sample_field(g, lambda p: np.pi**2 * np.sin(np.pi * p[:, 0]))
    x = solve_spd(build_laplacian(g), rhs)
    exact = np.sin(np.pi * g.node_coords[:, 0])
    assert np.max(np.abs(x.values - exact)) <= 4e-4


def test_solve_matches_dense_direct_solve():
    rng = np.random.default_rng(7)
    for dim, cells in ((1, 10), (2, 6), (3, 4)):
        g = build_grid(dim, cells)
        assert g.interior_count <= 50
        op = build_laplacian(g)
        rhs = GridFunction(g, rng.uniform(-1.0, 1.0, g.interior_count))
        x = solve_spd(op, rhs)
        dense = np.linalg.solve(op.matrix.toarray(), rhs.values)
        assert np.max(np.abs(x.values - dense)) <= 1e-10


def test_solve_point_load_matches_direct_tridiagonal():
    g = build_grid(1, 16)
    op = build_laplacian(g)
    load = np.zeros(g.interior_count)
    load[3] = 1.0 / g.spacing
    x = solve_spd(op, GridFunction(g, load))
    dense = np.linalg.solve(op.matrix.toarray(), load)
    assert np.max(np.abs(x.values - dense)) <= 1e-10


def test_solve_maximum_principle():
    rng = np.random.default_rng(11)
    g = build_grid(2, 12)
    rhs = GridFunction(g, rng.uniform(0.0, 1.0, g.interior_count))
    x = solve_spd(build_laplacian(g), rhs)
    assert np.min(x.values) >= 0.0


def test_solve_rejects_operator_with_wrong_eigenvalues():
    g = build_grid(2, 8)
    op = build_laplacian(g)
    bad = replace(op, eigenvalues=2.0 * op.eigenvalues)
    rhs = GridFunction(g, np.ones(g.interior_count))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(bad, rhs)
    assert err.value.residual > 0.1


@pytest.mark.parametrize("scale", [1e-310, 5e-324])
def test_solve_subnormal_rhs_passes_guard(scale):
    # The relative bound underflows to 0 here; rounding in gradual underflow
    # is absolute, so the guard must still accept an exact solve.
    g = build_grid(1, 16)
    op = build_laplacian(g)
    b = np.zeros(g.interior_count)
    b[7] = scale
    x = solve_spd(op, GridFunction(g, b))
    assert np.all(x.values >= 0.0)
    assert np.max(np.abs(op.matrix @ x.values - b)) <= 1e-300


def test_min_on_compact_constant():
    g = build_grid(2, 8)
    u = GridFunction(g, np.ones(g.interior_count))
    assert min_on_compact(u, 0.3) == 1.0


def test_min_on_compact_sin_band():
    g = build_grid(1, 8)
    u = sample_field(g, lambda p: np.sin(np.pi * p[:, 0]))
    assert min_on_compact(u, 0.25) == pytest.approx(np.sin(np.pi * 0.25))


def test_min_on_compact_point_load_solution():
    g = build_grid(1, 64)
    load = np.zeros(g.interior_count)
    load[31] = 1.0 / g.spacing  # unit mass at x = 0.5
    u = solve_spd(build_laplacian(g), GridFunction(g, load))
    assert min_on_compact(u, 0.25) == pytest.approx(0.125, abs=1e-10)


def test_min_on_compact_empty_band_raises():
    g = build_grid(1, 5)  # node distances at most 0.4
    u = GridFunction(g, np.ones(g.interior_count))
    with pytest.raises(ValueError):
        min_on_compact(u, 0.45)


def test_grid_function_rejects_non_finite():
    g = build_grid(1, 4)
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        GridFunction(g, np.array([1.0, np.inf, 0.0]))
