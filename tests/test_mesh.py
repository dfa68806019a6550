import warnings
from dataclasses import replace

import numpy as np
import pytest

import singpde.mesh as mesh
from singpde.mesh import (
    _DENSE_MAX,
    GridFunction,
    LinearSolveError,
    _apply,
    _dst1,
    _sine_transform,
    _solve,
    build_grid,
    build_laplacian,
    max_margin,
    min_on_compact,
    sample_field,
    solve_spd,
)


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


def _explicit_dst(a, axes):
    """Unnormalised DST-I of ``a`` along ``axes``, by the explicit sine sum."""
    for axis in axes:
        m = a.shape[axis]
        j = np.arange(1, m + 1)
        s = 2.0 * np.sin(np.pi * np.outer(j, j) / (m + 1))
        a = np.moveaxis(np.tensordot(s, a, axes=([1], [axis])), 0, axis)
    return a


@pytest.mark.parametrize("shape", [(1,), (6,), (5, 3), (1, 1, 1), (4, 2, 3)])
def test_dst1_matches_explicit_sine_sum(shape):
    a = np.random.default_rng(len(shape)).uniform(-1.0, 1.0, shape)
    for axis in range(len(shape)):
        expected = _explicit_dst(a, [axis])
        np.testing.assert_allclose(_dst1(a, axis), expected, rtol=0, atol=1e-14)


def _check_sine_transform(dim, cells):
    op = build_laplacian(build_grid(dim, cells))
    assert (op.sine is not None) == (cells - 1 <= mesh._DENSE_MAX)
    a = np.random.default_rng(cells).uniform(-1.0, 1.0, op.grid.shape)
    expected = _explicit_dst(a, range(dim))
    atol = 1e-13 * np.max(np.abs(expected))
    np.testing.assert_allclose(_sine_transform(op, a), expected, rtol=0, atol=atol)


# Both sides of the cutoff: the last axis length with a dense sine matrix
# and the first that takes the FFT.
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("cells", [_DENSE_MAX + 1, _DENSE_MAX + 2])
def test_sine_transform_matches_explicit_sum_at_cutoff(dim, cells):
    _check_sine_transform(dim, cells)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("cells", [7, 8])
def test_sine_transform_matches_explicit_sum_at_lowered_cutoff(monkeypatch, dim, cells):
    # A 3D lattice at the real cutoff would hold 11 million nodes; the same
    # switch on a cutoff of 6 unknowns covers every dimension.
    monkeypatch.setattr(mesh, "_DENSE_MAX", 6)
    _check_sine_transform(dim, cells)


def test_laplacian_stores_sine_matrix_only_up_to_cutoff():
    m = _DENSE_MAX
    sine = build_laplacian(build_grid(1, m + 1)).sine
    assert sine.shape == (m, m)
    for dim, cells in ((1, m + 2), (2, m + 2), (1, 2048)):
        assert build_laplacian(build_grid(dim, cells)).sine is None


def test_sine_matrix_entries_are_accurate_at_cutoff():
    # Reducing j k mod 2(m + 1) keeps every entry within a few ulp; the
    # unreduced arguments, up to pi m, cost 2.5e-13 at m = 223.
    m = _DENSE_MAX
    k = np.arange(1, m + 1)
    pi = np.arccos(np.longdouble(-1.0))
    exact = 2 * np.sin(pi * (np.outer(k, k) % (2 * (m + 1))) / (m + 1))
    sine = build_laplacian(build_grid(1, m + 1)).sine
    assert float(np.max(np.abs(sine - exact))) <= 1e-14


@pytest.mark.parametrize("dim, cells", [(1, _DENSE_MAX + 1), (2, _DENSE_MAX + 1), (3, 24)])
def test_solve_dense_and_fft_transforms_agree(dim, cells):
    g = build_grid(dim, cells)
    op = build_laplacian(g)
    assert op.sine is not None
    rhs = GridFunction(g, np.random.default_rng(3).uniform(0.0, 1.0, g.interior_count))
    dense = solve_spd(op, rhs).values
    fft = solve_spd(replace(op, sine=None), rhs).values
    assert np.max(np.abs(dense - fft)) <= 1e-14 * np.max(np.abs(fft))


def test_solve_rejects_corrupted_sine_matrix():
    g = build_grid(3, 8)
    op = build_laplacian(g)
    bad = op.sine.copy()
    bad[2, 4] += 1e-3
    rhs = GridFunction(g, np.ones(g.interior_count))
    with pytest.raises(LinearSolveError) as err:
        solve_spd(replace(op, sine=bad), rhs)
    assert err.value.residual > 1e-6


@pytest.mark.parametrize("dim, cells", [(1, 32), (1, 1024), (2, 16), (3, 8)])
def test_kernel_and_solve_spd_return_the_same_bits(dim, cells):
    g = build_grid(dim, cells)
    op = build_laplacian(g)
    b = np.random.default_rng(dim).uniform(-1.0, 1.0, g.interior_count)
    x = _solve(op, b)
    assert isinstance(x, np.ndarray) and x.shape == (g.interior_count,)
    assert np.array_equal(x, solve_spd(op, GridFunction(g, b)).values)


@pytest.mark.parametrize("dim, cells", [(1, 32), (1, 512), (2, 16), (3, 8)])
def test_kernel_solves_each_row_of_a_stack_to_its_lone_bits(dim, cells):
    # 1D/32 takes the dense sine matrix and 1D/512 the FFT.  A stack keeps
    # each row's BLAS call of a lone solve, so no row moves by a bit.
    g = build_grid(dim, cells)
    op = build_laplacian(g)
    assert (op.sine is None) == (cells - 1 > _DENSE_MAX)
    b = np.random.default_rng(cells).uniform(-1.0, 1.0, (5, g.interior_count))
    x = _solve(op, b)
    assert x.shape == b.shape
    for row, rhs in zip(x, b):
        assert np.array_equal(row, _solve(op, rhs))
    assert np.array_equal(_apply(g, b)[2], _apply(g, b[2]))


def test_kernel_guard_judges_each_row_at_its_own_scale():
    # A wrong eigenvalue of the second sine mode leaves the first mode's
    # row exact.  The second row, 1e-14 the size of the first, misses its
    # own backward-error bound by orders of magnitude but lies far below
    # a bound taken over the whole stack.
    g = build_grid(1, 16)
    op = build_laplacian(g)
    eigenvalues = op.eigenvalues.copy()
    eigenvalues[1] *= 1.5
    bad = replace(op, eigenvalues=eigenvalues)
    x = g.node_coords[:, 0]
    first, second = np.sin(np.pi * x), 1e-14 * np.sin(2 * np.pi * x)
    _solve(bad, first)
    with pytest.raises(LinearSolveError) as err:
        _solve(bad, np.stack([first, second]))
    assert 1e-16 < err.value.residual < 1e-14


def test_kernel_rejects_corrupted_sine_matrix():
    g = build_grid(2, 8)
    op = build_laplacian(g)
    bad = op.sine.copy()
    bad[1, 3] -= 1e-3
    with pytest.raises(LinearSolveError) as err:
        _solve(replace(op, sine=bad), np.ones(g.interior_count))
    assert err.value.residual > 1e-6


@pytest.mark.parametrize("dim, cells", [(1, 16), (1, 1024), (3, 4)])
def test_kernel_rejects_wrong_eigenvalues(dim, cells):
    g = build_grid(dim, cells)
    op = build_laplacian(g)
    bad = replace(op, eigenvalues=1.5 * op.eigenvalues)
    with pytest.raises(LinearSolveError) as err:
        _solve(bad, np.ones(g.interior_count))
    assert err.value.residual > 0.1


@pytest.mark.parametrize("dim, cells", [(2, 16), (1, 1024)])
def test_solve_overflow_in_transform_raises_overflow_error_without_warning(dim, cells):
    # A finite right-hand side near the float limit overflows inside the
    # sine transform (dense on 2D/16, FFT on 1D/1024).  It used to print
    # numpy warnings and fail the guard as LinearSolveError: nan > nan.
    g = build_grid(dim, cells)
    assert (build_laplacian(g).sine is None) == (cells - 1 > _DENSE_MAX)
    rhs = GridFunction(g, np.full(g.interior_count, 1e306))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(OverflowError):
            solve_spd(build_laplacian(g), rhs)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


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


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_boundary_distance_is_symmetric_and_deepest_at_max_margin(dim):
    for cells in range(2, 10):
        g = build_grid(dim, cells)
        d = g.boundary_distance.reshape(g.shape)
        for axis in range(dim):
            assert np.array_equal(d, np.flip(d, axis))
        assert d.max() == max_margin(cells) == (cells // 2) / cells


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
