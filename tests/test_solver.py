import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singpde as sp
from singpde import (
    GridFunction,
    ProblemSpec,
    RadonMeasure,
    SandwichSpec,
    SingularNonlinearity,
    SolverConfig,
    build_grid,
    build_sub_super,
    comparison_check,
    constant,
    distance_lower_bound_check,
    manufactured_singular,
    min_on_compact,
    monotone_check,
    sample_field,
    solve_auxiliary_v,
    solve_clamped,
    solve_regularized,
    solve_sequence,
    zero,
)

H_HALF = SingularNonlinearity.pure_power(0.5)
H_ONE = SingularNonlinearity.pure_power(1.0)
DELTA_HALF = RadonMeasure(atoms=(((0.5,), 1.0),))


def spec_1d(cells=64, h=H_HALF, f=constant(1.0), mu=RadonMeasure(), n=256):
    return ProblemSpec(grid=build_grid(1, cells), h=h, f=f, mu=mu, n=n)


def green_exact(grid):
    x = grid.node_coords[:, 0]
    return np.minimum(x, 1 - x) / 2


# -- solve_regularized -------------------------------------------------------


def test_solve_manufactured_singular():
    spec = spec_1d(f=manufactured_singular(0.5), n=10**6)
    res = solve_regularized(spec)
    assert res.converged
    exact = np.sin(np.pi * spec.grid.node_coords[:, 0])
    assert np.max(np.abs(res.u.values - exact)) <= 2e-3


def test_solve_point_load_exact_greens_function():
    spec = spec_1d(f=zero(), mu=DELTA_HALF, n=64)
    res = solve_regularized(spec, SolverConfig())
    assert res.converged
    assert np.max(np.abs(res.u.values - green_exact(spec.grid))) <= 1e-10


def test_solve_trivial_zero_converges_immediately():
    spec = spec_1d(f=zero(), mu=RadonMeasure())
    res = solve_regularized(spec)
    assert res.converged
    assert res.iterations <= 2
    assert np.all(res.u.values == 0.0)


def test_solve_results_are_nonnegative():
    for spec in (
        spec_1d(mu=DELTA_HALF),
        spec_1d(h=SingularNonlinearity.pure_power(2.0), n=64),
        ProblemSpec(
            grid=build_grid(2, 16),
            h=H_ONE,
            f=constant(1.0),
            mu=RadonMeasure(atoms=(((0.5, 0.5), 1.0),)),
            n=32,
        ),
    ):
        res = solve_regularized(spec)
        assert res.converged
        assert np.min(res.u.values) >= 0.0


def test_solve_rejects_negative_source():
    grid = build_grid(1, 16)
    spec = ProblemSpec(grid=grid, h=H_HALF, f=constant(-1.0), mu=RadonMeasure(), n=4)
    with pytest.raises(ValueError):
        solve_regularized(spec)


def test_solve_nonconvergence_is_flagged_not_raised():
    spec = spec_1d(n=64)
    res = solve_regularized(spec, SolverConfig(tol_fp=1e-10, max_iters=2))
    assert not res.converged
    assert res.iterations == 2
    assert res.residual > 1e-10


def test_solve_initial_guess_override():
    spec = spec_1d(mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-11)
    cold = solve_regularized(spec, cfg)
    start = GridFunction(spec.grid, cold.u.values + 0.5)
    warm = solve_regularized(spec, cfg, initial=start)
    assert warm.converged
    assert np.max(np.abs(cold.u.values - warm.u.values)) <= 1e-8


def test_solve_linear_problem_from_initial_guess_takes_the_picard_image():
    # With f = 0 the Picard map is constant, so its first image is the solution.
    spec = spec_1d(f=zero(), mu=DELTA_HALF, n=64)
    start = GridFunction(spec.grid, green_exact(spec.grid) + 1.0)
    res = solve_regularized(spec, SolverConfig(), initial=start)
    assert res.converged
    assert res.iterations == 2
    assert np.max(np.abs(res.u.values - green_exact(spec.grid))) <= 1e-10


# -- solve_sequence ----------------------------------------------------------


def test_sequence_l1_differences_decrease_for_smooth_source():
    spec = spec_1d(f=constant(1.0))
    seq = solve_sequence(spec, None, SolverConfig(tol_fp=1e-10))
    assert seq.aborted_level is None
    diffs = seq.l1_diffs
    assert all(b <= a for a, b in zip(diffs[1:], diffs[:-1])) or all(
        b <= a * 1.001 for a, b in zip(diffs, diffs[1:])
    )
    # strictly decreasing after the first level
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_sequence_f_zero_levels_stabilize_with_measure():
    spec = spec_1d(cells=16, f=zero(), mu=DELTA_HALF)
    seq = solve_sequence(spec, (2, 4, 8, 16, 32, 64), SolverConfig(tol_fp=1e-12))
    # once 1/n drops below the spacing the mollified measure is frozen
    tail = [r.u.values for r in seq.results[-3:]]
    for a, b in zip(tail, tail[1:]):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_sequence_single_level():
    spec = spec_1d()
    seq = solve_sequence(spec, (1,), SolverConfig())
    assert len(seq.results) == 1
    assert seq.l1_diffs == ()


def test_sequence_rejects_bad_schedule():
    spec = spec_1d()
    with pytest.raises(ValueError):
        solve_sequence(spec, (4, 2), SolverConfig())
    with pytest.raises(ValueError):
        solve_sequence(spec, (), SolverConfig())


def test_sequence_aborts_with_partial_results():
    spec = spec_1d()
    seq = solve_sequence(spec, (2, 4, 8), SolverConfig(tol_fp=1e-14, max_iters=1))
    assert seq.aborted_level == 2
    assert len(seq.results) == 1


# -- auxiliary sequence and comparisons --------------------------------------


def test_auxiliary_matches_regularized_without_measure():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-11)
    a = solve_auxiliary_v(spec, cfg)
    b = solve_regularized(spec.without_measure(), cfg)
    assert np.max(np.abs(a.u.values - b.u.values)) == 0.0


def test_auxiliary_zero_source_gives_zero():
    spec = spec_1d(f=zero(), mu=DELTA_HALF)
    res = solve_auxiliary_v(spec)
    assert np.all(res.u.values == 0.0)


def test_auxiliary_matches_fine_grid_reference():
    cfg = SolverConfig(tol_fp=1e-11)
    coarse = solve_auxiliary_v(spec_1d(cells=64, h=H_ONE, n=256), cfg)
    fine = solve_auxiliary_v(spec_1d(cells=512, h=H_ONE, n=256), cfg)
    # compare at shared nodes (every 8th fine node)
    shared = fine.u.values[7::8]
    assert np.max(np.abs(coarse.u.values - shared)) <= 5e-3


def test_monotone_check_on_computed_sequence():
    spec = spec_1d(f=constant(1.0))
    seq = solve_sequence(spec.without_measure(), None, SolverConfig(tol_fp=1e-10))
    report = monotone_check([r.u for r in seq.results])
    assert report.passed
    assert report.max_violation <= 1e-8


def test_monotone_check_constant_sequence():
    grid = build_grid(1, 8)
    u = GridFunction(grid, np.ones(grid.interior_count))
    report = monotone_check([u, u.copy(), u.copy()])
    assert report.max_violation == 0.0


def test_monotone_check_detects_artificial_decrease():
    grid = build_grid(1, 8)
    a = GridFunction(grid, np.full(grid.interior_count, 2.0))
    b = GridFunction(grid, np.ones(grid.interior_count))
    report = monotone_check([a, b])
    assert not report.passed
    assert report.max_violation == pytest.approx(1.0)


def test_monotone_check_rejects_grid_mismatch_and_short_input():
    a = GridFunction(build_grid(1, 8), np.ones(7))
    b = GridFunction(build_grid(1, 16), np.ones(15))
    with pytest.raises(ValueError):
        monotone_check([a, b])
    with pytest.raises(ValueError):
        monotone_check([a])


def test_comparison_check_equal_problems():
    spec = spec_1d(f=constant(1.0))
    cfg = SolverConfig(tol_fp=1e-11)
    u = solve_regularized(spec, cfg)
    v = solve_auxiliary_v(spec, cfg)
    report = comparison_check(u.u, v.u)
    assert report.passed
    assert report.max_violation <= 1e-10


def test_comparison_check_measure_dominates():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-10)
    useq = solve_sequence(spec, None, cfg)
    vseq = solve_sequence(spec.without_measure(), None, cfg)
    minima = []
    for u, v in zip(useq.results, vseq.results):
        report = comparison_check(u.u, v.u)
        assert report.passed
        minima.append(min_on_compact(u.u, 0.25))
    top = minima[len(minima) // 2 :]
    assert min(top) > 0
    assert (max(top) - min(top)) / max(top) <= 0.10


def test_comparison_check_swapped_detects_measure_contribution():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-11)
    u = solve_regularized(spec, cfg)
    v = solve_auxiliary_v(spec, cfg)
    swapped = comparison_check(v.u, u.u)  # treats u as the lower function
    assert not swapped.passed
    assert swapped.max_violation > 0.1  # roughly the point-load contribution


# -- sandwich scheme ---------------------------------------------------------


def test_build_sub_super_zero_measure_degenerate():
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure())
    sw = build_sub_super(spec)
    assert np.max(np.abs(sw.sup.values - sw.sub.values)) == 0.0


def test_build_sub_super_point_load_shifts_center():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=64)
    sw = build_sub_super(spec, SolverConfig())
    center = 31
    assert sw.sup.values[center] - sw.sub.values[center] == pytest.approx(
        0.25, abs=1e-10
    )


def test_build_sub_super_super_dominates_exactly():
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure(density=constant(1.0)))
    sw = build_sub_super(spec)
    assert np.all(sw.sup.values >= sw.sub.values)


def test_build_sub_super_requires_positive_source():
    spec = spec_1d(f=zero(), mu=DELTA_HALF)
    with pytest.raises(ValueError):
        build_sub_super(spec)


def test_solve_clamped_stays_inside_sandwich():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=256)
    cfg = SolverConfig(tol_fp=1e-11)
    sw = build_sub_super(spec, cfg)
    res = solve_clamped(spec, sw, cfg)
    assert res.converged
    assert res.sandwich_ok
    assert res.breach <= 1e-8


def test_solve_clamped_degenerate_sandwich_returns_subsolution():
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure())
    cfg = SolverConfig(tol_fp=1e-11)
    sw = build_sub_super(spec, cfg)
    res = solve_clamped(spec, sw, cfg)
    assert res.converged
    assert np.max(np.abs(res.u.values - sw.sub.values)) <= 1e-9


def test_sandwich_spec_rejects_inverted_pair():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    sw = build_sub_super(spec)
    with pytest.raises(ValueError):
        SandwichSpec(sub=sw.sup, sup=sw.sub)


def test_sandwich_spec_rejects_nonpositive_subsolution():
    grid = build_grid(1, 8)
    flat = GridFunction(grid, np.zeros(grid.interior_count))
    one = GridFunction(grid, np.ones(grid.interior_count))
    with pytest.raises(ValueError):
        SandwichSpec(sub=flat, sup=one)


# -- distance lower bound ----------------------------------------------------


def test_distance_ratio_of_sine():
    grid = build_grid(1, 4)
    v = sample_field(grid, lambda p: np.sin(np.pi * p[:, 0]))
    assert distance_lower_bound_check(v) == pytest.approx(2.0)


def test_distance_ratio_zero_function_fails():
    grid = build_grid(1, 8)
    v = GridFunction(grid, np.zeros(grid.interior_count))
    assert distance_lower_bound_check(v) == 0.0


def test_distance_ratio_of_distance_itself():
    grid = build_grid(2, 8)
    v = GridFunction(grid, grid.boundary_distance.copy())
    assert distance_lower_bound_check(v) == pytest.approx(1.0)


def test_distance_ratio_stable_under_refinement():
    cfg = SolverConfig(tol_fp=1e-11)
    ratios = []
    for cells in (64, 128):
        spec = spec_1d(cells=cells, f=constant(1.0), n=256)
        v = solve_auxiliary_v(spec, cfg)
        ratios.append(distance_lower_bound_check(v.u))
    assert ratios[0] > 0
    assert 0.5 <= ratios[1] / ratios[0] <= 2.0


# -- uniqueness probe --------------------------------------------------------


def test_uniqueness_cold_and_supersolution_starts_agree():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=256)
    cfg = SolverConfig(tol_fp=1e-11)
    sw = build_sub_super(spec, cfg)
    cold = solve_regularized(spec, cfg)
    warm = solve_regularized(spec, cfg, initial=sw.sup)
    assert cold.converged and warm.converged
    assert np.max(np.abs(cold.u.values - warm.u.values)) <= 1e-8


# -- strongly singular regime ------------------------------------------------


def test_strong_singularity_sequence_converges_with_adaptive_damping():
    spec = ProblemSpec(
        grid=build_grid(2, 16),
        h=SingularNonlinearity.pure_power(2.0),
        f=constant(1.0),
        mu=RadonMeasure(),
        n=2,
    )
    seq = solve_sequence(spec, None, SolverConfig(tol_fp=1e-10))
    assert seq.aborted_level is None
    report = monotone_check([r.u for r in seq.results])
    assert report.passed


# -- property: the shared Picard driver on random data -------------------------


@settings(max_examples=25, deadline=None)
@given(
    gamma=st.floats(0.3, 3.0),
    c=st.floats(0.5, 2.0),
    position=st.floats(0.1, 0.9, exclude_min=True, exclude_max=True),
    mass=st.floats(0.0, 5.0),
    n=st.sampled_from((8, 64)),
)
def test_clamped_and_plain_solves_respect_sandwich_and_comparison(gamma, c, position, mass, n):
    spec = spec_1d(
        cells=16,
        h=SingularNonlinearity.pure_power(gamma),
        f=constant(c),
        mu=RadonMeasure(atoms=(((position,), mass),)),
        n=n,
    )
    tol = SolverConfig().tol_mono
    sw = build_sub_super(spec)
    clamped = solve_clamped(spec, sw)
    assert clamped.converged
    assert clamped.sandwich_ok
    assert np.all(sw.sub.values <= clamped.u.values + tol)
    assert np.all(clamped.u.values <= sw.sup.values + tol)

    v = solve_auxiliary_v(spec)
    u = solve_regularized(spec)
    assert v.converged and u.converged
    assert np.all(v.u.values <= u.u.values + tol)


# -- reference: the damped Picard iteration the Newton solve replaced ----------


def picard_map(spec, arg_map=np.abs):
    """The paper's map T(u) = A^-1 (min(n, h(arg_map(u) + 1/n)) min(n, f) + mu_n)."""
    lap = sp.build_laplacian(spec.grid)
    f_capped = np.minimum(sample_field(spec.grid, spec.f).values, spec.n)
    mu_n = sp.mollify(spec.mu, spec.grid, spec.n).values.values

    def T(u):
        hv = sp.eval_h_n(spec.h, spec.n, arg_map(u) + 1.0 / spec.n)
        return sp.solve_spd(lap, GridFunction(spec.grid, hv * f_capped + mu_n)).values

    return T


def picard_reference(spec, tol, start=None, arg_map=np.abs):
    """Damped Picard from ``start`` (default T(0)) until max|T(u) - u| <= tol."""
    T = picard_map(spec, arg_map)
    damping = 0.7 if spec.h.gamma >= 1.0 else 1.0
    u = T(np.zeros(spec.grid.interior_count)) if start is None else start.copy()
    for _ in range(5000):
        w = T(u)
        if np.max(np.abs(w - u)) <= tol:
            return w
        u = (1.0 - damping) * u + damping * w
    raise AssertionError("reference Picard iteration did not converge")


_H_FAMILIES = [
    SingularNonlinearity.pure_power(1.5),
    SingularNonlinearity.shifted_power(2.0, 0.05),
    SingularNonlinearity.bounded_plateau(1.5, 10.0),
]
_GRIDS = [(1, 32), (2, 16), (3, 8)]


def atom_spec(dim, cells, h, n=256):
    return ProblemSpec(
        grid=build_grid(dim, cells),
        h=h,
        f=constant(1.0),
        mu=RadonMeasure(atoms=(((0.5,) * dim, 1.0),)),
        n=n,
    )


@pytest.mark.parametrize("dim, cells", _GRIDS)
@pytest.mark.parametrize("h", _H_FAMILIES, ids=lambda h: h.kind)
def test_newton_matches_picard_reference(dim, cells, h):
    spec = atom_spec(dim, cells, h)
    tol_fp = SolverConfig().resolved_tol_fp(spec.grid)
    res = solve_regularized(spec)
    assert res.converged
    reference = picard_reference(spec, tol_fp / 10)
    assert np.max(np.abs(res.u.values - reference)) <= 10 * tol_fp
    # the returned u is a fixed point of the undamped map within tol_fp
    T = picard_map(spec)
    assert np.max(np.abs(T(res.u.values) - res.u.values)) <= tol_fp


@pytest.mark.parametrize("dim, cells", _GRIDS)
def test_clamped_newton_matches_picard_reference(dim, cells):
    spec = atom_spec(dim, cells, SingularNonlinearity.pure_power(1.5))
    tol_fp = SolverConfig().resolved_tol_fp(spec.grid)
    sw = build_sub_super(spec)
    res = solve_clamped(spec, sw)
    assert res.converged
    reference = picard_reference(spec, tol_fp / 10, sw.sub.values, sw.clamp)
    assert np.max(np.abs(res.u.values - reference)) <= 10 * tol_fp
    T = picard_map(spec, sw.clamp)
    assert np.max(np.abs(T(res.u.values) - res.u.values)) <= tol_fp
