from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singpde.solver as solver
from singpde.config import SWEEP_MEASURES
from singpde.fields import constant, gaussian_bump, manufactured_singular, sin_pi, zero
from singpde.measures import RadonMeasure, mollify
from singpde.mesh import (
    GridFunction,
    build_grid,
    build_laplacian,
    min_on_compact,
    sample_field,
    solve_spd,
)
from singpde.singularity import SingularNonlinearity, eval_h_n
from singpde.solver import (
    ProblemSpec,
    SandwichSpec,
    SolverConfig,
    build_sub_super,
    comparison_check,
    hopf_ratio_check,
    iter_sequence,
    level_source,
    solve_regularized,
)

H_HALF = SingularNonlinearity.pure_power(0.5)
H_ONE = SingularNonlinearity.pure_power(1.0)
DELTA_HALF = RadonMeasure(atoms=(((0.5,), 1.0),))


def spec_1d(cells=64, h=H_HALF, f=constant(1.0), mu=RadonMeasure(), n=256):
    return ProblemSpec(grid=build_grid(1, cells), h=h, f=f, mu=mu, n=n)


def sub_super(spec, cfg=None):
    """The sandwich pair built on the measure-free solve of ``spec``'s level."""
    return build_sub_super(spec, solve_regularized(spec.without_measure(), cfg).u)


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


# -- iter_sequence -----------------------------------------------------------


def level_results(spec, n_schedule, cfg):
    """The level results that ``iter_sequence`` yields, in schedule order."""
    return [res for _, res, _, _ in iter_sequence(spec, n_schedule, cfg)]


def test_sequence_l1_differences_decrease_for_smooth_source():
    spec = spec_1d(f=constant(1.0))
    levels = list(iter_sequence(spec, None, SolverConfig(tol_fp=1e-10)))
    assert all(res.converged for _, res, _, _ in levels)
    diffs = [l1 for _, _, l1, _ in levels[1:]]
    assert all(b <= a for a, b in zip(diffs[1:], diffs[:-1])) or all(
        b <= a * 1.001 for a, b in zip(diffs, diffs[1:])
    )
    # strictly decreasing after the first level
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_sequence_f_zero_levels_stabilize_with_measure():
    spec = spec_1d(cells=16, f=zero(), mu=DELTA_HALF)
    results = level_results(spec, (2, 4, 8, 16, 32, 64), SolverConfig(tol_fp=1e-12))
    # once 1/n drops below the spacing the mollified measure is frozen
    tail = [r.u.values for r in results[-3:]]
    for a, b in zip(tail, tail[1:]):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_sequence_single_level():
    spec = spec_1d()
    [(n, res, l1, mx)] = iter_sequence(spec, (1,), SolverConfig())
    # The first level has no predecessor to differ from.
    assert n == 1 and res.converged
    assert np.isnan(l1) and np.isnan(mx)


def test_sequence_rejects_bad_schedule():
    # The generator checks the schedule when the first level is asked for,
    # before it solves any level; a non-integer level is not rounded.
    spec = spec_1d()
    for schedule in ((4, 2), (), (2.5, 4.9), (2, 4.5)):
        levels = iter_sequence(spec, schedule, SolverConfig())
        with pytest.raises(ValueError):
            next(levels)


def test_sequence_aborts_with_partial_results():
    spec = spec_1d()
    [(n, res, l1, mx)] = iter_sequence(spec, (2, 4, 8), SolverConfig(tol_fp=1e-14, max_iters=1))
    assert n == 2 and not res.converged
    assert np.isnan(l1) and np.isnan(mx)


def test_sequence_aborts_past_the_first_level():
    # Levels 2 and 4 converge within 5 evaluations of T; level 8 needs 6.
    spec = spec_1d()
    cfg = SolverConfig(tol_fp=1e-10, max_iters=5)
    levels = list(iter_sequence(spec, (2, 4, 8, 16), cfg))
    assert [n for n, _, _, _ in levels] == [2, 4, 8]
    assert [res.converged for _, res, _, _ in levels] == [True, True, False]
    # Only level 4 has differences: the first level has no predecessor and
    # the aborted one gets none.
    diffs = [(l1, mx) for _, _, l1, mx in levels]
    assert all(np.isnan(d) for d in diffs[0] + diffs[2])
    assert min(diffs[1]) > 0
    full = list(iter_sequence(spec, (2, 4), cfg))
    assert diffs[1] == full[1][2:]
    assert np.array_equal(levels[1][1].u.values, full[1][1].u.values)


# -- auxiliary sequence and comparisons --------------------------------------


def test_auxiliary_zero_source_gives_zero():
    spec = spec_1d(f=zero(), mu=DELTA_HALF)
    res = solve_regularized(spec.without_measure())
    assert np.all(res.u.values == 0.0)


def test_auxiliary_matches_fine_grid_reference():
    cfg = SolverConfig(tol_fp=1e-11)
    coarse = solve_regularized(spec_1d(cells=64, h=H_ONE, n=256), cfg)
    fine = solve_regularized(spec_1d(cells=512, h=H_ONE, n=256), cfg)
    # compare at shared nodes (every 8th fine node)
    shared = fine.u.values[7::8]
    assert np.max(np.abs(coarse.u.values - shared)) <= 5e-3


def decreases(levels):
    """comparison_check(v_n, v_{n-1}) over consecutive levels: the nodewise
    decrease from each level to the next, as verify's monotone suite
    reads it."""
    return [comparison_check(b, a) for a, b in zip(levels, levels[1:])]


def test_monotone_check_on_computed_sequence():
    spec = spec_1d(f=constant(1.0))
    results = level_results(spec.without_measure(), None, SolverConfig(tol_fp=1e-10))
    assert max(decreases([r.u for r in results])) <= 1e-8


def test_monotone_check_constant_sequence():
    grid = build_grid(1, 8)
    u = GridFunction(grid, np.ones(grid.interior_count))
    same = GridFunction(u.grid, u.values.copy())
    assert decreases([u, same, same]) == [0.0, 0.0]


def test_monotone_check_detects_artificial_decrease():
    grid = build_grid(1, 8)
    a = GridFunction(grid, np.full(grid.interior_count, 2.0))
    b = GridFunction(grid, np.ones(grid.interior_count))
    (worst,) = decreases([a, b])
    assert worst > 1e-8
    assert worst == pytest.approx(1.0)


def test_monotone_check_rejects_grid_mismatch():
    a = GridFunction(build_grid(1, 8), np.ones(7))
    b = GridFunction(build_grid(1, 16), np.ones(15))
    with pytest.raises(ValueError):
        comparison_check(b, a)


def test_comparison_check_equal_problems():
    spec = spec_1d(f=constant(1.0))
    cfg = SolverConfig(tol_fp=1e-11)
    u = solve_regularized(spec, cfg)
    v = solve_regularized(spec.without_measure(), cfg)
    assert comparison_check(u.u, v.u) <= 1e-10


def test_comparison_check_measure_dominates():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-10)
    useq = level_results(spec, None, cfg)
    vseq = level_results(spec.without_measure(), None, cfg)
    minima = []
    for u, v in zip(useq, vseq):
        assert comparison_check(u.u, v.u) <= 1e-8
        minima.append(min_on_compact(u.u, 0.25))
    top = minima[len(minima) // 2 :]
    assert min(top) > 0
    assert (max(top) - min(top)) / max(top) <= 0.10


def test_comparison_check_swapped_detects_measure_contribution():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    cfg = SolverConfig(tol_fp=1e-11)
    u = solve_regularized(spec, cfg)
    v = solve_regularized(spec.without_measure(), cfg)
    swapped = comparison_check(v.u, u.u)  # treats u as the lower function
    assert swapped > 1e-8
    assert swapped > 0.1  # roughly the point-load contribution


# -- sandwich scheme ---------------------------------------------------------


def test_build_sub_super_zero_measure_degenerate():
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure())
    sw = sub_super(spec)
    assert np.max(np.abs(sw.sup.values - sw.sub.values)) == 0.0


def test_build_sub_super_point_load_shifts_center():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=64)
    sw = sub_super(spec, SolverConfig())
    center = 31
    assert sw.sup.values[center] - sw.sub.values[center] == pytest.approx(
        0.25, abs=1e-10
    )


def test_build_sub_super_super_dominates_exactly():
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure(density=constant(1.0)))
    sw = sub_super(spec)
    assert np.all(sw.sup.values >= sw.sub.values)


def test_build_sub_super_requires_positive_source():
    # f = 0 makes the measure-free solve vanish, and SandwichSpec refuses a
    # subsolution that is not positive.
    spec = spec_1d(f=zero(), mu=DELTA_HALF)
    v = solve_regularized(spec.without_measure())
    assert v.converged and np.all(v.u.values == 0.0)
    with pytest.raises(ValueError, match="strictly positive"):
        build_sub_super(spec, v.u)


def test_sandwich_breach_is_largest_distance_outside_the_pair():
    grid = build_grid(1, 8)
    sw = SandwichSpec(
        sub=GridFunction(grid, np.ones(7)), sup=GridFunction(grid, np.full(7, 2.0))
    )
    u = np.full(7, 1.5)
    assert sw.breach(GridFunction(grid, u)) == 0.0
    u[0], u[3] = 0.25, 2.5
    assert sw.breach(GridFunction(grid, u)) == 0.75


def test_sandwich_spec_rejects_inverted_pair():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF)
    sw = sub_super(spec)
    with pytest.raises(ValueError):
        SandwichSpec(sub=sw.sup, sup=sw.sub)


def test_sandwich_spec_rejects_nonpositive_subsolution():
    grid = build_grid(1, 8)
    flat = GridFunction(grid, np.zeros(grid.interior_count))
    one = GridFunction(grid, np.ones(grid.interior_count))
    with pytest.raises(ValueError):
        SandwichSpec(sub=flat, sup=one)


def test_solve_clamped_stays_inside_sandwich():
    # No clamp is needed to keep the level solve in [v, v + w]: started
    # at the subsolution v, the plain solve ends inside the pair.
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=256)
    cfg = SolverConfig(tol_fp=1e-11)
    sw = sub_super(spec, cfg)
    res = solve_regularized(spec, cfg, sw.sub)
    assert res.converged
    assert sw.breach(res.u) <= 1e-8


def test_solve_clamped_degenerate_sandwich_returns_subsolution():
    # With mu = 0 the supersolution's w vanishes, so v = v + w pins the
    # level solution to the subsolution.
    spec = spec_1d(f=constant(1.0), mu=RadonMeasure())
    cfg = SolverConfig(tol_fp=1e-11)
    sw = sub_super(spec, cfg)
    assert np.array_equal(sw.sub.values, sw.sup.values)
    res = solve_regularized(spec, cfg)
    assert res.converged
    assert np.max(np.abs(res.u.values - sw.sub.values)) <= 1e-9


# -- Hopf ratio ----------------------------------------------------------------


def test_hopf_ratio_of_first_eigenfunction():
    # phi_1 vanishes like x y at a 2D corner, where min(x, y) / phi_1 would
    # grow as the grid refines; the ratio of phi_1 to itself stays 1.
    for dim, cells in ((1, 4), (2, 8), (2, 32), (3, 8)):
        grid = build_grid(dim, cells)
        v = sample_field(grid, lambda p: np.prod(np.sin(np.pi * p), axis=1))
        assert hopf_ratio_check(v) == pytest.approx(1.0, rel=1e-14)


def test_distance_ratio_of_sine():
    grid = build_grid(1, 4)
    v = sample_field(grid, lambda p: np.sin(np.pi * p[:, 0]))
    assert hopf_ratio_check(v) == pytest.approx(1.0)


def test_distance_ratio_of_distance_itself():
    # d / phi_1 >= t / sin(pi t) with t = d, smallest at the first interior
    # row's edge midpoint (1/8, 1/2), where phi_1 = sin(pi / 8).
    grid = build_grid(2, 8)
    v = GridFunction(grid, grid.boundary_distance.copy())
    assert hopf_ratio_check(v) == pytest.approx(0.125 / np.sin(np.pi / 8))


def test_hopf_ratio_zero_function_fails():
    grid = build_grid(1, 8)
    v = GridFunction(grid, np.zeros(grid.interior_count))
    assert hopf_ratio_check(v) == 0.0


def test_hopf_ratio_stable_under_refinement():
    cfg = SolverConfig(tol_fp=1e-11)
    ratios = []
    for cells in (64, 128):
        spec = spec_1d(cells=cells, f=constant(1.0), n=256)
        v = solve_regularized(spec.without_measure(), cfg)
        ratios.append(hopf_ratio_check(v.u))
    assert ratios[0] > 0
    assert 0.5 <= ratios[1] / ratios[0] <= 2.0


# -- uniqueness probe --------------------------------------------------------


def test_uniqueness_cold_and_supersolution_starts_agree():
    spec = spec_1d(f=constant(1.0), mu=DELTA_HALF, n=256)
    cfg = SolverConfig(tol_fp=1e-11)
    sw = sub_super(spec, cfg)
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
    results = level_results(spec, None, SolverConfig(tol_fp=1e-10))
    assert all(r.converged for r in results)
    assert max(decreases([r.u for r in results])) <= 1e-8


# -- property: the level solve inside its sandwich pair on random data --------


@settings(max_examples=40, deadline=None)
@given(
    h=st.one_of(
        st.builds(SingularNonlinearity.pure_power, st.floats(0.3, 3.0)),
        st.builds(SingularNonlinearity.shifted_power, st.floats(0.3, 3.0), st.floats(0.01, 1.0)),
        st.builds(SingularNonlinearity.bounded_plateau, st.floats(0.3, 3.0), st.floats(1.0, 20.0)),
    ),
    f=st.one_of(
        st.builds(constant, st.floats(0.5, 2.0)),
        st.builds(sin_pi, st.floats(0.5, 2.0)),
        st.builds(
            gaussian_bump,
            st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
            st.floats(0.1, 0.5),
            st.floats(0.5, 2.0),
        ),
    ),
    dim_cells=st.sampled_from(((1, 16), (2, 8))),
    position=st.tuples(*[st.floats(0.1, 0.9, exclude_min=True, exclude_max=True)] * 2),
    mass=st.floats(0.0, 5.0),
    n=st.sampled_from((8, 64)),
)
def test_level_solve_respects_sandwich_and_comparison(h, f, dim_cells, position, mass, n):
    # The pair is built on the measure-free solve v, as verify builds it on
    # the measure-free schedule's last level; v <= u is the comparison half.
    # On 600 such draws the breach stayed below 2e-6 tol_fp.
    dim, cells = dim_cells
    spec = ProblemSpec(
        grid=build_grid(dim, cells),
        h=h,
        f=f,
        mu=RadonMeasure(atoms=((position[:dim], mass),)),
        n=n,
    )
    v = solve_regularized(spec.without_measure())
    u = solve_regularized(spec)
    assert v.converged and u.converged
    assert build_sub_super(spec, v.u).breach(u.u) <= SolverConfig().resolved_tol_fp(spec.grid)


# -- reference: the damped Picard iteration the Newton solve replaced ----------


def picard_map(spec):
    """The paper's map T(u) = A^-1 (min(n, h(|u| + 1/n)) min(n, f) + mu_n)."""
    lap = build_laplacian(spec.grid)
    f_capped = np.minimum(sample_field(spec.grid, spec.f).values, spec.n)
    mu_n = mollify(spec.mu, spec.grid, spec.n).values.values

    def T(u):
        hv = eval_h_n(spec.h, spec.n, np.abs(u) + 1.0 / spec.n)
        return solve_spd(lap, GridFunction(spec.grid, hv * f_capped + mu_n)).values

    return T


def picard_reference(spec, tol, start=None):
    """Damped Picard from ``start`` (default T(0)) until max|T(u) - u| <= tol."""
    T = picard_map(spec)
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
@pytest.mark.parametrize("h", _H_FAMILIES, ids=lambda h: h.kind)
def test_level_solve_lies_inside_the_sandwich_pair(dim, cells, h):
    # A is an M-matrix and h is nonincreasing, so the exact level solution
    # obeys v <= u <= v + w; the solves, each to tol_fp, keep it to tol_fp.
    # Neither side is tight: u lies strictly inside the pair somewhere.
    spec = atom_spec(dim, cells, h)
    tol_fp = SolverConfig().resolved_tol_fp(spec.grid)
    res = solve_regularized(spec)
    assert res.converged
    sw = sub_super(spec)
    assert sw.breach(res.u) <= tol_fp
    assert np.max(res.u.values - sw.sub.values) > 1e-3
    assert np.max(sw.sup.values - res.u.values) > 1e-3


@pytest.mark.parametrize("dim, cells", _GRIDS)
def test_level_source_is_the_picard_maps_source(dim, cells):
    spec = atom_spec(dim, cells, SingularNonlinearity.shifted_power(2.0, 0.05), n=64)
    u = solve_regularized(spec).u
    image = solve_spd(build_laplacian(spec.grid), level_source(spec, u)).values
    assert np.allclose(image, picard_map(spec)(u.values), rtol=1e-14, atol=0.0)


def test_level_source_builds_no_laplacian(monkeypatch):
    # The source needs no operator; only the solves that apply T build one.
    spec = atom_spec(2, 8, SingularNonlinearity.pure_power(1.5), n=64)
    u = solve_regularized(spec).u

    def no_laplacian(grid):
        raise AssertionError("level_source built a Laplacian")

    monkeypatch.setattr(solver, "build_laplacian", no_laplacian)
    source = level_source(spec, u)
    assert source.grid is spec.grid
    assert np.all(np.isfinite(source.values))


def test_overflowing_source_raises_overflow_error():
    # h_n(1/n) f_n = n^2 = 10^400 at n = 10^200 with f = 10^200.
    spec = spec_1d(cells=8, h=SingularNonlinearity.pure_power(1.5), f=constant(1e200), n=10**200)
    with pytest.raises(OverflowError, match="right-hand side"):
        solve_regularized(spec)


# -- stacks ------------------------------------------------------------------


def _stacked_levels(specs, schedule, cfg=None):
    """Per problem of the stack, the levels ``_iter_stack`` yields for it."""
    levels = [[] for _ in specs]
    for n, solved in solver._iter_stack(specs, schedule, cfg):
        for i, (res, l1, mx) in solved.items():
            levels[i].append((n, res, l1, mx))
    return levels


def _assert_same_levels(stacked, lone):
    assert [n for n, *_ in stacked] == [n for n, *_ in lone]
    for (_, res, l1, mx), (_, ref, ref_l1, ref_mx) in zip(stacked, lone):
        assert np.array_equal(res.u.values, ref.u.values)
        assert (res.iterations, res.residual, res.converged, res.linear_solves) == (
            ref.iterations, ref.residual, ref.converged, ref.linear_solves
        )
        assert np.array_equal([l1, mx], [ref_l1, ref_mx], equal_nan=True)


_STACK_H = [
    make(gamma)
    for make in (
        SingularNonlinearity.pure_power,
        lambda g: SingularNonlinearity.shifted_power(g, 0.05),
        lambda g: SingularNonlinearity.bounded_plateau(g, 10.0),
    )
    for gamma in (0.5, 1.0, 3.0)
]


@pytest.mark.parametrize("dim, cells", [(1, 32), (2, 8)])
@pytest.mark.parametrize("adjacent", [True, False], ids=["by-h", "interleaved"])
def test_stacked_schedule_gives_each_problem_its_lone_bits(dim, cells, adjacent):
    # gamma = 1 takes numpy's reciprocal path for x ** -1.0, which an array
    # of exponents would not.  The rows of one h are adjacent, as a sweep
    # lists them, or interleaved with the others.
    grid = build_grid(dim, cells)
    measures = [RadonMeasure(), RadonMeasure(atoms=(((0.5,) * dim, 1.0),))]
    pairs = [(h, mu) for h in _STACK_H for mu in measures]
    if not adjacent:
        pairs = [(h, mu) for mu in measures for h in _STACK_H]
    specs = [ProblemSpec(grid=grid, h=h, f=constant(1.0), mu=mu) for h, mu in pairs]
    schedule = (2, 8, 64, 512)
    for spec, levels in zip(specs, _stacked_levels(specs, schedule)):
        _assert_same_levels(levels, list(iter_sequence(spec, schedule)))


def test_stacked_schedule_ends_only_the_nonconvergent_rows():
    # Alone, gamma = 0.2 and 3.0 stop at level 4, 0.5 at level 8 and 1.5 at
    # level 2, each at its first nonconvergent level; 0.05 solves all four.
    # In the stack each ends its own schedule, and the others keep their bits.
    grid = build_grid(1, 64)
    cfg = SolverConfig(tol_fp=1e-10, max_iters=5)
    specs = [
        ProblemSpec(grid=grid, h=SingularNonlinearity.pure_power(g), f=constant(1.0),
                    mu=RadonMeasure())
        for g in (0.05, 0.2, 0.5, 1.5, 3.0)
    ]
    schedule = (2, 4, 8, 16)
    stacked = _stacked_levels(specs, schedule, cfg)
    assert [levels[-1][0] for levels in stacked] == [16, 4, 8, 2, 4]
    assert [levels[-1][1].converged for levels in stacked] == [True] + [False] * 4
    for spec, levels in zip(specs, stacked):
        _assert_same_levels(levels, list(iter_sequence(spec, schedule, cfg)))


def _spied_levels(monkeypatch, specs):
    """``_stacked_levels`` on the default schedule, and per level n the
    number of ``_newton_direction`` calls of each row.  No two rows may
    share their h object: a call finds its row by it."""
    calls, per_level = [], {}
    newton = solver._newton_direction

    def spy(prep, r, diag):
        [row] = [i for i, spec in enumerate(specs) if spec.h is prep.h]
        calls.append(row)
        return newton(prep, r, diag)

    monkeypatch.setattr(solver, "_newton_direction", spy)
    levels = [[] for _ in specs]
    for n, solved in solver._iter_stack(specs):
        per_level[n] = [calls.count(i) for i in range(len(specs))]
        calls.clear()
        for i, (res, l1, mx) in solved.items():
            levels[i].append((n, res, l1, mx))
    monkeypatch.undo()
    return levels, per_level


def _halvings(levels, calls, row=0):
    """Per level, the steps that ``row`` halved: every iteration but the
    accepting one moves u, by a Newton step or by halving the last one."""
    return {n: res.iterations - 1 - calls[n][row] for n, res, *_ in levels}


def _halving_spec(gamma, measure):
    return ProblemSpec(grid=build_grid(1, 64), h=SingularNonlinearity.pure_power(gamma),
                       f=constant(1.0), mu=SWEEP_MEASURES[measure])


def test_lone_schedule_halves_a_step_that_does_not_lower_the_residual(monkeypatch):
    [levels], calls = _spied_levels(monkeypatch, [_halving_spec(3.0, "uniform")])
    assert all(res.converged for _, res, *_ in levels)
    assert {n: k for n, k in _halvings(levels, calls).items() if k} == {32: 1}


def test_stacked_row_halves_while_its_stack_mates_take_newton_steps(monkeypatch):
    # Alone, only the gamma = 3 row with the uniform measure halves, at
    # level 32.  In the stack it halves there too while its three mates take
    # Newton steps, and every row keeps its lone bits.
    specs = [_halving_spec(g, m) for g in (1.5, 3.0) for m in ("none", "uniform")]
    stacked, calls = _spied_levels(monkeypatch, specs)
    halved = [_halvings(levels, calls, i) for i, levels in enumerate(stacked)]
    assert [{n: k for n, k in h.items() if k} for h in halved] == [{}, {}, {}, {32: 1}]
    for spec, levels in zip(specs, stacked):
        [lone], _ = _spied_levels(monkeypatch, [spec])
        _assert_same_levels(levels, lone)


@pytest.mark.parametrize(
    "other, message",
    [(lambda s: replace(s, grid=build_grid(1, 16)), "grid mismatch")],
    ids=["grid"],
)
def test_stack_rejects_problems_that_cannot_share_a_loop(other, message):
    spec = spec_1d(cells=32, mu=DELTA_HALF)
    with pytest.raises(ValueError, match=message):
        next(solver._iter_stack([spec, other(spec)], (2, 4)))


def test_stack_mixes_rows_where_f_vanishes_and_where_it_does_not():
    # Where f = 0 the Picard map is constant and the loop takes no Newton
    # step; its stack-mates with f = 1 do.  Each row keeps its lone bits.
    specs = [spec_1d(cells=32, f=f, mu=mu) for f in (zero(), constant(1.0))
             for mu in (RadonMeasure(), DELTA_HALF)]
    schedule = (2, 8, 64, 512)
    for spec, levels in zip(specs, _stacked_levels(specs, schedule)):
        _assert_same_levels(levels, list(iter_sequence(spec, schedule)))


def test_stack_shares_its_kernel_calls(monkeypatch):
    # The sweep benchmark's 1D/32 stack: each round solves the right-hand
    # sides of every row still running in one kernel call.  The calls carry
    # exactly the row solves of the lone schedules, and far fewer calls.
    grid = build_grid(1, 32)
    specs = [
        ProblemSpec(grid=grid, h=SingularNonlinearity.pure_power(g), f=constant(1.0),
                    mu=SWEEP_MEASURES[m])
        for g in (0.5, 1.5, 3.0) for m in ("none", "dirac_center", "uniform")
    ]
    lone = sum(res.linear_solves for spec in specs for _, res, *_ in iter_sequence(spec))
    rows = []
    solve = solver._solve

    def spy(op, b):
        rows.append(b.size // op.grid.interior_count)
        return solve(op, b)

    monkeypatch.setattr(solver, "_solve", spy)
    _stacked_levels(specs, None)
    assert sum(rows) == lone == 939
    assert len(rows) <= 161
