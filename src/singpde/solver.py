"""Inexact Newton solves for the regularized singular problems.

At regularization level n the problem

    -Lap u = h_n(u + 1/n) * min(n, f) + mu_n,   u = 0 on the boundary,

with the capped nonlinearity h_n = min(n, h) of ``singularity.eval_h_n``, is
the fixed point u = T(u) of the paper's Picard (Schauder) map T, which
freezes u inside h and solves one linear Dirichlet problem.  The 1/n shift
keeps every evaluation of h strictly away from the singularity, and the
measure enters through its width-max(h, 1/n) mollification.

The fixed point is found by inexact Newton on u - T(u) = 0 (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982; Kelley, Iterative
Methods for Linear and Nonlinear Equations, 1995).  Multiplied by the
Laplacian A, the Newton system is (A + D) d = A (T(u) - u) with the diagonal
D = min(n, f) |h_n'(u + 1/n)| >= 0, an SPD system that conjugate gradients
solve, preconditioned by the exact sine-transform solve of A, to relative
residual 0.1.  One rule moves u from its base (u_b, d_b) and step s to
max(u_b + s d_b, u_b/2), which keeps u positive: s halves, down to 1/64,
while max|T(u) - u| stays at or above the base's; otherwise (u, d) becomes
the base, with s = 1.  T stays the judge: a level is accepted once
max|T(u) - u| <= tol_fp.

Two drivers run levels, both through ``_prepare`` and ``_iterate``:
``solve_regularized`` solves one level, and the generator ``_iter_stack``,
the one schedule driver, runs the geometric schedule n = 2, 4, ..., 1024
with warm starts and one Laplacian, yielding each level as it finishes with
its successive difference in the discrete L1 norm, the natural norm for the
limit passage; ``iter_sequence`` is its view of one problem.  It keeps only
the previous level; a caller that needs more keeps what it reads.

The level loop ``_level`` runs one problem on plain arrays: a generator
that yields each right-hand side it needs solved with the Laplacian and is
sent the solution.  ``_iterate`` runs the loops of a stack of problems on
one grid (``sweep`` passes the rows of one grid to ``_iter_stack``, every
other caller one problem), and they share only the kernel: each round
solves every pending right-hand side in one ``mesh._solve`` call, which
gives each row the bits of its lone solve.  Stacking many small solves into
one call cuts the interpreter overhead per solve (Dongarra et al., "A
Proposed API for Batched BLAS", 2016).  A GridFunction is built only where
a value leaves: ``SolveResult.u``, ``level_source`` and the sandwich pair.

``level_source`` is the one definition of the level-n source
F(u) = h_n(u + 1/n) min(n, f) + mu_n, so T(u) = A^-1 F(u); the Picard map
and every caller that needs the source (the Kato check) use it.

The module also provides ``comparison_check``, the one nodewise order
check (verify's monotonicity in n, domination of the measure-free
solution and the sandwich pair's breach all use it), and the
sub/supersolution pair of a level: sub = v_n, the measure-free solve the
caller already has, and super = v_n + w_n with -Lap w_n = mu_n, so building
the pair costs one linear solve.  A is an M-matrix and h is nonincreasing,
so the level's solution obeys v_n <= u_n <= v_n + w_n exactly (Crandall,
Rabinowitz & Tartar, Comm. PDE 2, 1977); the pair's breach measures how far
a solve strays from that bound.  The checks return the observed numbers;
the bounds that judge them belong to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import ScalarField
from .measures import RadonMeasure, mollify
from .mesh import (
    DiscreteOperator,
    Grid,
    GridFunction,
    _apply,
    _solve,
    build_laplacian,
    require_same_grid,
    sample_field,
    solve_spd,
)
from .singularity import SingularNonlinearity, eval_h_n, slope_h_n

__all__ = [
    "ProblemSpec",
    "SolverConfig",
    "SolveResult",
    "SandwichSpec",
    "DEFAULT_SCHEDULE",
    "level_source",
    "solve_regularized",
    "iter_sequence",
    "comparison_check",
    "build_sub_super",
    "hopf_ratio_check",
]

DEFAULT_SCHEDULE = tuple(2**j for j in range(1, 11))  # 2, 4, ..., 1024


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """One regularized problem: grid, nonlinearity, source, measure, level."""

    grid: Grid
    h: SingularNonlinearity
    f: ScalarField
    mu: RadonMeasure
    n: int = 1

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"regularization level must be an integer >= 1, got {self.n}")

    def without_measure(self) -> "ProblemSpec":
        return replace(self, mu=RadonMeasure())


@dataclass(frozen=True)
class SolverConfig:
    """Level-solve controls.

    A level is accepted once one Picard step moves the iterate by at most
    ``tol_fp`` in the max norm; ``tol_fp`` defaults to None and resolves to
    1e-10 in 1D and 1e-8 otherwise.  ``max_iters`` bounds the evaluations of
    the Picard map per level at its iterates; a cold start makes one more,
    T(0).  The bounds that judge verify's checks are not solver settings;
    they sit with the suites in ``cli``.
    """

    tol_fp: float | None = None
    max_iters: int = 500

    def resolved_tol_fp(self, grid: Grid) -> float:
        if self.tol_fp is not None:
            return self.tol_fp
        return 1e-10 if grid.dim == 1 else 1e-8

    def resolved_damping(self, h: SingularNonlinearity) -> float:
        """The damping of the former Picard solver: 0.7 for gamma >= 1, else
        1.0.  No solve uses it; only the benchmark's correctness gate reads
        it, to scale its residual bound."""
        return 0.7 if h.gamma >= 1.0 else 1.0


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Converged (or flagged) nonnegative solution of one regularized level.

    ``iterations`` counts evaluations of the Picard map T at the iterates,
    ``residual`` is the last max|T(u) - u| and ``linear_solves`` counts
    every Laplacian solve of the level: one per evaluation of T, the T(0)
    of a cold start included, plus the PCG solves, i.e. cold + iterations
    + PCG.
    """

    u: GridFunction
    iterations: int
    residual: float
    converged: bool
    linear_solves: int


# ---------------------------------------------------------------------------
# Prepared level data and the Picard map
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Prepared:
    """The level data of one problem at its level n."""

    grid: Grid
    h: SingularNonlinearity
    cap: float
    shift: float
    f_capped: np.ndarray
    mu_vals: np.ndarray
    f_active: bool


def _prepare(spec: ProblemSpec) -> _Prepared:
    f_vals = sample_field(spec.grid, spec.f).values
    if np.any(f_vals < 0):
        raise ValueError("source f must be nonnegative at every node")
    n = float(spec.n)
    f_capped = np.minimum(f_vals, n)
    return _Prepared(
        grid=spec.grid,
        h=spec.h,
        cap=n,
        shift=1.0 / n,
        f_capped=f_capped,
        mu_vals=mollify(spec.mu, spec.grid, spec.n).values.values,
        f_active=bool(np.any(f_capped > 0)),
    )


def _source(prep: _Prepared, arg: np.ndarray | None):
    """The level-n source ``(F, h values)`` with h evaluated at ``arg``.

    With f identically zero the problem is linear in the measure: ``arg`` may
    be None, h is never evaluated and the h values are None.
    """
    if not prep.f_active:
        return prep.mu_vals, None
    hv = eval_h_n(prep.h, prep.cap, arg + prep.shift)
    rhs = hv * prep.f_capped + prep.mu_vals
    if not np.isfinite(rhs).all():
        raise OverflowError("right-hand side overflowed during Picard step")
    return rhs, hv


def level_source(spec: ProblemSpec, u: GridFunction) -> GridFunction:
    """F(u) = min(n, h(|u| + 1/n)) min(n, f) + mu_n at level ``spec.n``: the
    source whose solve is the Picard map's image, T(u) = A^-1 F(u)."""
    require_same_grid(spec.grid, u.grid)
    rhs, _ = _source(_prepare(spec), np.abs(u.values))
    return GridFunction(spec.grid, rhs)


def _picard(prep: _Prepared, u: np.ndarray):
    """One step of the Picard map, a generator that yields F(u) and is sent
    A^-1 F(u): returns ``(T(u), |u|, h values)``.

    |u| is the argument of h; it and the h values are None when f vanishes
    identically.  The caller rebinds all three after the solve: freeing the
    previous |u| and h values before it raised the 3D/64 peak by about 2 MB.
    """
    arg = np.abs(u) if prep.f_active else None
    rhs, hv = _source(prep, arg)
    return (yield rhs), arg, hv


# Forcing term of the inexact Newton solve: PCG stops once the linear
# residual has dropped by this factor (Dembo, Eisenstat & Steihaug 1982).
_FORCING = 0.1
# PCG preconditioned by A converges in a few iterations; the cap only bounds
# the work of a pathological step, which the outer loop then judges by T.
_MAX_CG_ITERS = 50
# A Newton step that does not lower max|T(u) - u| below that of its base is
# halved, down to this fraction of the full step.
_MIN_STEP = 1.0 / 64.0


def _newton_direction(prep: _Prepared, r: np.ndarray, diag: np.ndarray):
    """Inexact solution d of (A + diag(diag)) d = A r by PCG, preconditioned
    by the exact solve of A, a generator that yields each residual to solve
    with A and is sent the solution; returns d and the number of solves.

    Started from d = 0, the first preconditioned residual A^-1 (A r) is r
    itself, and A p is carried by recurrence through A z = res, so the only
    stencil application is the one forming A r.  ``r`` is overwritten: it
    serves as the search direction.
    """
    b = _apply(prep.grid, r)
    stop = _FORCING * math.sqrt(b @ b)
    d = np.zeros_like(r)
    res = b
    p = r
    ap = b.copy()
    q = np.empty_like(r)
    rz = float(res @ p)
    solves = 0
    for _ in range(_MAX_CG_ITERS):
        np.multiply(diag, p, out=q)
        q += ap
        alpha = rz / float(p @ q)
        d += alpha * p
        res -= alpha * q
        # Written so that a non-finite norm (overflow) also ends the loop;
        # the caller's finiteness check on the new iterate reports it.
        if not stop < math.sqrt(res @ res) < np.inf:
            break
        z = yield res
        solves += 1
        rz, rz_old = float(res @ z), rz
        beta = rz / rz_old
        p *= beta
        p += z
        ap *= beta
        ap += res
    return d, solves


def _level(prep: _Prepared, cfg: SolverConfig, tol_fp: float, initial: np.ndarray | None):
    """Inexact Newton-PCG solve of u = T(u), with T the Picard map, for one
    problem: a generator that yields each right-hand side b it needs solved
    with A, is sent A^-1 b, and returns the SolveResult.

    ``initial`` is None (a cold start, u = T(0)) or the start.  Each
    iteration evaluates w = T(u) (one solve) and accepts u once
    max|w - u| <= tol_fp; with f identically zero T is constant and u moves
    to w.  Otherwise, if max|w - u| did not fall below its base's, the step
    halves, while it exceeds ``_MIN_STEP``; else PCG gives the Newton step d
    of u - T(u) = 0, i.e. (A + D) d = A (w - u) with D = f_n |h_n'(|u| + 1/n)|
    where u >= 0, and (u, d, max|w - u|) becomes the base with step 1.  Then
    u moves to max(base_u + step base_d, base_u/2).  The returned u is the
    last one judged, so ``residual`` is its own max|T(u) - u|.  A non-finite
    source or iterate raises OverflowError.
    """
    solves = 0
    if initial is None:
        u, _, _ = yield from _picard(prep, np.zeros(prep.grid.interior_count))
        solves += 1
    else:
        u = np.array(initial, dtype=float)
    converged = False
    residual = np.inf
    iterations = 0
    base_u = base_d = None
    base_residual = np.inf
    step = 1.0
    for iterations in range(1, cfg.max_iters + 1):
        r, arg, hv = yield from _picard(prep, u)
        solves += 1
        r -= u  # T(u) - u, in place
        residual = float(np.abs(r).max())
        converged = residual <= tol_fp
        if converged or iterations == cfg.max_iters:
            break
        if hv is None:  # T is constant, so T(u) = u + r is its fixed point
            u = u + r
            continue
        if residual >= base_residual and step > _MIN_STEP:
            step *= 0.5
        else:
            diag = slope_h_n(prep.h, prep.cap, arg + prep.shift, hv)
            diag *= prep.f_capped
            # Only a caller's start can hold negative entries.  There |u| != u,
            # so the slope of h_n(|u| + 1/n) in u flips and the Newton diagonal
            # would have the wrong sign; the step drops it.
            diag[arg != u] = 0.0
            # Free what the PCG solves do not read: their work vectors set the
            # level solve's peak memory.
            del arg, hv, base_d
            base_u, base_residual, step = u, residual, 1.0
            base_d, cg_solves = yield from _newton_direction(prep, r, diag)
            solves += cg_solves
        # 1.0 * d == d exactly: a new base moves u to max(u + d, u/2).
        u = np.maximum(base_u + step * base_d, 0.5 * base_u)
        if not np.isfinite(u).all():
            raise OverflowError("Newton iterate contains non-finite values")
    return SolveResult(
        u=GridFunction(prep.grid, u),
        iterations=iterations,
        residual=residual,
        converged=converged,
        linear_solves=solves,
    )


# The loops run inside the driver's calls to ``send``, so the errstate goes
# on the driver: on a generator function it would cover only the creation of
# the generator.
@np.errstate(over="ignore", invalid="ignore")
def _iterate(specs, lap: DiscreteOperator, cfg: SolverConfig, tol_fp: float,
             initials) -> list[SolveResult]:
    """The level solves of ``specs``, problems on the grid of ``lap``, from
    ``initials`` (None for cold starts, else one start per problem): one
    ``_level`` loop per problem.  Each round solves the right-hand sides of
    every loop still running in one ``_solve`` call, each row to the bits of
    its lone solve, and sends each loop its solution.  Floating-point
    overflow raises no warning here; a loop that raises ends every loop.
    """
    starts = [None] * len(specs) if initials is None else initials
    loops = [_level(_prepare(spec), cfg, tol_fp, u0) for spec, u0 in zip(specs, starts)]
    results: list = [None] * len(loops)
    sends = dict.fromkeys(range(len(loops)))  # None starts a loop
    while sends:
        # Each right-hand side and each solution leaves its table before the
        # loops run on: a level's peak memory is its loop's own arrays.
        pending = {}
        for i in list(sends):
            try:
                pending[i] = loops[i].send(sends.pop(i))
            except StopIteration as done:
                results[i] = done.value
        rows = list(pending)
        if len(rows) == 1:
            sends = {rows[0]: _solve(lap, pending.pop(rows[0]))}
        elif rows:  # np.array, not np.stack: a fifth of the overhead on short rows
            sends = dict(zip(rows, _solve(lap, np.array([pending.pop(i) for i in rows]))))
    return results


def solve_regularized(
    spec: ProblemSpec, cfg: SolverConfig | None = None, initial: GridFunction | None = None
) -> SolveResult:
    """Solve one regularized level by inexact Newton-PCG.

    The iteration starts from ``initial`` when given and otherwise from one
    Picard step from zero, i.e. the linear solve with h frozen at h(1/n).
    Nonconvergence within max_iters evaluations of the Picard map returns a
    flagged result carrying the last max|T(u) - u|.
    """
    cfg = cfg or SolverConfig()
    if initial is not None:
        require_same_grid(spec.grid, initial.grid)
    [result] = _iterate(
        [spec],
        build_laplacian(spec.grid),
        cfg,
        cfg.resolved_tol_fp(spec.grid),
        None if initial is None else [initial.values],
    )
    return result


def iter_sequence(spec: ProblemSpec, n_schedule=None, cfg: SolverConfig | None = None):
    """Yield ``(n, result, l1_diff, max_diff)`` as each level of the schedule
    finishes, solved with warm starts and one Laplacian.

    ``spec.n`` is ignored; each level uses its schedule value.  The
    differences from the previous level, in the discrete L1 and the max
    norm, are NaN at the first level and at the first nonconvergent one,
    which is the last level yielded.  An empty, non-increasing or
    non-integer schedule raises ValueError at the first ``next``.
    """
    for n, solved in _iter_stack([spec], n_schedule, cfg):
        yield (n, *solved[0])


def _iter_stack(specs, n_schedule=None, cfg: SolverConfig | None = None):
    """``iter_sequence`` for a stack of problems on one grid, each to the
    bits of its lone schedule: each level yields
    ``(n, {i: (result, l1_diff, max_diff)})`` for the problems i solved at
    it, whose level loops ran through one ``_iterate``, sharing its kernel
    calls.  A problem whose level does not converge ends its own schedule
    there."""
    cfg = cfg or SolverConfig()
    schedule = tuple(DEFAULT_SCHEDULE if n_schedule is None else n_schedule)
    if not schedule:
        raise ValueError("n_schedule must not be empty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    levels = [[replace(s, n=n) for s in specs] for n in schedule]  # ProblemSpec checks each n
    grid = specs[0].grid
    for spec in specs:
        require_same_grid(grid, spec.grid)
    lap = build_laplacian(grid)
    tol_fp = cfg.resolved_tol_fp(grid)
    running = list(range(len(specs)))
    prev: list[np.ndarray] | None = None
    for n, level in zip(schedule, levels):
        results = _iterate([level[i] for i in running], lap, cfg, tol_fp, prev)
        solved = {}
        for j, (i, res) in enumerate(zip(running, results)):
            l1 = mx = math.nan
            if res.converged and prev is not None:
                diff = np.abs(res.u.values - prev[j])
                l1 = float(np.sum(diff) * grid.cell_volume)
                mx = float(np.max(diff))
            solved[i] = (res, l1, mx)
        running = [i for i, res in zip(running, results) if res.converged]
        prev = [solved[i][0].u.values for i in running]
        del results
        yield n, solved
        if not running:
            return


# ---------------------------------------------------------------------------
# Order check
# ---------------------------------------------------------------------------


def comparison_check(u: GridFunction, v: GridFunction) -> float:
    """Worst nodewise excess (v - u)^+ of the lower function v over u."""
    require_same_grid(u.grid, v.grid)
    return float(np.max(np.clip(v.values - u.values, 0.0, None)))


# ---------------------------------------------------------------------------
# Sandwich pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SandwichSpec:
    """An ordered sub/supersolution pair [sub, sup] of one level.

    ``breach(u)`` is the largest nodewise distance of u outside [sub, sup],
    0 when u lies inside, as the level's solution does for the pair of
    ``build_sub_super``, up to the solves' tolerance.
    """

    sub: GridFunction
    sup: GridFunction

    def __post_init__(self):
        require_same_grid(self.sub.grid, self.sup.grid)
        if np.any(self.sub.values > self.sup.values):
            raise ValueError("subsolution exceeds supersolution at some node")
        if np.any(self.sub.values <= 0.0):
            raise ValueError("subsolution must be strictly positive on the interior")

    def breach(self, u: GridFunction) -> float:
        return max(comparison_check(u, self.sub), comparison_check(self.sup, u))


def build_sub_super(spec: ProblemSpec, sub: GridFunction) -> SandwichSpec:
    """Sub/supersolution pair of ``spec`` from ``sub`` = v, the measure-free
    solve at level ``spec.n``: sup = v + w with -Lap w = mu_n, and w >= 0
    keeps the pair ordered exactly.  SandwichSpec refuses a v that is not
    positive at every node, which is what f = 0 gives."""
    require_same_grid(spec.grid, sub.grid)
    w = solve_spd(build_laplacian(spec.grid), mollify(spec.mu, spec.grid, spec.n).values)
    return SandwichSpec(sub=sub, sup=GridFunction(spec.grid, sub.values + w.values))


def hopf_ratio_check(v: GridFunction) -> float:
    """Smallest nodal ratio v(x) / phi_1(x), with phi_1 = prod_i sin(pi x_i)
    the first Dirichlet eigenfunction of the box; a positive ratio certifies
    the Hopf-type lower bound v >= c phi_1.  At a corner of the box phi_1
    vanishes to the same order as v (like x y in 2D), while the boundary
    distance min(x, y) does not, so v/phi_1 settles under refinement where
    v/d halves with each doubling of the cells."""
    phi1 = np.prod(np.sin(np.pi * v.grid.node_coords), axis=1)
    return float(np.min(v.values / phi1))
