"""Damped Picard solves for the regularized singular problems.

At regularization level n the problem

    -Lap u = h_n(u + 1/n) * min(n, f) + mu_n,   u = 0 on the boundary,

with the capped nonlinearity h_n = min(n, h) of ``singularity.eval_h_n``, is
solved by fixed-point iteration: each step freezes the previous iterate
inside h, solves one linear Dirichlet problem, and blends the result with the
previous iterate via a damping factor.  The 1/n shift keeps every evaluation
of h strictly away from the singularity, and the measure enters through its
width-max(h, 1/n) mollification.

Strongly singular nonlinearities make the undamped iteration oscillate, so
the default damping is 0.7 for gamma >= 1 and 1.0 otherwise.  Convergence is
declared on the max norm of iterate updates; levels are driven along a
geometric schedule n = 2, 4, ..., 1024 with warm starts, and successive
differences are tracked in the discrete L1 norm, the natural norm for the
limit passage.

The module also provides the measure-free comparison sequence v_n (same
solve with mu dropped), nodewise monotonicity and domination checks, the
clamped sandwich scheme driven by a sub/supersolution pair, and the
construction of that pair: sub = v and super = v + w with -Lap w = mu_n.
The clamped right-hand side is evaluated through the same level-n capped and
shifted nonlinearity that produced the subsolution, which makes the discrete
sandwich property exact up to solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import ScalarField
from .measures import RadonMeasure, mollify
from .mesh import (
    DiscreteOperator,
    Grid,
    GridFunction,
    build_laplacian,
    require_same_grid,
    sample_field,
    solve_spd,
)
from .singularity import SingularNonlinearity, eval_h_n

__all__ = [
    "ProblemSpec",
    "SolverConfig",
    "SolveResult",
    "SequenceResult",
    "SandwichSpec",
    "ClampedSolveResult",
    "MonotoneReport",
    "ComparisonReport",
    "ConvergenceFailure",
    "DEFAULT_SCHEDULE",
    "solve_regularized",
    "solve_sequence",
    "solve_auxiliary_v",
    "monotone_check",
    "comparison_check",
    "solve_clamped",
    "build_sub_super",
    "distance_lower_bound_check",
]

DEFAULT_SCHEDULE = tuple(2**j for j in range(1, 11))  # 2, 4, ..., 1024

TOL_MONO = 1e-8


class ConvergenceFailure(RuntimeError):
    """A solve needed by a construction did not converge."""

    def __init__(self, message: str, result=None):
        super().__init__(message)
        self.result = result


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

    def with_level(self, n: int) -> "ProblemSpec":
        return replace(self, n=n)

    def without_measure(self) -> "ProblemSpec":
        return replace(self, mu=RadonMeasure())


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration controls.

    ``tol_fp`` and ``damping`` default to None and are resolved per problem:
    tol_fp = 1e-10 in 1D and 1e-8 otherwise; damping = 1.0 for gamma < 1 and
    0.7 for gamma >= 1.
    """

    tol_fp: float | None = None
    max_iters: int = 500
    damping: float | None = None
    tol_mono: float = TOL_MONO

    def resolved_tol_fp(self, grid: Grid) -> float:
        if self.tol_fp is not None:
            return self.tol_fp
        return 1e-10 if grid.dim == 1 else 1e-8

    def resolved_damping(self, h: SingularNonlinearity) -> float:
        if self.damping is not None:
            return self.damping
        return 0.7 if h.gamma >= 1.0 else 1.0


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Converged (or flagged) nonnegative solution of one regularized level."""

    u: GridFunction
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True, eq=False)
class SequenceResult:
    """Per-level solutions along an n-schedule plus successive differences."""

    results: tuple[SolveResult, ...]
    n_schedule: tuple[int, ...]
    l1_diffs: tuple[float, ...]
    max_diffs: tuple[float, ...]
    aborted_level: int | None = None

    @property
    def final(self) -> SolveResult:
        return self.results[-1]


# ---------------------------------------------------------------------------
# Prepared level data and the Picard map
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class _Prepared:
    grid: Grid
    lap: DiscreteOperator
    h: SingularNonlinearity
    cap: float
    shift: float
    f_capped: np.ndarray
    mu_vals: np.ndarray
    f_active: bool


def _prepare(spec: ProblemSpec, lap: DiscreteOperator | None = None) -> _Prepared:
    f_vals = sample_field(spec.grid, spec.f).values
    if np.any(f_vals < 0):
        raise ValueError("source f must be nonnegative at every node")
    n = float(spec.n)
    f_capped = np.minimum(f_vals, n)
    mu_vals = mollify(spec.mu, spec.grid, spec.n).values.values
    return _Prepared(
        grid=spec.grid,
        lap=lap if lap is not None else build_laplacian(spec.grid),
        h=spec.h,
        cap=n,
        shift=1.0 / n,
        f_capped=f_capped,
        mu_vals=mu_vals,
        f_active=bool(np.any(f_capped > 0)),
    )


def _rhs(prep: _Prepared, v: np.ndarray, arg_map) -> np.ndarray:
    # With f identically zero the problem is linear in the measure and h is
    # never evaluated.
    if not prep.f_active:
        return prep.mu_vals
    hv = eval_h_n(prep.h, prep.cap, arg_map(v) + prep.shift)
    return hv * prep.f_capped + prep.mu_vals


def _step(prep: _Prepared, v: np.ndarray, damping: float, arg_map=np.abs) -> np.ndarray:
    """One damped Picard step; ``arg_map(v)`` is the argument of h (``np.abs``
    for the plain scheme, ``SandwichSpec.clamp`` for the clamped one)."""
    rhs = _rhs(prep, v, arg_map)
    if not np.all(np.isfinite(rhs)):
        raise RuntimeError("right-hand side overflowed during Picard step")
    w = solve_spd(prep.lap, GridFunction(prep.grid, rhs)).values
    if damping >= 1.0:
        return w
    return (1.0 - damping) * v + damping * w


# Oscillation guard: if the update norm fails to halve over this many
# iterations, the damping is halved.  Strongly singular terms put slowly
# decaying or diverging oscillatory modes into the Picard map; reducing the
# damping turns those modes into fast ones at the cost of at most a factor
# two on well-behaved slow modes.
_STAGNATION_WINDOW = 12
_STAGNATION_FACTOR = 0.5
_MIN_DAMPING = 1.0 / 64.0


def _iterate(
    prep: _Prepared,
    cfg: SolverConfig,
    tol_fp: float,
    damping: float,
    initial: np.ndarray | None,
    arg_map=np.abs,
) -> SolveResult:
    if initial is None:
        u = _step(prep, np.zeros(prep.grid.interior_count), 1.0, arg_map)
    else:
        u = np.array(initial, dtype=float)
    history = []
    converged = False
    residual = np.inf
    iterations = 0
    last_adjust = 0
    for iterations in range(1, cfg.max_iters + 1):
        new = _step(prep, u, damping, arg_map)
        if not np.all(np.isfinite(new)):
            raise RuntimeError("Picard iterate contains non-finite values")
        residual = float(np.max(np.abs(new - u)))
        history.append(residual)
        u = new
        if residual <= tol_fp:
            converged = True
            break
        if (
            len(history) >= _STAGNATION_WINDOW
            and iterations - last_adjust >= _STAGNATION_WINDOW
            and history[-1] >= _STAGNATION_FACTOR * history[-_STAGNATION_WINDOW]
            and damping > _MIN_DAMPING
        ):
            damping *= 0.5
            last_adjust = iterations
    return SolveResult(
        u=GridFunction(prep.grid, u),
        iterations=iterations,
        residual=residual,
        converged=converged,
    )


def solve_regularized(
    spec: ProblemSpec,
    cfg: SolverConfig | None = None,
    initial: GridFunction | None = None,
) -> SolveResult:
    """Solve one regularized level by damped Picard iteration.

    The iteration starts from ``initial`` when given and otherwise from one
    Picard step from zero, i.e. the linear solve with h frozen at h(1/n).
    Nonconvergence within max_iters returns a flagged result carrying the
    last update norm.
    """
    cfg = cfg or SolverConfig()
    if initial is not None:
        require_same_grid(spec.grid, initial.grid)
    return _iterate(
        _prepare(spec),
        cfg,
        cfg.resolved_tol_fp(spec.grid),
        cfg.resolved_damping(spec.h),
        None if initial is None else initial.values,
    )


def solve_auxiliary_v(spec: ProblemSpec, cfg: SolverConfig | None = None) -> SolveResult:
    """Solve the measure-free companion problem -Lap v = h_cap(v + 1/n) f_cap."""
    return solve_regularized(spec.without_measure(), cfg)


def solve_sequence(
    spec: ProblemSpec,
    n_schedule=None,
    cfg: SolverConfig | None = None,
) -> SequenceResult:
    """Drive the regularization schedule with warm starts.

    ``spec.n`` is ignored; each level uses its schedule value.  Any
    nonconvergent level aborts the sweep and returns the partial results.
    """
    cfg = cfg or SolverConfig()
    schedule = tuple(
        int(n) for n in (DEFAULT_SCHEDULE if n_schedule is None else n_schedule)
    )
    if not schedule:
        raise ValueError("n_schedule must not be empty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("n_schedule must be strictly increasing")
    lap = build_laplacian(spec.grid)
    tol_fp = cfg.resolved_tol_fp(spec.grid)
    damping = cfg.resolved_damping(spec.h)

    results: list[SolveResult] = []
    l1_diffs: list[float] = []
    max_diffs: list[float] = []
    prev: np.ndarray | None = None
    for n in schedule:
        prep = _prepare(spec.with_level(n), lap=lap)
        res = _iterate(prep, cfg, tol_fp, damping, prev)
        results.append(res)
        if not res.converged:
            return SequenceResult(
                results=tuple(results),
                n_schedule=schedule[: len(results)],
                l1_diffs=tuple(l1_diffs),
                max_diffs=tuple(max_diffs),
                aborted_level=n,
            )
        if prev is not None:
            diff = res.u.values - prev
            l1_diffs.append(float(np.sum(np.abs(diff)) * spec.grid.cell_volume))
            max_diffs.append(float(np.max(np.abs(diff))))
        prev = res.u.values
    return SequenceResult(
        results=tuple(results),
        n_schedule=schedule,
        l1_diffs=tuple(l1_diffs),
        max_diffs=tuple(max_diffs),
    )


# ---------------------------------------------------------------------------
# Monotonicity and domination checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotoneReport:
    """Worst nodewise decrease (v_n - v_{n+1})^+ over consecutive levels."""

    max_violation: float
    tol: float
    passed: bool


def monotone_check(v_sequence, tol: float = TOL_MONO) -> MonotoneReport:
    funcs = [v.u if isinstance(v, SolveResult) else v for v in v_sequence]
    if len(funcs) < 2:
        raise ValueError("need at least two levels to check monotonicity")
    for v in funcs[1:]:
        require_same_grid(funcs[0].grid, v.grid)
    worst = max(
        float(np.max(np.clip(a.values - b.values, 0.0, None)))
        for a, b in zip(funcs, funcs[1:])
    )
    return MonotoneReport(max_violation=worst, tol=tol, passed=worst <= tol)


@dataclass(frozen=True)
class ComparisonReport:
    """Worst nodewise excess (v_n - u_n)^+."""

    max_violation: float
    tol: float
    passed: bool


def comparison_check(
    u: GridFunction | SolveResult,
    v: GridFunction | SolveResult,
    tol: float = TOL_MONO,
) -> ComparisonReport:
    uf = u.u if isinstance(u, SolveResult) else u
    vf = v.u if isinstance(v, SolveResult) else v
    require_same_grid(uf.grid, vf.grid)
    violation = float(np.max(np.clip(vf.values - uf.values, 0.0, None)))
    return ComparisonReport(max_violation=violation, tol=tol, passed=violation <= tol)


# ---------------------------------------------------------------------------
# Sandwich scheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SandwichSpec:
    """An ordered sub/supersolution pair; the clamp it induces tames h."""

    sub: GridFunction
    sup: GridFunction

    def __post_init__(self):
        require_same_grid(self.sub.grid, self.sup.grid)
        if np.any(self.sub.values > self.sup.values):
            raise ValueError("subsolution exceeds supersolution at some node")
        if np.any(self.sub.values <= 0.0):
            raise ValueError("subsolution must be strictly positive on the interior")

    def clamp(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.sub.values, self.sup.values)


@dataclass(frozen=True, eq=False)
class ClampedSolveResult:
    """Clamped fixed point plus the observed sandwich breach."""

    u: GridFunction
    iterations: int
    residual: float
    converged: bool
    breach: float
    sandwich_ok: bool


def solve_clamped(
    spec: ProblemSpec,
    sandwich: SandwichSpec,
    cfg: SolverConfig | None = None,
) -> ClampedSolveResult:
    """Fixed point of the clamped Picard map, iterated from the subsolution.

    The right-hand side evaluates h at clamp(u) + 1/n with the same level-n
    caps used to build the sandwich, so every evaluation is nonsingular and
    the exact discrete fixed point lies inside [sub, sup].  The largest
    nodewise breach of [sub, sup] at exit is reported, and one beyond
    tol_mono is flagged (not raised).
    """
    cfg = cfg or SolverConfig()
    require_same_grid(spec.grid, sandwich.sub.grid)
    res = _iterate(
        _prepare(spec),
        cfg,
        cfg.resolved_tol_fp(spec.grid),
        cfg.resolved_damping(spec.h),
        sandwich.sub.values,
        sandwich.clamp,
    )

    u = res.u.values
    below = sandwich.sub.values - u
    above = u - sandwich.sup.values
    breach = float(np.max(np.maximum(np.maximum(below, above), 0.0)))
    return ClampedSolveResult(
        u=res.u,
        iterations=res.iterations,
        residual=res.residual,
        converged=res.converged,
        breach=breach,
        sandwich_ok=breach <= cfg.tol_mono,
    )


def build_sub_super(spec: ProblemSpec, cfg: SolverConfig | None = None) -> SandwichSpec:
    """Sub/supersolution pair: sub = v (measure-free solve) and
    sup = v + w with -Lap w = mu_n; w >= 0 keeps the pair ordered exactly."""
    cfg = cfg or SolverConfig()
    f_vals = sample_field(spec.grid, spec.f).values
    if np.any(f_vals <= 0):
        raise ValueError("sub/supersolution construction needs f > 0 at every node")
    v_res = solve_auxiliary_v(spec, cfg)
    if not v_res.converged:
        raise ConvergenceFailure(
            "measure-free subsolution solve did not converge", result=v_res
        )
    lap = build_laplacian(spec.grid)
    mu_d = mollify(spec.mu, spec.grid, spec.n)
    w = solve_spd(lap, mu_d.values)
    sup = GridFunction(spec.grid, v_res.u.values + w.values)
    return SandwichSpec(sub=v_res.u, sup=sup)


def distance_lower_bound_check(v: GridFunction) -> float:
    """Smallest nodal ratio v(x) / d(x); positive ratios certify a linear
    lower bound in terms of the boundary distance."""
    return float(np.min(v.values / v.grid.boundary_distance))
