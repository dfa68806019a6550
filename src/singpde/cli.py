"""Experiment runner: ``singpde solve|verify|sweep <config>``.

``solve`` drives the regularization schedule and writes each level's
solution file and sequence row as soon as the level is solved, so its memory
does not grow with the schedule and a level that raises leaves the output of
the levels before it.  ``verify`` runs one of the named check suites and
writes one row per check.  Each suite is one entry of ``_SUITES``: the
function that writes its rows, the schedules it reads (the full one and the
measure-free one) and the number, if any, that it judges at each top-half
level of the full schedule.  The schedules that the run's suites declare are
solved once, in one lockstep pass, level by level, which keeps each
schedule's last level and the declared per-level numbers, so verify's memory
does not grow with the schedule either.  The only other solve that two
suites share is the tight-tolerance level-n_max solve, made once; it starts
from the full schedule's last level, so a suite's rows are the same alone as
under ``--suite all``.  A suite makes every other solve it needs itself.
The sandwich suite builds its sub/super pair from the measure-free
schedule's last level, so the pair costs one linear solve, judges the full
schedule's last level against it, and judges Hopf stability against the
same problem on half the cells, not on a grid finer than the config's.
The Kato check reads the solver's level-n source of its two tight solves.
The solver and the diagnostics return observed numbers, and each suite
holds the bounds that judge its rows; a solve that a suite needs and that
does not converge ends the run with exit 2, by one convergence rule.
``sweep`` runs the Cartesian product of the configured parameter grids and
aggregates one row per run.  The rows run in worker processes forked by
``os.fork`` (the config key ``threads`` sets how many, capped at the CPUs
the process may run on and at the stacks), so ``sweep`` needs a POSIX
system.  The rows are grouped into stacks: rows of one cells value whose
level loops share each round's kernel solve, each row to its lone bits.
A cells value's rows are spread over as many stacks as its share of the
sweep's work, at most ``_STACK_UNKNOWNS`` unknowns per stack, so the rows
of a larger grid are solved one at a time.  The workers inherit the config
and the stacks through the fork and are dealt the stacks in turn, finest
grid first; each sends its rows back pickled through its own pipe.  A stack
that raises is solved again row by row, so only the row at fault records
``error:<Type>``.
Only the output directory (``--out``, default ``out``) and verify's suite
(``--suite``, default ``all``) are not config keys.
All CSV output uses 17 significant digits so identical configurations
reproduce byte-identical files.  Solution files are written column-wise:
each axis coordinate is formatted once per run, and so are the rows of the
trailing ``dim - 1`` coordinates.  Each write joins those texts into byte
templates of at most ``_CHUNK_ROWS`` rows, one chunk at a time, and fills
each template with its values in one formatting call, giving the same bytes
as formatting every value on its own.

Exit codes: 0 ok, 1 configuration or usage error, 2 nonconvergence, a
linear solve that failed its backward-error check, floating-point overflow
in a level solve or an infrastructure failure, 3 failed check or invariant
violation.  Every nonzero exit is accompanied by a machine-readable
``reason,<code>,<category>,<detail>`` CSV line on stdout (and reason.csv
when the output directory exists), quoted so that a detail with a comma
stays one field; exit 2 has the categories ``nonconvergence``,
``linear_solve``, ``overflow`` and ``infrastructure``.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import pickle
import sys
from collections import namedtuple
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import fields
from .config import SWEEP_MEASURES, ConfigError, RunConfig
from .measures import RadonMeasure, scale_measure
from .mesh import GridFunction, LinearSolveError, build_grid, l1_norm, min_on_compact
from .solver import (
    ProblemSpec,
    SolveResult,
    _iter_stack,
    build_sub_super,
    comparison_check,
    hopf_ratio_check,
    iter_sequence,
    level_source,
    solve_regularized,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_INVARIANT = 3

_MANUFACTURED_CELLS = (32, 64, 128)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# Rows of a solution file per formatting call at most: the transient text of
# a write is one chunk of rows, whatever the size of the grid.
_CHUNK_ROWS = 4096


def _solution_row_texts(axis: np.ndarray, dim: int) -> tuple[list[bytes], list[bytes]]:
    """The coordinate texts of the solution rows over ``axis`` along each of
    ``dim`` axes: the text of each leading coordinate, and the rows of the
    trailing ``dim - 1`` coordinates in ``itertools.product`` order (one
    empty row in 1D).  Each axis value is formatted once, with ``b"%.17g"``,
    the UTF-8 text ``_fmt`` gives a float.  What is kept grows with
    ``cells ** (dim - 1)``, not with the node count.
    """
    texts = [b"%.17g," % x for x in axis.tolist()]
    return texts, list(map(b"".join, itertools.product(texts, repeat=dim - 1)))


def _write_solution(
    path: Path, header: bytes, row_texts: tuple[list[bytes], list[bytes]], values: np.ndarray
) -> None:
    """Write ``header``, then one row per node of ``values``: each leading
    coordinate of ``row_texts`` (from ``_solution_row_texts``) followed by
    every trailing row, in C order, the order of ``Grid.node_coords``.

    Each chunk's byte template is built as it is written, with a ``%.17g``
    placeholder for each value.  A chunk holds as many whole lines of one
    leading coordinate as fit in ``_CHUNK_ROWS`` rows; a longer line is split
    into chunks of ``_CHUNK_ROWS`` rows.  Formatted numbers contain no ``%``,
    so ``template % tuple(values)`` writes a chunk in one call.
    """
    leads, tails = row_texts
    lines = max(1, _CHUNK_ROWS // len(tails))  # whole lines per chunk
    piece = min(len(tails), _CHUNK_ROWS)  # rows of one line per chunk
    start = 0
    with open(path, "wb") as fh:
        fh.write(header)
        for k in range(0, len(leads), lines):
            chunk_leads = leads[k : k + lines]
            for a in range(0, len(tails), piece):
                rows = tails[a : a + piece]
                template = b"".join(
                    lead + (b"%.17g\n" + lead).join(rows) + b"%.17g\n" for lead in chunk_leads
                )
                stop = start + len(chunk_leads) * len(rows)
                fh.write(template % tuple(values[start:stop].tolist()))
                start = stop


def _reason(out_dir: Path | None, code: int, category: str, detail: str) -> int:
    import csv  # only a failed run pays for it

    # Quoting keeps a detail with a comma, quote or newline in one field.
    csv.writer(sys.stdout, lineterminator="\n").writerow(("reason", code, category, detail))
    if out_dir is not None and out_dir.is_dir():
        with open(out_dir / "reason.csv", "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [("code", "category", "detail"), (code, category, detail)]
            )
    return code


def _spec_from_config(cfg: RunConfig) -> ProblemSpec:
    grid = build_grid(cfg.dim, cfg.cells)
    return ProblemSpec(grid=grid, h=cfg.h, f=cfg.f, mu=cfg.mu, n=cfg.n_schedule[-1])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    spec = _spec_from_config(cfg)
    grid = spec.grid
    axis = grid.node_coords[: grid.cells_per_side - 1, -1]  # the last axis runs fastest
    row_texts = _solution_row_texts(axis, grid.dim)
    columns = (",".join(("x", "y", "z")[: cfg.dim] + ("u",)) + "\n").encode()

    header = ["level", "iterations", "residual", "l1_diff", "max_diff", "linear_solves"]
    header += [f"min_K_{m:g}" for m in cfg.margins]
    aborted = negative = None
    with open(out_dir / "sequence.csv", "w", encoding="utf-8") as seq_file:
        seq_file.write(",".join(header) + "\n")
        for n, res, l1, mx in iter_sequence(spec, cfg.n_schedule, cfg.solver):
            values = res.u.values
            _write_solution(out_dir / f"solution_n{n}.csv", columns, row_texts, values)
            minima = [min_on_compact(res.u, m) for m in cfg.margins]
            row = [n, res.iterations, res.residual, l1, mx, res.linear_solves] + minima
            seq_file.write(",".join(_fmt(x) for x in row) + "\n")
            seq_file.flush()
            if not res.converged:
                aborted = n
            floor = -1e-12 * max(1.0, float(np.max(np.abs(values))))
            if negative is None and float(values.min()) < floor:
                negative = n

    if aborted is not None:
        return _reason(
            out_dir,
            EXIT_NONCONVERGENCE,
            "nonconvergence",
            f"level {aborted} did not converge within "
            f"{cfg.solver.max_iters} iterations",
        )
    if negative is not None:
        return _reason(
            out_dir,
            EXIT_INVARIANT,
            "invariant",
            f"negative nodal value at level {negative}",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites: each takes the config and the run's ``_Run`` and returns
# rows (name, observed, bound, status); every bound sits next to its row
# ---------------------------------------------------------------------------


# The order relations that the monotone, lower-bound and sandwich suites
# check hold exactly for exact discrete solutions, by the discrete
# comparison principle; solves accepted at the default tol_fp (1e-8 at
# most) may break them by about that much.
_TOL_MONO = 1e-8
# The Kato inequality lhs <= rhs is exact for exact discrete solutions; the
# tight-tolerance solves leave rhs - lhs at most this far below zero.
_KATO_TOL = 1e-10


class _ConvergenceFailure(RuntimeError):
    """A solve that a verify suite needs did not converge."""


def _solve_converged(label: str, spec, cfg, initial=None) -> SolveResult:
    """The converged ``solve_regularized``; _ConvergenceFailure(label) if not."""
    res = solve_regularized(spec, cfg, initial)
    if not res.converged:
        raise _ConvergenceFailure(label)
    return res


class _Schedules:
    """The numbers the suites ``names`` read off the full schedule u_n and
    the measure-free one v_n, from one lockstep pass over the levels.

    Each schedule that one of the suites declares in ``_SUITES`` is solved
    once, by its own ``iter_sequence``; at each level the full schedule
    runs first, then the measure-free one, and the first nonconvergent
    level raises _ConvergenceFailure.  No level outlives the next one: the
    pass keeps ``last``, the last level of each schedule (True the full
    one, False the measure-free one), and per level these numbers:

    - ``domination``: comparison_check(u_n, v_n), when both are solved;
    - ``decrease``: comparison_check(v_n, v_{n-1}), from the second level;
    - ``top[name]``: the per-level number that suite ``name`` declares,
      taken of u_n at each level of the top half of the schedule.
    """

    def __init__(self, cfg: RunConfig, spec: ProblemSpec, names):
        wanted = sorted({s for name in names for s in _SUITES[name].schedules}, reverse=True)
        levels = {
            s: iter_sequence(spec if s else spec.without_measure(), cfg.n_schedule, cfg.solver)
            for s in wanted
        }
        self.last: dict[bool, SolveResult] = {}
        self.domination: list[float] = []
        self.decrease: list[float] = []
        self.top: dict[str, list] = {name: [] for name in names if _SUITES[name].top}
        half = len(cfg.n_schedule) // 2
        for i in range(len(cfg.n_schedule)):
            for s, schedule in levels.items():
                n, res, _, _ = next(schedule)
                if not res.converged:
                    raise _ConvergenceFailure(f"level {n} did not converge")
                if not s and False in self.last:
                    self.decrease.append(comparison_check(res.u, self.last[False].u))
                self.last[s] = res
            if len(self.last) == 2:
                self.domination.append(comparison_check(self.last[True].u, self.last[False].u))
            if i >= half:
                for name, numbers in self.top.items():
                    numbers.append(_SUITES[name].top(cfg, self.last[True].u))


class _Run:
    """The solves that two or more of the verify suites ``names`` share,
    each made once per run, on first use.

    ``schedules`` is the lockstep pass over the full and the measure-free
    schedule (``_Schedules``) for the suites in ``names``; ``tight_level``
    is the level-n_max solve under ``tight``, the solver settings of the
    near-exact identities, started from the full schedule's last level.  A
    nonconvergent solve raises _ConvergenceFailure.
    """

    def __init__(self, cfg: RunConfig, names):
        self.cfg = cfg
        self.names = names
        self.spec = _spec_from_config(cfg)
        # Near-exact identities need tighter tolerances than ordinary runs.
        self.tight = replace(
            cfg.solver,
            tol_fp=min(cfg.solver.resolved_tol_fp(self.spec.grid), 1e-12),
            max_iters=max(cfg.solver.max_iters, 800),
        )

    @cached_property
    def schedules(self) -> _Schedules:
        return _Schedules(self.cfg, self.spec, self.names)

    @cached_property
    def tight_level(self) -> SolveResult:
        return _solve_converged("tight-tolerance level solve", self.spec, self.tight,
                                self.schedules.last[True].u)


def _check(name, observed, bound, ok) -> tuple:
    return (name, observed, bound, "pass" if ok else "fail")


def _na(name, note="not-applicable") -> tuple:
    return (name, note, "", "na")


def _suite_manufactured(cfg: RunConfig, run: _Run):
    if cfg.dim != 1:
        return [_na("manufactured.error", "needs dim=1")]
    if cfg.h.kind != "pure_power":
        return [_na("manufactured.error", "needs pure_power h")]
    gamma = cfg.h.gamma
    # The cap min(n, h) must leave the manufactured source alone: n is at
    # least twice h at the finest grid's first node, where u = sin(pi x) is
    # least.  The first Picard step evaluates h(1/n) = n^gamma, so log n
    # tells, without forming n, whether that overflows.
    u_first = math.sin(math.pi / _MANUFACTURED_CELLS[-1])
    log_n = max(math.log(10**6), math.log(2) - gamma * math.log(u_first))
    if gamma * log_n >= math.log(sys.float_info.max):
        return [_na("manufactured.error", "h(1/n) overflows at the n it needs")]
    n = max(10**6, 2 * math.ceil(cfg.h(u_first)))
    f = fields.manufactured_singular(gamma)
    errors = {}
    for cells in _MANUFACTURED_CELLS:
        grid = build_grid(1, cells)
        spec = ProblemSpec(grid=grid, h=run.spec.h, f=f, mu=RadonMeasure(), n=n)
        res = _solve_converged(f"manufactured solve at cells={cells}", spec, cfg.solver)
        exact = np.sin(np.pi * grid.node_coords[:, 0])
        errors[cells] = float(np.max(np.abs(res.u.values - exact)))
    hs = np.log([1.0 / c for c in _MANUFACTURED_CELLS])
    es = np.log([errors[c] for c in _MANUFACTURED_CELLS])
    slope = float(np.polyfit(hs, es, 1)[0])
    rows = [_check("manufactured.error_cells64", errors[64], 2e-3, errors[64] <= 2e-3)]
    rows.append(
        _check("manufactured.order_slope", slope, "2+-0.2", abs(slope - 2.0) <= 0.2)
    )
    return rows


def _suite_monotone(cfg: RunConfig, run: _Run):
    decrease = run.schedules.decrease
    if not decrease:
        return [_na("monotone.max_violation", "needs two levels")]
    worst = max(decrease)
    return [_check("monotone.max_violation", worst, _TOL_MONO, worst <= _TOL_MONO)]


def _suite_lower_bound(cfg: RunConfig, run: _Run):
    schedules = run.schedules
    domination = max(schedules.domination)
    rows = [_check("lower_bound.domination", domination, _TOL_MONO, domination <= _TOL_MONO)]
    for margin, minima in zip(cfg.margins, zip(*schedules.top["lower_bound"])):
        c = min(minima)
        rows.append(_check(f"lower_bound.c_K_margin{margin:g}", c, ">0", c > 0))
        if len(minima) < 2:
            rows.append(
                _na(f"lower_bound.spread_margin{margin:g}", "needs two levels in the top half")
            )
            continue
        spread = (max(minima) - min(minima)) / max(minima) if max(minima) > 0 else 1.0
        rows.append(
            _check(f"lower_bound.spread_margin{margin:g}", spread, 0.10, spread <= 0.10)
        )
    return rows


_ENERGY_KS = (1.0, 2.0, 4.0, 8.0, 16.0)


def _energy_slope(u: GridFunction, gamma: float) -> float | None:
    """Slope of log E(T_k u) against log k over the k below max u; None
    when fewer than two k are below it."""
    # T_k(u) = u once k >= max u: such k repeat one energy and flatten the
    # fitted slope, so only the truncations that cut u test the law.
    u_max = float(u.values.max())
    ks = [k for k in _ENERGY_KS if k < u_max]
    if len(ks) < 2:
        return None
    energies = [diag.truncation_energy(u, k, gamma) for k in ks]
    return float(np.polyfit(np.log(ks), np.log(energies), 1)[0])


def _suite_energy_law(cfg: RunConfig, run: _Run):
    if cfg.h.gamma < 1.0:
        return [_na("energy_law.slope", "needs gamma>=1")]
    slopes = run.schedules.top["energy_law"]
    if None in slopes:
        return [_na("energy_law.slope", "fewer than two k below max u")]
    worst_slope = max(-np.inf, *slopes)
    bound = cfg.h.gamma + 0.15
    return [_check("energy_law.slope", worst_slope, bound, worst_slope <= bound)]


def _suite_tails(cfg: RunConfig, run: _Run):
    if cfg.dim != 3:
        return [
            _na("tails.gradient_slope", "needs dim=3"),
            _na("tails.u_slope", "needs dim=3"),
        ]
    u = run.schedules.last[True].u
    rows = []
    for name, values, bound in (
        ("gradient", diag.discrete_gradient_magnitude(u), -1.3),
        ("u", u.values, -2.7),
    ):
        fit = diag.tail_fit(values, u.grid.cell_volume)
        if not fit.conclusive:
            rows.append(_na(f"tails.{name}_slope", "inconclusive"))
            continue
        rows.append(_check(f"tails.{name}_slope", fit.slope, bound, fit.slope <= bound))
        rows.append(_check(f"tails.{name}_r2", fit.r_squared, 0.9, fit.r_squared >= 0.9))
    return rows


def _suite_kato(cfg: RunConfig, run: _Run):
    spec1 = replace(run.spec, mu=scale_measure(run.spec.mu, 2.0))
    u2 = run.tight_level.u
    u1 = _solve_converged("tight-tolerance level solve", spec1, run.tight, u2).u
    f1 = level_source(spec1, u1)
    f2 = level_source(run.spec, u2)
    phi0 = diag.torsion_function(run.spec.grid)
    forward = diag.kato_residual(u1, u2, f1, f2, phi0)
    mirrored = diag.kato_residual(u2, u1, f2, f1, phi0)
    return [
        _check("kato.residual_forward", forward.residual, -_KATO_TOL,
               forward.residual >= -_KATO_TOL),
        _check("kato.residual_mirrored", mirrored.residual, -_KATO_TOL,
               mirrored.residual >= -_KATO_TOL),
    ]


def _suite_uniqueness(cfg: RunConfig, run: _Run):
    """Largest nodal gap between the tight level-n_max solution the Kato
    suite shares and the one reached from it + 1, a start above it at every
    node."""
    if not cfg.h.strictly_decreasing:
        return [_na("uniqueness.gap", "needs strictly decreasing h")]
    # Both starts are solved at the tight tolerance: at tol_fp each lies about
    # tol_fp / (1 - Lip T) from the fixed point, which alone can exceed 1e-8.
    tight = run.tight_level
    start = GridFunction(run.spec.grid, tight.u.values + 1.0)
    above = _solve_converged("uniqueness warm start", run.spec, run.tight, start)
    gap = float(np.max(np.abs(tight.u.values - above.u.values)))
    return [_check("uniqueness.gap", gap, 1e-8, gap <= 1e-8)]


def _suite_sandwich(cfg: RunConfig, run: _Run):
    spec = run.spec
    if not np.all(cfg.f(spec.grid.node_coords) > 0):
        return [_na("sandwich.breach", "needs f>0 at every node")]
    last = run.schedules.last
    sandwich = build_sub_super(spec, last[False].u)
    breach = sandwich.breach(last[True].u)
    rows = [_check("sandwich.breach", breach, _TOL_MONO, breach <= _TOL_MONO)]
    ratio = hopf_ratio_check(sandwich.sub)
    rows.append(_check("sandwich.hopf_ratio", ratio, ">0", ratio > 0))
    # min v/phi_1 settles under refinement: with v the subsolution on
    # cfg.cells, the ratio to the same solve on cells // 2 read 1.008 to
    # 1.031 from 1D to 3D at 16 and 32 cells (gamma 1.5, one centre atom),
    # and 0.75 to 0.88 with v^2 fed for v.  A coarse grid under 8 cells lets
    # v^2 pass (2D 4 -> 8 read 1.010).
    if cfg.cells < 16:
        rows.append(_na("sandwich.hopf_ratio_stability", "needs cells >= 16"))
        return rows
    cells = spec.grid.cells_per_side // 2
    coarse = replace(spec.without_measure(), grid=build_grid(spec.grid.dim, cells))
    v = _solve_converged(f"Hopf-ratio solve at cells={cells}", coarse, cfg.solver)
    coarse_ratio = hopf_ratio_check(v.u)
    stability = ratio / coarse_ratio if coarse_ratio > 0 else float("nan")
    rows.append(
        _check("sandwich.hopf_ratio_stability", stability, "0.9..1.1",
               0.9 <= stability <= 1.1)
    )
    return rows


# Every verify suite, in --suite all row order: ``run(cfg, _Run)`` returns
# its rows, ``schedules`` are those it reads (True the full one, False the
# measure-free one) and ``top(cfg, u_n)``, if set, is the number it judges at
# each top-half level of the full schedule.  Kato and uniqueness read the
# full schedule's last level as the start of the tight solve, and sandwich
# judges it against the pair it builds on the measure-free one.
_Suite = namedtuple("_Suite", "run schedules top", defaults=((), None))
_SUITES = {
    "lower_bound": _Suite(_suite_lower_bound, (True, False),
                          lambda cfg, u: [min_on_compact(u, m) for m in cfg.margins]),
    "monotone": _Suite(_suite_monotone, (False,)),
    "energy_law": _Suite(_suite_energy_law, (True,), lambda cfg, u: (
        _energy_slope(u, cfg.h.gamma) if cfg.h.gamma >= 1.0 else None)),
    "tails": _Suite(_suite_tails, (True,)),
    "kato": _Suite(_suite_kato, (True,)),
    "uniqueness": _Suite(_suite_uniqueness, (True,)),
    "sandwich": _Suite(_suite_sandwich, (True, False)),
    "manufactured": _Suite(_suite_manufactured),
}


def _cmd_verify(cfg: RunConfig, suite: str, out_dir: Path) -> int:
    names = list(_SUITES) if suite == "all" else [suite]
    run = _Run(cfg, names)
    rows = []
    failure = None
    try:
        for name in names:
            rows.extend(_SUITES[name].run(cfg, run))
    except _ConvergenceFailure as exc:
        failure = str(exc)
    _write_csv(out_dir / f"verify_{suite}.csv", ("name", "observed", "bound", "status"), rows)
    if failure is not None:
        return _reason(out_dir, EXIT_NONCONVERGENCE, "nonconvergence", failure)
    for row in rows:
        print(",".join(_fmt(x) for x in row))
    failed = [r for r in rows if r[3] == "fail"]
    if failed:
        return _reason(
            out_dir,
            EXIT_INVARIANT,
            "check_failed",
            ";".join(r[0] for r in failed),
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# The most unknowns, k rows times (cells - 1)^dim, that one sweep stack
# holds; a grid with more unknowns than this is solved one row at a time.
# The cap bounds a stack's memory (uncapped nine-row sweeps took as long but
# peaked up to twice as high); long 1D grids would run faster in larger stacks.
_STACK_UNKNOWNS = 8192


def _sweep_stacks(cfg: RunConfig, jobs: list, workers: int) -> list[list]:
    """The jobs grouped into stacks of one cells value each, in job order.
    A cells value's jobs are split over as many of the ``workers`` as its
    share of the sweep's work, jobs times unknowns (cells - 1)^dim, rounded
    up: a sweep over one grid keeps every worker busy, and no grid's stacks
    take much more than a worker's share.  No stack holds more than
    ``_STACK_UNKNOWNS`` unknowns.  The finest grid comes first, so the
    workers start the longest stacks first."""
    groups: dict[int, list] = {}
    for job in jobs:
        groups.setdefault(job[1], []).append(job)
    work = {cells: len(group) * (cells - 1) ** cfg.dim for cells, group in groups.items()}
    stacks = []
    for cells in sorted(groups, reverse=True):
        group = groups[cells]
        parts = math.ceil(workers * work[cells] / sum(work.values()))
        cap = max(1, _STACK_UNKNOWNS // (cells - 1) ** cfg.dim)
        size = min(cap, math.ceil(len(group) / parts))
        stacks += [group[i : i + size] for i in range(0, len(group), size)]
    return stacks


def _stack_rows(cfg: RunConfig, jobs: list) -> list[list]:
    """The sweep.csv rows of ``jobs``, which share one cells value, from
    one ``_iter_stack``."""
    spec = _spec_from_config(replace(cfg, cells=jobs[0][1]))
    specs = [
        replace(spec, h=replace(cfg.h, gamma=gamma), mu=SWEEP_MEASURES[measure_name])
        for gamma, _, measure_name in jobs
    ]
    # Only the first level and an aborted one have NaN differences.
    levels, l1_diff, final = [0] * len(jobs), [math.nan] * len(jobs), [None] * len(jobs)
    for _, solved in _iter_stack(specs, cfg.n_schedule, cfg.solver):
        for i, (res, l1, _) in solved.items():
            levels[i] += 1
            final[i] = res
            if not math.isnan(l1):
                l1_diff[i] = l1
    return [
        list(job) + [
            "ok" if res.converged else "nonconverged",
            count,
            l1,
            res.residual,
            l1_norm(res.u),
            *(min_on_compact(res.u, m) for m in cfg.margins),
        ]
        for job, count, l1, res in zip(jobs, levels, l1_diff, final)
    ]


def _sweep_stack(cfg: RunConfig, jobs: list) -> list[list]:
    """The rows of one stack of jobs.  A stack that raises is solved again
    one row at a time, so only the row at fault records ``error:<Type>``
    and every other row keeps the bits of its lone solve."""
    if len(jobs) > 1:
        try:
            return _stack_rows(cfg, jobs)
        except Exception:  # solved again below, row by row
            pass
    rows = []
    for job in jobs:
        try:
            rows += _stack_rows(cfg, [job])
        except Exception as exc:  # per-row isolation: record, keep sweeping
            rows.append(list(job) + [
                f"error:{type(exc).__name__}", 0, math.nan, math.nan, math.nan
            ] + [math.nan] * len(cfg.margins))
    return rows


def _fork_map(fn, tasks: list, workers: int) -> list:
    """``[fn(task) for task in tasks]``, computed in ``workers`` forked child
    processes (POSIX only), child i taking tasks i, i + workers, ...  Each
    child inherits ``fn`` and what it reads through the fork, sends its
    results pickled through its own pipe and leaves only through
    ``os._exit``, with code 0 once the pipe is written and closed.  The
    parent reads each pipe to EOF and reaps its child in turn; a nonzero exit
    raises ChildProcessError, and every child still alive when this raises
    is killed and reaped."""
    sources, alive = [], []  # each child's read end; the children not yet reaped
    try:
        for i in range(workers):
            read, write = os.pipe()
            sources.append(open(read, "rb"))
            with open(write, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        for source in sources:
                            source.close()
                        pickle.dump([fn(task) for task in tasks[i::workers]], sink)
                        sink.close()
                        code = 0
                    except BaseException:  # to fd 2: sys.stderr's buffer may hold the parent's text
                        import traceback

                        os.write(2, traceback.format_exc().encode())
                    finally:
                        os._exit(code)
            alive.append(pid)
        results = [None] * len(tasks)
        for i, (pid, source) in enumerate(zip(list(alive), sources)):
            data = source.read()
            status = os.waitpid(pid, 0)[1]
            alive.remove(pid)
            if status:
                raise ChildProcessError(f"sweep worker exited with {os.waitstatus_to_exitcode(status)}")
            results[i::workers] = pickle.loads(data)
        return results
    finally:
        for source in sources:
            source.close()
        for pid in alive:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> int:
    """Run the sweep's stacks (``_sweep_stacks``) in forked worker processes
    (``_fork_map``, POSIX only), and write the rows to sweep.csv in sorted
    job order.  ``cfg.threads`` sets the number of workers, capped at the
    CPUs this process may run on and at the stacks.  The workers inherit
    ``cfg``, which holds lambdas and cannot be pickled, through the fork;
    only the finished rows cross back, one pipe per worker."""
    gammas = cfg.sweep_gammas
    cells_list = cfg.sweep_cells or (cfg.cells,)
    measures = cfg.sweep_measures or ("none",)
    if not gammas:
        raise ConfigError("sweep.gamma", "sweep needs a nonempty gamma list")
    jobs = sorted(
        (g, c, m) for g in gammas for c in cells_list for m in measures
    )
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    workers = min(cfg.threads, cpus)
    stacks = _sweep_stacks(cfg, jobs, workers)
    rows = _fork_map(lambda stack: _sweep_stack(cfg, stack), stacks, min(workers, len(stacks)))
    solved = dict(zip(itertools.chain.from_iterable(stacks), itertools.chain.from_iterable(rows)))
    header = (
        ["gamma", "cells", "measure", "status", "levels", "final_l1_diff", "final_residual", "final_l1_norm"]
        + [f"min_K_{m:g}" for m in cfg.margins]
    )
    _write_csv(out_dir / "sweep.csv", header, [solved[job] for job in jobs])
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1, with a reason
    line) instead of argparse's exit 2; ``--help`` still exits 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError("usage", message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="singpde",
        description="Solve and verify singular elliptic problems with measure data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to a key-value config file")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        if name == "verify":
            p.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig.from_file(args.config)
    except ConfigError as exc:
        return _reason(None, EXIT_CONFIG, "config", str(exc))
    except OSError as exc:
        return _reason(None, EXIT_CONFIG, "config", f"cannot read {args.config}: {exc}")

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _reason(None, EXIT_NONCONVERGENCE, "infrastructure", str(exc))

    try:
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir)
        if args.command == "verify":
            return _cmd_verify(cfg, args.suite, out_dir)
        return _cmd_sweep(cfg, out_dir)
    except ConfigError as exc:
        return _reason(out_dir, EXIT_CONFIG, "config", str(exc))
    except LinearSolveError as exc:
        return _reason(out_dir, EXIT_NONCONVERGENCE, "linear_solve", str(exc))
    except OverflowError as exc:
        return _reason(out_dir, EXIT_NONCONVERGENCE, "overflow", str(exc))
    except Exception as exc:  # infrastructure failure
        return _reason(out_dir, EXIT_NONCONVERGENCE, "infrastructure", f"{type(exc).__name__}: {exc}")


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
