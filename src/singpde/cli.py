"""Experiment runner: ``singpde solve|verify|sweep <config>``.

``solve`` drives the regularization schedule and writes per-level solution
files plus a sequence summary.  ``verify`` runs one of the named check
suites and writes one row per check.  The suites of one run share what they
solve (the full and the measure-free schedule, the tight-tolerance level
solves and the sub/super pair), each solved at most once; the solver and
the diagnostics return observed numbers, and each suite holds the bounds
that judge its rows.  ``sweep`` runs the Cartesian product of the
configured parameter grids and aggregates one row per run; the rows run in
forked worker processes (``--threads`` of them), so ``sweep`` needs a
POSIX system.  All CSV output uses 17 significant digits so identical
configurations reproduce byte-identical files.  Solution files
are written column-wise: the node coordinates are formatted once per run
and each level's values fill them in with one formatting call, giving the
same bytes as formatting every value on its own.

Exit codes: 0 ok, 1 configuration or usage error, 2 nonconvergence, a
linear solve that failed its backward-error check or an infrastructure
failure, 3 failed check or invariant violation.  Every nonzero exit is
accompanied by a machine-readable ``reason,<code>,<category>,<detail>`` line
on stdout (and reason.csv when the output directory exists); exit 2 has the
categories ``nonconvergence``, ``linear_solve`` and ``infrastructure``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from . import fields
from .config import ConfigError, RunConfig, SUITES
from .measures import RadonMeasure, mollify, scale_measure
from .mesh import GridFunction, LinearSolveError, build_grid, l1_norm, min_on_compact
from .solver import (
    ConvergenceFailure,
    ProblemSpec,
    SandwichSpec,
    SequenceResult,
    SolveResult,
    build_sub_super,
    comparison_check,
    distance_lower_bound_check,
    monotone_check,
    solve_clamped,
    solve_regularized,
    solve_sequence,
)

__all__ = ["main", "main_entry"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NONCONVERGENCE = 2
EXIT_INVARIANT = 3

_MANUFACTURED_CELLS = (32, 64, 128)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
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


def _solution_rows_template(coords: np.ndarray) -> str:
    """CSV rows of the nodes in ``coords`` (shape (nodes, dim)), with the
    coordinates formatted and a ``%.17g`` placeholder for each node's value.

    ``"%.17g" % x`` is the text ``_fmt`` gives a float, and formatted numbers
    contain no ``%``, so ``template % tuple(values)`` writes a whole
    solution file in one call while the coordinates are formatted once.
    """
    nodes, dim = coords.shape
    row = "%.17g," * dim + "%%.17g\n"
    return (row * nodes) % tuple(coords.ravel().tolist())


def _reason(out_dir: Path | None, code: int, category: str, detail: str) -> int:
    line = f"reason,{code},{category},{detail}"
    print(line)
    if out_dir is not None and out_dir.is_dir():
        (out_dir / "reason.csv").write_text(
            "code,category,detail\n" + f"{code},{category},{detail}\n",
            encoding="utf-8",
        )
    return code


def _spec_from_config(cfg: RunConfig) -> ProblemSpec:
    grid = build_grid(cfg.dim, cfg.cells, cfg.grid_margin)
    return ProblemSpec(grid=grid, h=cfg.h, f=cfg.f, mu=cfg.mu, n=cfg.n_schedule[-1])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: RunConfig, out_dir: Path) -> int:
    spec = _spec_from_config(cfg)
    seq = solve_sequence(spec, cfg.n_schedule, cfg.solver)

    names = ("x", "y", "z")[: cfg.dim] + ("u",)
    template = ",".join(names) + "\n" + _solution_rows_template(spec.grid.node_coords)
    for n, res in zip(seq.n_schedule, seq.results):
        text = template % tuple(res.u.values.tolist())
        (out_dir / f"solution_n{n}.csv").write_text(text, encoding="utf-8")

    header = ["level", "iterations", "residual", "l1_diff", "max_diff", "linear_solves"]
    header += [f"min_K_{m:g}" for m in cfg.margins]
    rows = []
    for j, (n, res) in enumerate(zip(seq.n_schedule, seq.results)):
        l1 = seq.l1_diffs[j - 1] if j > 0 and j - 1 < len(seq.l1_diffs) else float("nan")
        mx = seq.max_diffs[j - 1] if j > 0 and j - 1 < len(seq.max_diffs) else float("nan")
        minima = [min_on_compact(res.u, m) for m in cfg.margins]
        rows.append([n, res.iterations, res.residual, l1, mx, res.linear_solves] + minima)
    _write_csv(out_dir / "sequence.csv", header, rows)

    if seq.aborted_level is not None:
        return _reason(
            out_dir,
            EXIT_NONCONVERGENCE,
            "nonconvergence",
            f"level {seq.aborted_level} did not converge within "
            f"{cfg.solver.max_iters} iterations",
        )
    for n, res in zip(seq.n_schedule, seq.results):
        floor = -1e-12 * max(1.0, float(np.max(np.abs(res.u.values))))
        if float(res.u.values.min()) < floor:
            return _reason(
                out_dir,
                EXIT_INVARIANT,
                "invariant",
                f"negative nodal value at level {n}",
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify suites: each takes the config and the run's ``_Run`` and returns
# rows (name, observed, bound, status); every bound sits next to its row
# ---------------------------------------------------------------------------


class _Run:
    """The problems one verify run solves, each at most once.

    ``sequence(with_measure)`` is the full or the measure-free schedule of
    the config; ``tight_level(mu)`` the cold level-n_max solve with measure
    ``mu`` under ``tight``, the solver settings of the near-exact
    identities; ``sandwich()`` the sub/super pair of the full problem at
    level n_max.  Each is solved on first use, and a nonconvergent solve
    raises ConvergenceFailure.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.spec = _spec_from_config(cfg)
        # Near-exact identities need tighter tolerances than ordinary runs.
        self.tight = replace(
            cfg.solver,
            tol_fp=min(cfg.solver.resolved_tol_fp(self.spec.grid), 1e-12),
            max_iters=max(cfg.solver.max_iters, 800),
        )
        self._sequences = {}
        self._levels = {}
        self._sandwich = None

    def sequence(self, with_measure: bool) -> SequenceResult:
        if with_measure not in self._sequences:
            spec = self.spec if with_measure else self.spec.without_measure()
            seq = solve_sequence(spec, self.cfg.n_schedule, self.cfg.solver)
            if seq.aborted_level is not None:
                raise ConvergenceFailure(f"level {seq.aborted_level} did not converge")
            self._sequences[with_measure] = seq
        return self._sequences[with_measure]

    def tight_level(self, mu: RadonMeasure) -> SolveResult:
        if mu not in self._levels:
            res = solve_regularized(replace(self.spec, mu=mu), self.tight)
            if not res.converged:
                raise ConvergenceFailure("tight-tolerance level solve")
            self._levels[mu] = res
        return self._levels[mu]

    def sandwich(self) -> SandwichSpec:
        if self._sandwich is None:
            self._sandwich = build_sub_super(self.spec, self.cfg.solver)
        return self._sandwich


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
    f = fields.manufactured_singular(gamma)
    errors = {}
    for cells in _MANUFACTURED_CELLS:
        grid = build_grid(1, cells)
        spec = ProblemSpec(grid=grid, h=cfg.h, f=f, mu=RadonMeasure(), n=10**6)
        res = solve_regularized(spec, cfg.solver)
        if not res.converged:
            raise ConvergenceFailure(f"manufactured solve at cells={cells}")
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
    seq = run.sequence(with_measure=False)
    worst = monotone_check([r.u for r in seq.results])
    tol = cfg.solver.tol_mono
    return [_check("monotone.max_violation", worst, tol, worst <= tol)]


def _suite_lower_bound(cfg: RunConfig, run: _Run):
    seq = run.sequence(with_measure=True)
    vseq = run.sequence(with_measure=False)
    domination = max(
        comparison_check(u.u, v.u) for u, v in zip(seq.results, vseq.results)
    )
    tol = cfg.solver.tol_mono
    rows = [_check("lower_bound.domination", domination, tol, domination <= tol)]
    top = len(seq.results) // 2
    for margin in cfg.margins:
        minima = [min_on_compact(r.u, margin) for r in seq.results[top:]]
        c = min(minima)
        spread = (max(minima) - min(minima)) / max(minima) if max(minima) > 0 else 1.0
        rows.append(_check(f"lower_bound.c_K_margin{margin:g}", c, ">0", c > 0))
        rows.append(
            _check(f"lower_bound.spread_margin{margin:g}", spread, 0.10, spread <= 0.10)
        )
    return rows


_ENERGY_KS = (1.0, 2.0, 4.0, 8.0, 16.0)


def _suite_energy_law(cfg: RunConfig, run: _Run):
    if cfg.h.gamma < 1.0:
        return [_na("energy_law.slope", "needs gamma>=1")]
    seq = run.sequence(with_measure=True)
    top = len(seq.results) // 2
    worst_slope = -np.inf
    for res in seq.results[top:]:
        # T_k(u) = u once k >= max u: such k repeat one energy and flatten the
        # fitted slope, so only the truncations that cut u test the law.
        u_max = float(res.u.values.max())
        ks = [k for k in _ENERGY_KS if k < u_max]
        if len(ks) < 2:
            return [_na("energy_law.slope", "fewer than two k below max u")]
        energies = [diag.truncation_energy(res.u, k, cfg.h.gamma) for k in ks]
        slope = float(np.polyfit(np.log(ks), np.log(energies), 1)[0])
        worst_slope = max(worst_slope, slope)
    bound = cfg.h.gamma + 0.15
    return [_check("energy_law.slope", worst_slope, bound, worst_slope <= bound)]


def _suite_tails(cfg: RunConfig, run: _Run):
    if cfg.dim != 3:
        return [
            _na("tails.gradient_slope", "needs dim=3"),
            _na("tails.u_slope", "needs dim=3"),
        ]
    u = run.sequence(with_measure=True).final.u
    rows = []

    grad = diag.discrete_gradient_magnitude(u)
    thresholds = diag.default_thresholds(grad, floor=1.0)
    fit = diag.marcinkiewicz_fit(diag.distribution_function(grad, thresholds, grid=u.grid))
    if not fit.conclusive:
        rows.append(_na("tails.gradient_slope", "inconclusive"))
    else:
        rows.append(
            _check("tails.gradient_slope", fit.slope, -1.3, fit.slope <= -1.3)
        )
        rows.append(
            _check("tails.gradient_r2", fit.r_squared, 0.9, fit.r_squared >= 0.9)
        )

    thresholds = diag.default_thresholds(u.values, floor=1.0)
    fit = diag.marcinkiewicz_fit(diag.distribution_function(u, thresholds))
    if not fit.conclusive:
        rows.append(_na("tails.u_slope", "inconclusive"))
    else:
        rows.append(_check("tails.u_slope", fit.slope, -2.7, fit.slope <= -2.7))
        rows.append(_check("tails.u_r2", fit.r_squared, 0.9, fit.r_squared >= 0.9))
    return rows


# The Kato inequality lhs <= rhs is exact for exact discrete solutions; the
# tight-tolerance solves leave rhs - lhs at most this far below zero.
_KATO_TOL = 1e-10


def _suite_kato(cfg: RunConfig, run: _Run):
    grid, n = run.spec.grid, run.spec.n
    mu2 = cfg.mu
    mu1 = scale_measure(cfg.mu, 2.0)
    res1 = run.tight_level(mu1)
    res2 = run.tight_level(mu2)
    mu1_d = mollify(mu1, grid, n)
    mu2_d = mollify(mu2, grid, n)
    phi0 = diag.torsion_function(grid)
    forward = diag.kato_residual(res1, res2, mu1_d, mu2_d, cfg.f, cfg.h, phi0)
    mirrored = diag.kato_residual(res2, res1, mu2_d, mu1_d, cfg.f, cfg.h, phi0)
    return [
        _check("kato.residual_forward", forward.residual, -_KATO_TOL,
               forward.residual >= -_KATO_TOL),
        _check("kato.residual_mirrored", mirrored.residual, -_KATO_TOL,
               mirrored.residual >= -_KATO_TOL),
    ]


def _suite_uniqueness(cfg: RunConfig, run: _Run):
    if not cfg.h.strictly_decreasing:
        return [_na("uniqueness.gap", "needs strictly decreasing h")]
    # Both starts are solved at the tight tolerance: at tol_fp each lies about
    # tol_fp / (1 - Lip T) from the fixed point, which alone can exceed 1e-8.
    cold = run.tight_level(cfg.mu)
    f_vals = cfg.f(run.spec.grid.node_coords)
    if np.all(f_vals > 0):
        start = run.sandwich().sup
    else:
        start = GridFunction(run.spec.grid, cold.u.values + 1.0)
    warm = solve_regularized(run.spec, run.tight, initial=start)
    if not warm.converged:
        raise ConvergenceFailure("uniqueness supersolution start")
    gap = float(np.max(np.abs(cold.u.values - warm.u.values)))
    return [_check("uniqueness.gap", gap, 1e-8, gap <= 1e-8)]


def _suite_sandwich(cfg: RunConfig, run: _Run):
    spec = run.spec
    f_vals = cfg.f(spec.grid.node_coords)
    if not np.all(f_vals > 0):
        return [_na("sandwich.breach", "needs f>0 at every node")]
    sandwich = run.sandwich()
    res = solve_clamped(spec, sandwich, cfg.solver)
    if not res.converged:
        raise ConvergenceFailure("clamped solve")
    breach = sandwich.breach(res.u)
    tol = cfg.solver.tol_mono
    rows = [_check("sandwich.breach", breach, tol, breach <= tol)]
    # The subsolution is the measure-free solve at cfg.cells; only the
    # refined grid needs a solve of its own.
    fine = replace(spec, grid=build_grid(cfg.dim, 2 * cfg.cells, cfg.grid_margin))
    v = solve_regularized(fine.without_measure(), cfg.solver)
    if not v.converged:
        raise ConvergenceFailure(f"distance-bound solve at cells={2 * cfg.cells}")
    ratios = [distance_lower_bound_check(sandwich.sub), distance_lower_bound_check(v.u)]
    rows.append(_check("sandwich.distance_ratio", ratios[0], ">0", ratios[0] > 0))
    stable = ratios[0] > 0 and 0.5 <= ratios[1] / ratios[0] <= 2.0
    rows.append(
        _check(
            "sandwich.distance_ratio_stability",
            ratios[1] / ratios[0] if ratios[0] > 0 else float("nan"),
            "0.5..2",
            stable,
        )
    )
    return rows


_SUITE_RUNNERS = {
    "lower_bound": _suite_lower_bound,
    "monotone": _suite_monotone,
    "energy_law": _suite_energy_law,
    "tails": _suite_tails,
    "kato": _suite_kato,
    "uniqueness": _suite_uniqueness,
    "sandwich": _suite_sandwich,
    "manufactured": _suite_manufactured,
}


def _cmd_verify(cfg: RunConfig, suite: str, out_dir: Path) -> int:
    names = list(_SUITE_RUNNERS) if suite == "all" else [suite]
    run = _Run(cfg)
    rows = []
    failure = None
    try:
        for name in names:
            rows.extend(_SUITE_RUNNERS[name](cfg, run))
    except ConvergenceFailure as exc:
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


def _sweep_measure(name: str) -> RadonMeasure:
    if name == "none":
        return RadonMeasure()
    if name == "dirac_center":
        return RadonMeasure(atoms=(((0.5, 0.5, 0.5), 1.0),))
    return RadonMeasure(density=fields.constant(1.0))  # uniform


def _sweep_row(cfg: RunConfig, gamma: float, cells: int, measure_name: str):
    base = [gamma, cells, measure_name]
    try:
        grid = build_grid(cfg.dim, cells, cfg.grid_margin)
        spec = ProblemSpec(
            grid=grid,
            h=replace(cfg.h, gamma=gamma),
            f=cfg.f,
            mu=_sweep_measure(measure_name),
            n=cfg.n_schedule[-1],
        )
        seq = solve_sequence(spec, cfg.n_schedule, cfg.solver)
        final = seq.final
        minima = [min_on_compact(final.u, m) for m in cfg.margins]
        status = "ok" if seq.aborted_level is None else "nonconverged"
        return base + [
            status,
            len(seq.results),
            seq.l1_diffs[-1] if seq.l1_diffs else float("nan"),
            final.residual,
            l1_norm(final.u),
            *minima,
        ]
    except Exception as exc:  # per-row isolation: record, keep sweeping
        return base + [f"error:{type(exc).__name__}", 0, float("nan"), float("nan"), float("nan")] + [
            float("nan")
        ] * len(cfg.margins)


# The config of a sweep worker process, set once when the worker starts.
_worker_cfg: RunConfig | None = None


def _init_sweep_worker(cfg: RunConfig) -> None:
    global _worker_cfg
    _worker_cfg = cfg


def _sweep_job(job: tuple) -> list:
    return _sweep_row(_worker_cfg, *job)


def _cmd_sweep(cfg: RunConfig, out_dir: Path, threads: int) -> int:
    """Run the sweep's rows in ``threads`` forked worker processes (POSIX
    only) and write them to sweep.csv in sorted job order."""
    gammas = cfg.sweep_gammas
    cells_list = cfg.sweep_cells or (cfg.cells,)
    measures = cfg.sweep_measures or ("none",)
    if not gammas:
        raise ConfigError("sweep.gamma", "sweep needs a nonempty gamma list")
    jobs = sorted(
        (g, c, m) for g in gammas for c in cells_list for m in measures
    )
    # Imported here so that solve and verify do not pay for them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # The workers are forked: the config holds lambdas and cannot be pickled,
    # so it reaches them through ``initargs``, which fork passes unpickled.
    # Only the job tuples and the finished rows cross the pipe.
    with ProcessPoolExecutor(
        max_workers=min(threads, len(jobs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_sweep_worker,
        initargs=(cfg,),
    ) as pool:
        rows = list(pool.map(_sweep_job, jobs))
    header = (
        ["gamma", "cells", "measure", "status", "levels", "final_l1_diff", "final_residual", "final_l1_norm"]
        + [f"min_K_{m:g}" for m in cfg.margins]
    )
    _write_csv(out_dir / "sweep.csv", header, rows)
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
        p.add_argument("--out", default=None, help="output directory (takes precedence over output.dir)")
        if name == "verify":
            p.add_argument("--suite", default=None, choices=SUITES)
        if name == "sweep":
            p.add_argument("--threads", type=int, default=None, help="worker processes, forked (POSIX only)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = RunConfig.from_file(args.config)
    except ConfigError as exc:
        return _reason(None, EXIT_CONFIG, "config", str(exc))
    except OSError as exc:
        return _reason(None, EXIT_CONFIG, "config", f"cannot read {args.config}: {exc}")

    out_dir = Path(args.out if args.out is not None else cfg.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _reason(None, EXIT_NONCONVERGENCE, "infrastructure", str(exc))

    try:
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir)
        if args.command == "verify":
            suite = args.suite if args.suite is not None else cfg.suite
            return _cmd_verify(cfg, suite, out_dir)
        threads = args.threads if args.threads is not None else cfg.threads
        if threads < 1:
            raise ConfigError("--threads", f"must be at least 1, got {threads}")
        return _cmd_sweep(cfg, out_dir, threads)
    except ConfigError as exc:
        return _reason(out_dir, EXIT_CONFIG, "config", str(exc))
    except LinearSolveError as exc:
        return _reason(out_dir, EXIT_NONCONVERGENCE, "linear_solve", str(exc))
    except Exception as exc:  # infrastructure failure
        return _reason(out_dir, EXIT_NONCONVERGENCE, "infrastructure", f"{type(exc).__name__}: {exc}")


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
