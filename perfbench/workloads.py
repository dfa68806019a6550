"""The benchmark's workloads: each one's config, generated from a seed, and
the correctness gate that every command's output must pass.

An operation is a ``solve`` command, a ``verify`` command, or one ``sweep``
row.  An operation fails when the program reports a failure or when the gate
rejects its output; a rejected output the program reported as done also makes
the run incorrect.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.sparse.linalg import splu

from singpde.config import RunConfig
from singpde.measures import mollify
from singpde.mesh import build_grid, build_laplacian

# The Picard loop stops once a damped update moves u by at most tol_fp, that
# is once |T(u) - u| <= tol_fp / damping at the previous iterate, where T is
# the undamped Picard map.  One more step of T keeps the fixed-point residual
# of the returned u within a small multiple of that; a factor 10 leaves room
# for it, while an unconverged or corrupted solution misses by far more.
RESIDUAL_FACTOR = 10.0

VERIFY_SUITES = (
    "lower_bound", "monotone", "energy_law", "tails",
    "kato", "uniqueness", "sandwich", "manufactured",
)
# ``verify --suite all`` asks for two regularization sequences: the problem
# with the measure and the measure-free comparison problem.
VERIFY_SEQUENCES = 2


@dataclass
class Outcome:
    """What one command did, as judged from its exit code and its files."""

    attempted: int
    failed: int = 0
    levels: int = 0  # converged regularization levels of passing operations
    checks_failed: int = 0  # verify rows with status fail
    rejected: int = 0  # operations reported as done whose output is wrong


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: Callable[[int], str]  # seed -> config file text
    gate: type  # built from the config path; called with (out_dir, exit_code)

    def argv(self, config_path: Path, out_dir: Path) -> list[str]:
        extra = ["--suite", "all"] if self.command == "verify" else []
        return [self.command, str(config_path), *extra, "--out", str(out_dir)]


def atom_config(dim: int, cells: int, seed: int, schedule=None) -> str:
    """gamma = 1.5, f = 1 and one atom near the centre of the box.

    The seed moves the atom by up to 1.5 cells along each axis and scales its
    unit mass by up to 5%.
    """
    rng = random.Random(seed)
    coords = [0.5 + rng.uniform(-1.5, 1.5) / cells for _ in range(dim)]
    coords += [0.5] * (3 - dim)
    mass = rng.uniform(0.95, 1.05)
    lines = [
        f"domain.dim = {dim}",
        f"domain.cells = {cells}",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "f.kind = constant",
        "f.value = 1",
        "measure.atom = [" + ", ".join(repr(c) for c in coords + [mass]) + "]",
    ]
    if schedule is not None:
        lines.append("sequence.n_schedule = " + ", ".join(str(n) for n in schedule))
    return "\n".join(lines) + "\n"


def sweep_config(seed: int) -> str:
    """27 rows over gamma, cells and the sweep's builtin measures.

    The builtin measures have no position or mass to jitter, so the seed does
    not change this config.  The 512-cell rows hit the Jacobi-PCG stall and
    stay in: removing them would hide that defect.
    """
    return "\n".join([
        "domain.dim = 1",
        "h.kind = pure_power",
        "f.kind = constant",
        "f.value = 1",
        "sweep.gamma = 0.5, 1.5, 3.0",
        "sweep.cells = 32, 128, 512",
        "sweep.measure = none, dirac_center, uniform",
        "threads = 2",
    ]) + "\n"


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


class SolveGate:
    """Recompute the final level's discrete equation by a direct solve.

    With u read from the final level's solution file, the gate forms
    rhs(u) = min(n, h(|u| + 1/n)) min(n, f) + mollify(mu, n) and requires
    max|u - A^-1 rhs(u)| <= RESIDUAL_FACTOR * tol_fp / damping, with A the
    Laplacian factorised once by SuperLU, and u >= 0.
    """

    def __init__(self, config_path: Path):
        cfg = RunConfig.from_file(str(config_path))
        self.schedule = cfg.n_schedule
        n = self.schedule[-1]
        self.grid = build_grid(cfg.dim, cfg.cells, cfg.grid_margin)
        self.lu = splu(build_laplacian(self.grid).matrix.tocsc())
        self.h = cfg.h
        self.n = n
        self.f_capped = np.minimum(cfg.f(self.grid.node_coords), n)
        self.mu_n = mollify(cfg.mu, self.grid, n).values.values
        self.bound = (
            RESIDUAL_FACTOR
            * cfg.solver.resolved_tol_fp(self.grid)
            / cfg.solver.resolved_damping(cfg.h)
        )

    def residual(self, out_dir: Path) -> float:
        """Fixed-point residual of the final level; inf if u is unusable."""
        data = np.loadtxt(out_dir / f"solution_n{self.n}.csv", delimiter=",",
                          skiprows=1, ndmin=2)
        if data.shape != (self.grid.interior_count, self.grid.dim + 1):
            return math.inf
        if not np.allclose(data[:, :-1], self.grid.node_coords, rtol=0, atol=1e-12):
            return math.inf
        u = data[:, -1]
        if not np.all(np.isfinite(u)) or u.min() < 0.0:
            return math.inf
        rhs = np.minimum(self.n, self.h(np.abs(u) + 1.0 / self.n)) * self.f_capped + self.mu_n
        return float(np.max(np.abs(u - self.lu.solve(rhs))))

    def _output_ok(self, out_dir: Path) -> bool:
        try:
            rows = _read_rows(out_dir / "sequence.csv")
            levels = [int(r[0]) for r in rows[1:]]
            if levels != list(self.schedule):
                return False
            if not all((out_dir / f"solution_n{n}.csv").is_file() for n in self.schedule):
                return False
            return self.residual(out_dir) <= self.bound
        except (OSError, ValueError, IndexError):
            return False

    def __call__(self, out_dir: Path, code: int) -> Outcome:
        ok = code == 0 and self._output_ok(out_dir)
        return Outcome(
            attempted=1,
            failed=int(not ok),
            levels=len(self.schedule) if ok else 0,
            rejected=int(code == 0 and not ok),
        )


class VerifyGate:
    """Exit code 0 or 3, and a well-formed row for every suite.

    A row has a name, an observed value, a bound and a status of pass, fail
    or na; pass and fail rows carry a finite observed value.  Exit code 3
    must come with at least one fail row, and 0 with none.
    """

    def __init__(self, config_path: Path):
        self.schedule = RunConfig.from_file(str(config_path)).n_schedule

    @staticmethod
    def rows_ok(rows: list[list[str]], code: int) -> bool:
        if not rows or rows[0] != ["name", "observed", "bound", "status"]:
            return False
        body = rows[1:]
        for row in body:
            if len(row) != 4 or not row[0] or row[3] not in ("pass", "fail", "na"):
                return False
            if row[3] != "na" and not _finite(row[1]):
                return False
        names = [r[0] for r in body]
        if len(set(names)) != len(names):
            return False
        if {n.split(".")[0] for n in names} != set(VERIFY_SUITES):
            return False
        return (code == 3) == any(r[3] == "fail" for r in body)

    def __call__(self, out_dir: Path, code: int) -> Outcome:
        try:
            rows = _read_rows(out_dir / "verify_all.csv")
        except (OSError, UnicodeDecodeError):
            rows = []
        ok = code in (0, 3) and self.rows_ok(rows, code)
        return Outcome(
            attempted=1,
            failed=int(not ok),
            levels=VERIFY_SEQUENCES * len(self.schedule) if ok else 0,
            checks_failed=sum(1 for r in rows[1:] if len(r) == 4 and r[3] == "fail"),
            rejected=int(code in (0, 3) and not ok),
        )


class SweepGate:
    """One row per job; a row passes only with status ok, finite summaries,
    every level of the schedule, and min_K > 0 on every compact band."""

    def __init__(self, config_path: Path):
        cfg = RunConfig.from_file(str(config_path))
        self.schedule = cfg.n_schedule
        self.jobs = sorted(
            (g, c, m) for g in cfg.sweep_gammas for c in cfg.sweep_cells
            for m in cfg.sweep_measures
        )

    def row_ok(self, row: dict) -> bool:
        if row["status"] != "ok" or row["levels"] != str(len(self.schedule)):
            return False
        summaries = [v for k, v in row.items() if k.startswith("final_")]
        minima = [v for k, v in row.items() if k.startswith("min_K_")]
        if not minima or not all(_finite(v) for v in summaries + minima):
            return False
        return all(float(v) > 0.0 for v in minima)

    def __call__(self, out_dir: Path, code: int) -> Outcome:
        total = len(self.jobs)
        try:
            with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            keys = sorted((float(r["gamma"]), int(r["cells"]), r["measure"]) for r in rows)
        except (OSError, KeyError, ValueError, UnicodeDecodeError):
            rows, keys = [], None
        if code != 0 or keys != self.jobs:
            return Outcome(attempted=total, failed=total, rejected=total if code == 0 else 0)
        out = Outcome(attempted=total)
        for row in rows:
            try:
                ok = self.row_ok(row)
            except (KeyError, TypeError):
                ok = False
            out.failed += not ok
            out.rejected += row.get("status") == "ok" and not ok
            out.levels += len(self.schedule) if ok else 0
        return out


WORKLOADS = {
    "solve_3d": Workload("solve_3d", "solve", lambda seed: atom_config(3, 24, seed), SolveGate),
    "verify_2d": Workload("verify_2d", "verify", lambda seed: atom_config(2, 64, seed), VerifyGate),
    "sweep_1d": Workload("sweep_1d", "sweep", sweep_config, SweepGate),
}
