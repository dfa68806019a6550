import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import singpde
import singpde.cli as cli
import singpde.solver as solver
from singpde.cli import _fmt, _solution_rows_template, main
from singpde.config import RunConfig
from singpde.measures import RadonMeasure
from singpde.mesh import build_grid, build_laplacian, l1_norm, solve_spd
from singpde.singularity import SingularNonlinearity
from singpde.solver import ProblemSpec, solve_sequence

DIRAC_1D = """
domain.dim = 1
domain.cells = 32
h.kind = pure_power
h.gamma = 0.5
f.kind = constant
f.value = 1.0
measure.atom = [0.5, 0.5, 0.5, 1.0]
sequence.n_schedule = 2, 4, 8, 16, 32, 64
solver.tol_fp = 1e-10
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# -- solve -------------------------------------------------------------------


def test_solve_writes_artifacts_and_exits_zero(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "sequence.csv")
    assert header[:5] == ["level", "iterations", "residual", "l1_diff", "max_diff"]
    assert len(rows) == 6
    # monotone nonincreasing L1 differences after the first level
    diffs = [float(r[3]) for r in rows[1:]]
    assert all(b <= a for a, b in zip(diffs, diffs[1:]))
    for n in (2, 64):
        assert (out / f"solution_n{n}.csv").exists()
    header, rows = read_rows(out / "solution_n64.csv")
    assert header == ["x", "u"]
    assert len(rows) == 31


def test_solve_config_error_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = -1"))
    assert main(["solve", cfg, "--out", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr().out
    assert "reason,1,config" in captured
    assert "h.gamma" in captured


def test_solve_missing_config_is_config_error(tmp_path):
    assert main(["solve", str(tmp_path / "nope.cfg")]) == 1


def test_solve_nonconvergence_exits_two(tmp_path, capsys):
    text = DIRAC_1D.replace("solver.tol_fp = 1e-10", "solver.tol_fp = 1e-10\nsolver.max_iters = 1")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 2
    assert "reason,2,nonconvergence" in capsys.readouterr().out
    assert (out / "reason.csv").exists()
    assert (out / "sequence.csv").exists()  # partial results still written


def test_solve_failed_linear_solve_has_its_own_reason(tmp_path, monkeypatch, capsys):
    def wrong_laplacian(grid):
        op = build_laplacian(grid)
        return replace(op, eigenvalues=2.0 * op.eigenvalues)

    monkeypatch.setattr(solver, "build_laplacian", wrong_laplacian)
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 2
    assert "reason,2,linear_solve,sine-transform solve failed" in capsys.readouterr().out
    assert (out / "reason.csv").read_text().splitlines()[1].startswith("2,linear_solve,")


def test_solve_linear_solves_column_counts_every_solve(tmp_path, monkeypatch):
    calls = []

    def counted(op, rhs):
        calls.append(1)
        return solve_spd(op, rhs)

    monkeypatch.setattr(solver, "solve_spd", counted)
    cfg = write_cfg(tmp_path, DIRAC_1D.replace("domain.cells = 32", "domain.cells = 16"))
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "sequence.csv")
    assert header[4:7] == ["max_diff", "linear_solves", "min_K_0.125"]
    assert sum(int(r[5]) for r in rows) == len(calls)


@pytest.mark.parametrize("gamma", [40, 41])
def test_solve_converges_for_very_strong_singularity(tmp_path, gamma):
    # The damped Picard iteration stalled at level 256 on both configs.
    text = "\n".join([
        "domain.dim = 1",
        "domain.cells = 16",
        f"h.gamma = {gamma}",
        "f.kind = constant",
        "f.value = 1.0",
        "measure.atom = [0.5, 0.5, 0.5, 1.0]",
    ]) + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "sequence.csv")
    assert [int(r[0]) for r in rows] == [2**j for j in range(1, 11)]


def test_solve_deterministic_outputs(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", cfg, "--out", str(out1)]) == 0
    assert main(["solve", cfg, "--out", str(out2)]) == 0
    for name in ["sequence.csv"] + [f"solution_n{n}.csv" for n in (2, 4, 8, 16, 32, 64)]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solution_rows_template_matches_fmt_on_edge_values():
    edge = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1.2345678901234567e17]
    coords = np.array([edge, edge[::-1]]).T
    values = edge[3:] + edge[:3]
    expected = "".join(
        ",".join(_fmt(x) for x in tuple(coord) + (value,)) + "\n"
        for coord, value in zip(coords, values)
    )
    assert _solution_rows_template(coords) % tuple(values) == expected


def test_solve_solution_files_match_per_value_formatting(tmp_path):
    text = "\n".join([
        "domain.dim = 2",
        "domain.cells = 8",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "f.kind = constant",
        "f.value = 1.0",
        "measure.atom = [0.45, 0.55, 0.5, 1.0]",
        "sequence.n_schedule = 2, 8, 32",
    ]) + "\n"
    cfg_path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["solve", cfg_path, "--out", str(out)]) == 0

    # reference: one _fmt call per value, as for the small tables
    cfg = RunConfig.from_file(cfg_path)
    grid = build_grid(cfg.dim, cfg.cells, cfg.grid_margin)
    spec = ProblemSpec(grid=grid, h=cfg.h, f=cfg.f, mu=cfg.mu, n=cfg.n_schedule[-1])
    seq = solve_sequence(spec, cfg.n_schedule, cfg.solver)
    for n, res in zip(seq.n_schedule, seq.results):
        lines = ["x,y,u"] + [
            ",".join(_fmt(x) for x in tuple(coord) + (value,))
            for coord, value in zip(grid.node_coords, res.u.values)
        ]
        expected = ("\n".join(lines) + "\n").encode("utf-8")
        assert (out / f"solution_n{n}.csv").read_bytes() == expected


def test_solve_fine_1d_grid_with_defaults(tmp_path):
    cfg = write_cfg(tmp_path, "domain.dim = 1\ndomain.cells = 512\n")
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "sequence.csv")
    assert [int(r[0]) for r in rows] == [2**j for j in range(1, 11)]


def test_module_entry_point_runs_solve(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "singpde.cli", "solve", cfg, "--out", str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (out / "sequence.csv").exists()


def test_commands_do_not_import_scipy(tmp_path):
    # The solves and their guard run on numpy alone; importing scipy would
    # cost a fresh process more than a small command's solves.  Only sweep
    # needs multiprocessing, so solve and verify must not import it either.
    cfg = write_cfg(tmp_path, "\n".join([
        "domain.dim = 2",
        "domain.cells = 8",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "measure.atom = [0.5, 0.5, 0.5, 1.0]",
        "sequence.n_schedule = 2, 8, 32",
    ]) + "\n")
    script = textwrap.dedent("""
        import json, sys
        from singpde.cli import main
        cfg, out = sys.argv[1:]
        codes = [
            main(["solve", cfg, "--out", out + "/solve"]),
            main(["verify", cfg, "--out", out + "/verify", "--suite", "all"]),
        ]
        top = {m: m.partition(".")[0] for m in sys.modules}
        scipy = sorted(m for m, t in top.items() if t == "scipy")
        mp = sorted(m for m, t in top.items() if t == "multiprocessing")
        print(json.dumps({"codes": codes, "scipy": scipy, "multiprocessing": mp}))
    """)
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"][0] == 0
    assert result["codes"][1] in (0, 3)  # 3: a check failed, the run completed
    assert result["scipy"] == []
    assert result["multiprocessing"] == []


# -- verify ------------------------------------------------------------------


def test_verify_monotone_suite_passes(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "monotone"]) == 0
    header, rows = read_rows(out / "verify_monotone.csv")
    assert header == ["name", "observed", "bound", "status"]
    assert all(row[3] == "pass" for row in rows)


def test_verify_kato_suite_zero_measure_trivial(tmp_path):
    text = DIRAC_1D.replace("measure.atom = [0.5, 0.5, 0.5, 1.0]\n", "")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "kato"]) == 0
    _, rows = read_rows(out / "verify_kato.csv")
    assert all(row[3] == "pass" for row in rows)
    assert all(float(row[1]) == 0.0 for row in rows)


@pytest.mark.parametrize("mass, status", [(1.0, "na"), (10.0, "pass")])
def test_verify_energy_law_fits_only_active_truncations(tmp_path, mass, status):
    # With mass 1 max u stays below k = 2, so at most one T_k cuts u and the
    # law is untested.  With mass 10 the inactive k >= max u no longer
    # flatten the fitted slope towards 0.
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5").replace(
        "0.5, 0.5, 0.5, 1.0]", f"0.5, 0.5, 0.5, {mass}]"
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "energy_law"]) == 0
    _, rows = read_rows(out / "verify_energy_law.csv")
    assert [row[3] for row in rows] == [status]
    if status == "pass":
        assert float(rows[0][1]) >= 1.0


def test_verify_tails_not_applicable_in_1d(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "tails"]) == 0
    _, rows = read_rows(out / "verify_tails.csv")
    assert all(row[3] == "na" for row in rows)


def test_verify_lower_bound_fails_for_vanishing_solution(tmp_path, capsys):
    # f = 0 and no measure force u = 0, so no positive compact lower bound
    text = DIRAC_1D.replace("f.value = 1.0", "f.value = 0.0").replace(
        "measure.atom = [0.5, 0.5, 0.5, 1.0]\n", ""
    )
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "lower_bound"]) == 3
    assert "reason,3,check_failed" in capsys.readouterr().out


def test_verify_sandwich_and_uniqueness_suites(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 0
    assert main(["verify", cfg, "--out", str(out), "--suite", "uniqueness"]) == 0


def test_verify_nonconvergent_sandwich_writes_partial_csv(tmp_path, capsys):
    # The measure-free subsolution solve inside build_sub_super cannot
    # converge in two iterations; the suite still leaves its (empty) table.
    text = "\n".join([
        "domain.dim = 1",
        "domain.cells = 16",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "measure.atom = [0.5, 0.5, 0.5, 1.0]",
        "solver.max_iters = 2",
    ]) + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 2
    assert "reason,2,nonconvergence" in capsys.readouterr().out
    assert (out / "reason.csv").exists()
    header, rows = read_rows(out / "verify_sandwich.csv")
    assert header == ["name", "observed", "bound", "status"]
    assert rows == []


@pytest.mark.parametrize("suite, expected_calls", [("all", 2), ("monotone", 1)])
def test_verify_solves_each_schedule_once(tmp_path, monkeypatch, suite, expected_calls):
    calls = []

    def counting_solve_sequence(spec, n_schedule=None, cfg=None):
        calls.append((spec.mu.atoms, spec.mu.density, tuple(n_schedule)))
        return solve_sequence(spec, n_schedule, cfg)

    monkeypatch.setattr(cli, "solve_sequence", counting_solve_sequence)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", suite]) == 0
    assert len(calls) == expected_calls
    assert len(set(calls)) == expected_calls


def test_verify_solves_no_level_problem_twice(tmp_path, monkeypatch):
    # Every level solve goes through solver._iterate; two calls with the same
    # grid, level, data, tolerance, start and argument map repeat one solve.
    keys = []
    iterate = solver._iterate

    def recording_iterate(prep, cfg, tol_fp, initial, arg_map=np.abs):
        keys.append((
            prep.grid.dim,
            prep.grid.cells_per_side,
            prep.cap,
            prep.f_capped.tobytes(),
            prep.mu_vals.tobytes(),
            tol_fp,
            None if initial is None else np.asarray(initial).tobytes(),
            arg_map,
        ))
        return iterate(prep, cfg, tol_fp, initial, arg_map)

    monkeypatch.setattr(solver, "_iterate", recording_iterate)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", "all"]) == 0
    assert keys
    assert len(set(keys)) == len(keys)


def test_verify_uniqueness_gap_not_limited_by_tol_fp(tmp_path):
    # Solved only to tol_fp = 1e-8, the two uniqueness starts differed by
    # 1.1e-8 here and failed the 1e-8 bound on solver tolerance alone.
    text = "\n".join([
        "domain.dim = 2",
        "domain.cells = 16",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "f.kind = constant",
        "f.value = 1",
        "measure.atom = [0.5645790971609466, 0.5483664505513067, 0.5, 0.9920571580830845]",
    ]) + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "all"]) == 0
    _, rows = read_rows(out / "verify_all.csv")
    gap = {row[0]: row for row in rows}["uniqueness.gap"]
    assert gap[3] == "pass"
    assert float(gap[1]) <= 1e-10


def test_verify_manufactured_suite(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "manufactured"]) == 0
    _, rows = read_rows(out / "verify_manufactured.csv")
    by_name = {row[0]: row for row in rows}
    assert float(by_name["manufactured.error_cells64"][1]) <= 2e-3
    assert abs(float(by_name["manufactured.order_slope"][1]) - 2.0) <= 0.2


def test_verify_suite_from_config_key(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D + "verify.suite = monotone\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out)]) == 0
    assert (out / "verify_monotone.csv").exists()


# -- sweep -------------------------------------------------------------------


SWEEP = DIRAC_1D + """
sweep.gamma = 0.5, 1.0
sweep.cells = 8, 16
sweep.measure = none, dirac_center
"""


def test_sweep_product_rows(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out), "--threads", "2"]) == 0
    header, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 8  # 2 gammas x 2 cells x 2 measures
    assert header[:3] == ["gamma", "cells", "measure"]
    # deterministic lexicographic order in the parameter tuple
    keys = [(float(r[0]), int(r[1]), r[2]) for r in rows]
    assert keys == sorted(keys)
    assert all(r[3] == "ok" for r in rows)


def test_sweep_rows_run_outside_the_calling_process(tmp_path, monkeypatch):
    # The forked workers inherit the patch; a row solved in this process
    # would read error:RuntimeError.
    caller = os.getpid()
    real = cli.solve_sequence

    def solve_outside_caller(*args, **kwargs):
        if os.getpid() == caller:
            raise RuntimeError("sweep row solved in the calling process")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_sequence", solve_outside_caller)
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out), "--threads", "2"]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 8
    assert [r[3] for r in rows] == ["ok"] * 8


def test_sweep_worker_death_exits_two_without_hanging(tmp_path):
    # A worker that dies mid-row breaks the pool; the sweep must report it
    # and exit, not wait for the lost row.  Run in a subprocess so that a
    # hang fails the test through the timeout.
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    script = textwrap.dedent("""
        import os, sys
        import singpde.cli as cli
        row = cli._sweep_row

        def die_on_one_job(cfg, gamma, cells, measure):
            if (gamma, cells, measure) == (1.0, 8, "none"):
                os._exit(1)
            return row(cfg, gamma, cells, measure)

        cli._sweep_row = die_on_one_job
        cfg, out = sys.argv[1:]
        sys.exit(cli.main(["sweep", cfg, "--out", out, "--threads", "2"]))
    """)
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, str(out)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("reason,2,infrastructure,BrokenProcessPool")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize(
    "kind_lines, build_h",
    [
        (
            "h.kind = bounded_plateau\nh.plateau = 3",
            lambda g: SingularNonlinearity.bounded_plateau(g, 3.0),
        ),
        (
            "h.kind = shifted_power\nh.shift = 0.5",
            lambda g: SingularNonlinearity.shifted_power(g, 0.5),
        ),
    ],
)
def test_sweep_rebuilds_h_of_the_configured_kind(tmp_path, kind_lines, build_h):
    # Each row keeps the configured kind and its shift or plateau, and only
    # its gamma changes.
    text = DIRAC_1D.replace("h.kind = pure_power", kind_lines)
    text += "sweep.gamma = 0.5, 1.5\nsweep.cells = 16\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    header, rows = read_rows(out / "sweep.csv")
    col = header.index("final_l1_norm")
    run = RunConfig.from_file(cfg)
    assert [float(r[0]) for r in rows] == [0.5, 1.5]
    for row in rows:
        h = build_h(float(row[0]))
        spec = ProblemSpec(
            grid=build_grid(1, 16), h=h, f=singpde.constant(1.0), mu=RadonMeasure()
        )
        seq = solve_sequence(spec, run.n_schedule, run.solver)
        assert row[3] == "ok"
        assert float(row[col]) == l1_norm(seq.final.u)


def test_sweep_empty_gamma_list_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D + "sweep.cells = 8\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 1


def test_sweep_nonconvergent_row_flagged_others_intact(tmp_path):
    # the nearly linear row converges within the iteration budget, the
    # strongly singular one cannot
    text = DIRAC_1D.replace("sequence.n_schedule = 2, 4, 8, 16, 32, 64", "sequence.n_schedule = 64")
    text = text.replace("solver.tol_fp = 1e-10", "solver.tol_fp = 1e-10\nsolver.max_iters = 8")
    text += "sweep.gamma = 0.05, 2.0\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "sweep.csv")
    status = {float(r[0]): r[3] for r in rows}
    assert status[0.05] == "ok"
    assert status[2.0] == "nonconverged"


def test_sweep_threads_flag_below_one_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out), "--threads", "0"]) == 1
    assert "reason,1,config,--threads: must be at least 1, got 0" in capsys.readouterr().out
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_threads_flag_offered_only_by_sweep(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    assert main([command, cfg, "--out", str(tmp_path / "out"), "--threads", "2"]) == 1
    assert "reason,1,config,usage: unrecognized arguments: --threads 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, detail",
    [
        (["solve", "{cfg}", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "{cfg}", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["sweep", "{cfg}", "--threads", "two"], "argument --threads: invalid int value"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exits_one_with_reason(tmp_path, capsys, args, detail):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    assert main([a.format(cfg=cfg) for a in args]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("reason,1,config,usage: " + detail)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--suite" in capsys.readouterr().out


def test_sweep_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", cfg, "--out", str(out1), "--threads", "3"]) == 0
    assert main(["sweep", cfg, "--out", str(out2), "--threads", "1"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
