import csv
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import textwrap
import warnings
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import singpde
import singpde.cli as cli
import singpde.solver as solver
from singpde.cli import _fmt, _solution_row_texts, _write_solution, main
from singpde.config import RunConfig
from singpde.diagnostics import discrete_gradient_magnitude, tail_fit
from singpde.fields import constant
from singpde.measures import RadonMeasure, scale_measure
from singpde.mesh import GridFunction, _solve, build_grid, build_laplacian, l1_norm
from singpde.singularity import SingularNonlinearity
from singpde.solver import ProblemSpec, SandwichSpec, iter_sequence

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


def final_level(spec, n_schedule, cfg):
    """The last level result that ``iter_sequence`` yields."""
    *_, (_, res, _, _) = iter_sequence(spec, n_schedule, cfg)
    return res


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def reason_fields(out: str) -> list[str]:
    """The fields of the ``reason`` line that ends ``out``, read as CSV."""
    return next(csv.reader([out.splitlines()[-1]]))


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


@pytest.mark.parametrize(
    "text, key",
    [
        ("domain.dim = 3\ndomain.cells = 8\nf.kind = gaussian_bump\nf.center = 0.3, 0.7\n",
         "f.center"),
        ("domain.dim = 1\nh.kind = pure_power\nh.shift = 3\nf.width = -1\n", "h.shift"),
        ("domain.dim = 1\nh.plateau = 3\nf.kind = sin_pi\nf.value = 7\n", "h.plateau"),
    ],
    ids=["short-center", "shift-of-pure-power", "plateau-of-pure-power"],
)
def test_solve_rejects_f_and_h_keys_the_kinds_cannot_use(tmp_path, capsys, text, key):
    # A short Gaussian centre exited 2 in 3D; a key that the configured kind
    # does not read was ignored and the run exited 0.
    out = tmp_path / "o"
    assert main(["solve", write_cfg(tmp_path, text), "--out", str(out)]) == 1
    code, category, detail = reason_fields(capsys.readouterr().out)[1:]
    assert (code, category) == ("1", "config")
    assert detail.startswith(key + ": ")
    assert not out.exists()


@pytest.mark.parametrize(
    "args", [["solve"], ["verify"], ["verify", "--suite", "lower_bound"], ["sweep"]]
)
def test_margin_deeper_than_the_grid_is_config_error_before_any_solve(
    tmp_path, capsys, args
):
    # At 5 cells the deepest node lies at 0.4 from the boundary.
    cfg = write_cfg(tmp_path, "domain.cells = 5\ndomain.margins = 0.45\nsweep.gamma = 1\n")
    out = tmp_path / "out"
    assert main([args[0], cfg, *args[1:], "--out", str(out)]) == 1
    code, category, detail = reason_fields(capsys.readouterr().out)[1:]
    assert (code, category) == ("1", "config")
    assert detail.startswith("domain.margins: margin 0.45 ")
    assert not out.exists()


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


# Levels 2 and 4 converge within 5 evaluations of T; level 8 needs 6.
ABORT_AT_8 = """
domain.dim = 1
domain.cells = 64
h.kind = pure_power
h.gamma = 0.5
f.kind = constant
f.value = 1.0
sequence.n_schedule = 2, 4, 8, 16
solver.tol_fp = 1e-10
solver.max_iters = 5
"""


def test_solve_abort_past_the_first_level_writes_levels_solved(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", write_cfg(tmp_path, ABORT_AT_8), "--out", str(out)]) == 2
    assert "reason,2,nonconvergence,level 8 did not converge" in capsys.readouterr().out
    header, rows = read_rows(out / "sequence.csv")
    assert [r[0] for r in rows] == ["2", "4", "8"]
    assert sorted(p.name for p in out.glob("solution_n*.csv")) == [
        "solution_n2.csv", "solution_n4.csv", "solution_n8.csv"
    ]
    l1, mx = header.index("l1_diff"), header.index("max_diff")
    # Only the converged level 4 has a difference; the aborted level has none.
    assert [(r[l1], r[mx]) for r in (rows[0], rows[2])] == [("nan", "nan")] * 2
    assert float(rows[1][l1]) > 0 and float(rows[1][mx]) > 0
    assert rows[2][1] == "5" and float(rows[2][2]) > 1e-10


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


def test_solve_infrastructure_reason_csv_keeps_three_columns(tmp_path, monkeypatch, capsys):
    # numpy's broadcast error has commas in its message; the row used to be
    # written unquoted and read back as five fields under a 3-field header.
    detail = "operands could not be broadcast together with shapes (3,) (2,)"

    def broken_sequence(*args):
        raise ValueError(detail)

    monkeypatch.setattr(cli, "iter_sequence", broken_sequence)
    cfg = write_cfg(tmp_path, "domain.dim = 1\ndomain.cells = 16\n")
    out = tmp_path / "out"
    assert main(["solve", cfg, "--out", str(out)]) == 2
    # Quoted as in reason.csv, so the detail's commas stay in one field.
    assert capsys.readouterr().out == f'reason,2,infrastructure,"ValueError: {detail}"\n'
    with open(out / "reason.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["code", "category", "detail"], ["2", "infrastructure", f"ValueError: {detail}"]]


def test_reason_csv_bytes_unchanged_without_special_characters(tmp_path):
    assert cli._reason(tmp_path, 2, "nonconvergence", "level 8 did not converge") == 2
    assert (tmp_path / "reason.csv").read_bytes() == (
        b"code,category,detail\n2,nonconvergence,level 8 did not converge\n"
    )


def test_solve_overflow_exits_two_as_overflow_without_warning(tmp_path):
    # At n = 10^200 the source n f = 10^400 does not fit a float; the Newton
    # step overflows first.  It used to print numpy's overflow warnings and
    # exit as an infrastructure failure.
    text = "\n".join([
        "domain.dim = 1",
        "domain.cells = 16",
        "f.value = 1e200",
        f"sequence.n_schedule = 2, {10**200}",
    ]) + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["solve", cfg, "--out", str(out)])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert (out / "reason.csv").read_text().splitlines()[1].startswith("2,overflow,")
    # Each level is written as it finishes: level 2's file and row stay, and
    # the level that raised leaves neither.
    _, rows = read_rows(out / "sequence.csv")
    assert [r[0] for r in rows] == ["2"]
    assert [p.name for p in out.glob("solution_n*.csv")] == ["solution_n2.csv"]
    _, rows = read_rows(out / "solution_n2.csv")
    assert len(rows) == 15


@pytest.mark.parametrize("nonconverged", [False, True])
def test_solve_reports_nonconvergence_before_a_negative_value(
    tmp_path, monkeypatch, capsys, nonconverged
):
    # Level 16 is made negative and, in the second case, level 64 is flagged
    # nonconvergent.  Either exit comes after every level is written, and
    # nonconvergence (2) wins over the negative value (3).
    real = cli.iter_sequence

    def tampered(spec, n_schedule, cfg):
        for n, res, l1, mx in real(spec, n_schedule, cfg):
            if n == 16:
                res = replace(res, u=GridFunction(res.u.grid, -res.u.values))
            if n == 64 and nonconverged:
                res = replace(res, converged=False)
            yield n, res, l1, mx

    monkeypatch.setattr(cli, "iter_sequence", tampered)
    out = tmp_path / "out"
    code = main(["solve", write_cfg(tmp_path, DIRAC_1D), "--out", str(out)])
    reason = capsys.readouterr().out.splitlines()[-1]
    if nonconverged:
        assert code == 2 and reason.startswith("reason,2,nonconvergence,level 64 ")
    else:
        assert code == 3 and reason == "reason,3,invariant,negative nodal value at level 16"
    _, rows = read_rows(out / "sequence.csv")
    assert [r[0] for r in rows] == ["2", "4", "8", "16", "32", "64"]
    assert len(list(out.glob("solution_n*.csv"))) == 6


def test_solve_streams_each_level_before_the_next_starts(tmp_path, monkeypatch):
    # When a level starts, every level before it has its solution file and
    # its sequence row on disk, complete, and at most the previous level's
    # result is still alive: no more than two levels at a time.
    out = tmp_path / "out"
    real = solver._iterate
    finished = []  # weak references to the results of the levels solved so far
    starts = []  # per level start: (finished results alive, files, sequence rows)

    def watched(*args, **kwargs):
        alive = sum(ref() is not None for ref in finished)
        files = {p.name: p.read_bytes() for p in out.glob("solution_n*.csv")}
        rows = (out / "sequence.csv").read_text().splitlines()[1:]
        starts.append((alive, files, rows))
        results = real(*args, **kwargs)  # one per problem of the stack, here one
        finished.extend(weakref.ref(res) for res in results)
        return results

    monkeypatch.setattr(solver, "_iterate", watched)
    assert main(["solve", write_cfg(tmp_path, DIRAC_1D), "--out", str(out)]) == 0
    schedule = [2, 4, 8, 16, 32, 64]
    _, final_rows = read_rows(out / "sequence.csv")
    assert len(starts) == len(schedule)
    for k, (alive, files, rows) in enumerate(starts):
        assert alive <= 1
        assert sorted(files) == sorted(f"solution_n{n}.csv" for n in schedule[:k])
        for name, data in files.items():
            assert data == (out / name).read_bytes()
        assert [r.split(",") for r in rows] == final_rows[:k]


def test_solve_linear_solves_column_counts_every_solve(tmp_path, monkeypatch):
    calls = []

    def counted(op, b):
        calls.append(1)
        return _solve(op, b)

    # The level loop solves through the array kernel, not solve_spd.
    monkeypatch.setattr(solver, "_solve", counted)
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


def _per_value_rows(coords, values) -> bytes:
    """Solution rows with one ``_fmt`` call per value, as for the small tables."""
    return "".join(
        ",".join(_fmt(x) for x in tuple(coord) + (value,)) + "\n"
        for coord, value in zip(coords, values)
    ).encode("utf-8")


class _ChunkFile(io.BytesIO):
    """An in-memory file that keeps each byte string written to it."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, data):
        self.chunks.append(bytes(data))
        return super().write(data)


def _written_chunks(monkeypatch, row_texts, values) -> list[bytes]:
    """The chunks ``_write_solution`` writes after an empty header."""
    fh = _ChunkFile()
    monkeypatch.setattr(cli, "open", lambda path, mode: fh, raising=False)
    _write_solution(Path("solution.csv"), b"", row_texts, np.array(values))
    assert fh.chunks[0] == b""
    return fh.chunks[1:]


def test_solution_rows_template_matches_fmt_on_edge_values(monkeypatch):
    edge = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 1.2345678901234567e17, float("nan")]
    # At the real chunk size, along one axis: the edge values end the axis,
    # four on each side of the first chunk boundary, as coordinates and,
    # shifted by one row, as values.
    axis = [0.25 + k / cli._CHUNK_ROWS for k in range(cli._CHUNK_ROWS - 4)] + edge
    values = axis[1:] + axis[:1]
    chunks = _written_chunks(monkeypatch, _solution_row_texts(np.array(axis), 1), values)
    assert [c.count(b"\n") for c in chunks] == [cli._CHUNK_ROWS, 4]
    assert b"".join(chunks) == _per_value_rows([(x,) for x in axis], values)
    # Along two and three axes, with chunks of 5 rows: the 8 rows of a 2D
    # line split into 5 + 3, and the 64 trailing rows of a 3D line into
    # twelve chunks of 5 and one of 4.
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 5)
    for dim, counts in ((2, [5, 3] * 8), (3, ([5] * 12 + [4]) * 8)):
        coords = list(itertools.product(edge, repeat=dim))
        values = [edge[k % len(edge)] for k in range(3, 3 + len(coords))]
        chunks = _written_chunks(monkeypatch, _solution_row_texts(np.array(edge), dim), values)
        assert [c.count(b"\n") for c in chunks] == counts
        assert b"".join(chunks) == _per_value_rows(coords, values)


@pytest.mark.parametrize(
    "dim, cells, chunk_rows, counts",
    [
        (1, 7, 5, [5, 1]),  # a 1D axis longer than one chunk
        (2, 5, 5, [4] * 4),  # one whole line of 4 rows per chunk
        (3, 4, 5, [5, 4] * 3),  # 9 trailing rows per line: each line split
        (2, 5, 9, [8, 8]),  # two whole lines per chunk
        (2, 6, 12, [10, 10, 5]),  # the last chunk holds the one line left
        (3, 4, 20, [18, 9]),  # two whole lines of 9 trailing rows per chunk
        (3, 5, 5, [5, 5, 5, 1] * 4),  # 16 trailing rows per line
    ],
    ids=["1-7", "2-5", "3-4", "2-5-9", "2-6-12", "3-4-20", "3-5-5"],
)
def test_solution_rows_template_matches_fmt_per_node(monkeypatch, dim, cells, chunk_rows, counts):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    grid = build_grid(dim, cells)
    values = np.random.default_rng(dim).uniform(0.0, 1.0, grid.interior_count)
    expected = _per_value_rows(grid.node_coords.tolist(), values.tolist())
    row_texts = _solution_row_texts(grid.node_coords[: cells - 1, -1], dim)
    chunks = _written_chunks(monkeypatch, row_texts, values)
    assert [c.count(b"\n") for c in chunks] == counts
    assert b"".join(chunks) == expected


def test_solution_row_texts_kept_are_small_against_one_file(monkeypatch):
    # What solve keeps between levels grows with cells^(dim-1): on 3D/24 it
    # is under a tenth of one solution file.  Templates of every row, kept
    # for the whole run, came to about 80% of a file there.
    grid = build_grid(3, 24)
    row_texts = _solution_row_texts(grid.node_coords[:23, -1], 3)
    kept = sum(sys.getsizeof(texts) + sum(map(sys.getsizeof, texts)) for texts in row_texts)
    values = np.random.default_rng(0).uniform(0.0, 1.0, grid.interior_count)
    file_bytes = sum(map(len, _written_chunks(monkeypatch, row_texts, values)))
    assert kept < file_bytes / 10


def _check_solution_files_per_value(tmp_path, cells):
    text = "\n".join([
        "domain.dim = 2",
        f"domain.cells = {cells}",
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

    cfg = RunConfig.from_file(cfg_path)
    grid = build_grid(cfg.dim, cfg.cells)
    spec = ProblemSpec(grid=grid, h=cfg.h, f=cfg.f, mu=cfg.mu, n=cfg.n_schedule[-1])
    for n, res, _, _ in iter_sequence(spec, cfg.n_schedule, cfg.solver):
        expected = b"x,y,u\n" + _per_value_rows(grid.node_coords.tolist(), res.u.values.tolist())
        assert (out / f"solution_n{n}.csv").read_bytes() == expected


def test_solve_solution_files_match_per_value_formatting(tmp_path):
    _check_solution_files_per_value(tmp_path, 8)


def test_solve_solution_files_match_per_value_formatting_across_chunks(tmp_path):
    # 99^2 = 9,801 rows: two full chunks of 4,096 and a partial one.
    assert 2 * cli._CHUNK_ROWS < 99**2 < 3 * cli._CHUNK_ROWS
    _check_solution_files_per_value(tmp_path, 100)


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
    # cost a fresh process more than a small command's solves.  Nor does any
    # command import multiprocessing or concurrent.futures: sweep forks its
    # workers with os.fork, and the two packages raised its peak memory.
    cfg = write_cfg(tmp_path, "\n".join([
        "domain.dim = 2",
        "domain.cells = 8",
        "h.kind = pure_power",
        "h.gamma = 1.5",
        "measure.atom = [0.5, 0.5, 0.5, 1.0]",
        "sequence.n_schedule = 2, 8, 32",
    ]) + "\n")
    sweep_cfg = write_cfg(tmp_path, SWEEP, name="sweep.cfg")
    script = textwrap.dedent("""
        import json, sys
        from singpde.cli import main
        cfg, sweep_cfg, out = sys.argv[1:]
        codes = [
            main(["solve", cfg, "--out", out + "/solve"]),
            main(["verify", cfg, "--out", out + "/verify", "--suite", "all"]),
            main(["sweep", sweep_cfg, "--out", out + "/sweep"]),
        ]
        top = {m: m.partition(".")[0] for m in sys.modules}
        scipy = sorted(m for m, t in top.items() if t == "scipy")
        mp = sorted(m for m, t in top.items() if t in ("multiprocessing", "concurrent"))
        print(json.dumps({"codes": codes, "scipy": scipy, "multiprocessing": mp}))
    """)
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, sweep_cfg, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"][0] == 0
    assert result["codes"][1] in (0, 3)  # 3: a check failed, the run completed
    assert result["codes"][2] == 0
    assert result["scipy"] == []
    assert result["multiprocessing"] == []


def test_commands_run_with_scipy_unimportable(tmp_path):
    # scipy is not a runtime dependency: with it blocked, every command runs,
    # and the forked sweep workers inherit the block.
    cfg = write_cfg(tmp_path, "domain.dim = 2\ndomain.cells = 8\nh.gamma = 1.5\n"
                    "measure.atom = [0.5, 0.5, 0.5, 1.0]\n")
    sweep_cfg = write_cfg(tmp_path, SWEEP, name="sweep.cfg")
    script = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None
        from singpde.cli import main
        cfg, sweep_cfg, out = sys.argv[1:]
        codes = [
            main(["solve", cfg, "--out", out + "/solve"]),
            main(["verify", cfg, "--out", out + "/verify", "--suite", "all"]),
            main(["sweep", sweep_cfg, "--out", out + "/sweep"]),
        ]
        print(json.dumps(codes))
    """)
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg, sweep_cfg, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes[0] == 0 and codes[2] == 0
    assert codes[1] in (0, 3)  # 3: a check failed, the run completed
    _, rows = read_rows(tmp_path / "sweep" / "sweep.csv")
    assert len(rows) == 8
    assert [r[3] for r in rows] == ["ok"] * 8


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


def test_verify_tails_rows_are_tail_fits_of_the_final_level(tmp_path):
    # tails judges only 3D; whether its rows pass at 3D/16 is a matter of
    # resolution, so only their values are checked.
    cfg = write_cfg(tmp_path, "domain.dim = 3\ndomain.cells = 16\nh.gamma = 1.5\n"
                    "measure.atom = [0.5, 0.5, 0.5, 1.0]\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "tails"]) in (0, 3)
    _, rows = read_rows(out / "verify_tails.csv")
    observed = {row[0]: float(row[1]) for row in rows}
    run_cfg = RunConfig.from_file(cfg)
    spec = cli._spec_from_config(run_cfg)
    u = final_level(spec, run_cfg.n_schedule, run_cfg.solver).u
    grad = tail_fit(discrete_gradient_magnitude(u), u.grid.cell_volume)
    fit_u = tail_fit(u.values, u.grid.cell_volume)
    assert observed == {
        "tails.gradient_slope": grad.slope,
        "tails.gradient_r2": grad.r_squared,
        "tails.u_slope": fit_u.slope,
        "tails.u_r2": fit_u.r_squared,
    }
    assert list(observed) == ["tails.gradient_slope", "tails.gradient_r2",
                              "tails.u_slope", "tails.u_r2"]


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
    # The schedules, whose last levels are the sandwich pair and the
    # solution it bounds, cannot converge in two iterations; the suite
    # still leaves its (empty) table.
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


def test_verify_abort_past_the_first_level_exits_two(tmp_path, capsys):
    # The full schedule, the first one the suites ask for, aborts at level 8:
    # the run ends there and leaves a table without rows.
    out = tmp_path / "out"
    assert main(["verify", write_cfg(tmp_path, ABORT_AT_8), "--out", str(out)]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "reason,2,nonconvergence,level 8 did not converge"
    )
    assert (out / "verify_all.csv").read_text() == "name,observed,bound,status\n"


def test_verify_hopf_ratio_stable_at_box_corners(tmp_path):
    # With f = sin_pi the subsolution vanishes like x y at a corner.  Its
    # ratio to the boundary distance min(x, y) halved from 24 to 48 cells
    # (0.5016, against the bound 0.5); its ratio to phi_1 settles.
    text = "\n".join([
        "domain.dim = 2",
        "domain.cells = 24",
        "h.kind = shifted_power",
        "h.gamma = 0.5",
        "h.shift = 1.0",
        "f.kind = sin_pi",
        "measure.atom = [0.4, 0.6, 0.5, 1.0]",
        "measure.density = constant(0.5)",
    ]) + "\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 0
    _, rows = read_rows(out / "verify_sandwich.csv")
    rows = {row[0]: row for row in rows}
    assert rows["sandwich.hopf_ratio"][3] == "pass"
    stability = rows["sandwich.hopf_ratio_stability"]
    assert stability[3] == "pass"
    assert abs(float(stability[1]) - 1.0) <= 0.01


def centre_atom_cfg(tmp_path, dim, cells, mass=1.0):
    return write_cfg(tmp_path, "\n".join([
        f"domain.dim = {dim}",
        f"domain.cells = {cells}",
        "h.gamma = 1.5",
        f"measure.atom = [0.5, 0.5, 0.5, {mass}]",
    ]) + "\n")


def squared_subsolution_stability(tmp_path, monkeypatch, dim, cells):
    """The sandwich suite's stability row with v^2 fed to the Hopf ratio
    for every v; the run must exit 3."""
    real = cli.hopf_ratio_check
    monkeypatch.setattr(
        cli, "hopf_ratio_check", lambda v: real(GridFunction(v.grid, v.values**2))
    )
    cfg = centre_atom_cfg(tmp_path, dim, cells)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 3
    _, rows = read_rows(out / "verify_sandwich.csv")
    return {row[0]: row for row in rows}["sandwich.hopf_ratio_stability"]


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_hopf_ratio_stability_fails_for_squared_subsolution(tmp_path, monkeypatch, dim):
    # Fed v^2 for v, the ratio from 32 to 64 cells read 0.72 in 1D and 0.74
    # in 2D, inside the former 0.5..2 band.
    row = squared_subsolution_stability(tmp_path, monkeypatch, dim, 64)
    assert row[3] == "fail"
    assert float(row[1]) < 0.9


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_verify_hopf_ratio_stability_fails_for_squared_subsolution_at_16_cells(
    tmp_path, monkeypatch, dim
):
    # The smallest grid that judges the ratio compares 8 with 16 cells; v^2
    # read 0.80, 0.85 and 0.88 there, against 1.018 to 1.031 for v.
    row = squared_subsolution_stability(tmp_path, monkeypatch, dim, 16)
    assert row[3] == "fail"
    assert float(row[1]) < 0.9


def _halved_super(pair):
    sup = (pair.sub.values + pair.sup.values) / 2
    return SandwichSpec(sub=pair.sub, sup=GridFunction(pair.sup.grid, sup))


def _raised_sub(pair):
    return SandwichSpec(sub=GridFunction(pair.sub.grid, 1.01 * pair.sub.values), sup=pair.sup)


@pytest.mark.parametrize("dim, cells, mass", [(1, 32, 0.1), (2, 16, 1.0)])
@pytest.mark.parametrize("narrow", [_halved_super, _raised_sub], ids=["v+w/2", "1.01v"])
def test_verify_sandwich_breach_fails_for_a_narrowed_pair(
    tmp_path, monkeypatch, capsys, dim, cells, mass, narrow
):
    # u_n lies inside [v, v + w].  Here u - v rose to 0.58 w (1D) and 0.86 w
    # (2D) near the atom and fell to 0.0030 v and 0.0042 v elsewhere, so
    # (v, v + w/2) cuts off u's top and (1.01 v, v + w) its bottom, while
    # w >= 0.0156 v keeps the second pair ordered.  A 1D atom of mass 1
    # kept u - v above 0.034 v, inside the raised pair.
    real = cli.build_sub_super
    monkeypatch.setattr(cli, "build_sub_super", lambda spec, sub: narrow(real(spec, sub)))
    cfg = centre_atom_cfg(tmp_path, dim, cells, mass)
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 3
    assert reason_fields(capsys.readouterr().out) == [
        "reason", "3", "check_failed", "sandwich.breach"
    ]
    _, rows = read_rows(out / "verify_sandwich.csv")
    breach = {row[0]: row for row in rows}["sandwich.breach"]
    assert breach[3] == "fail"


def test_verify_hopf_ratio_stability_needs_16_cells(tmp_path):
    # The coarse grid of an 8-cell run has 4 cells, where v^2 read 1.010 in
    # 2D and passed the band.
    out = tmp_path / "out"
    cfg = centre_atom_cfg(tmp_path, 2, 8)
    assert main(["verify", cfg, "--out", str(out), "--suite", "sandwich"]) == 0
    _, rows = read_rows(out / "verify_sandwich.csv")
    rows = {row[0]: row for row in rows}
    assert rows["sandwich.hopf_ratio"][3] == "pass"
    assert rows["sandwich.hopf_ratio_stability"] == [
        "sandwich.hopf_ratio_stability", "needs cells >= 16", "", "na"
    ]


def test_verify_builds_no_grid_finer_than_the_config(tmp_path, monkeypatch):
    # The finest grid sets verify's peak memory.  The manufactured suite
    # builds its own 1D grids and reports na outside 1D, so a 2D run shows
    # every other suite's grids: the config's and the Hopf check's half.
    cells = []
    build_grid_ = cli.build_grid

    def recording_build_grid(dim, cells_per_side, *args):
        cells.append(cells_per_side)
        return build_grid_(dim, cells_per_side, *args)

    monkeypatch.setattr(cli, "build_grid", recording_build_grid)
    cfg = centre_atom_cfg(tmp_path, 2, 16)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", "all"]) == 0
    assert sorted(set(cells)) == [8, 16]


def test_verify_every_solve_derives_from_the_run_spec(tmp_path, monkeypatch, capsys):
    # A defect injected into the run's one ProblemSpec (every atom's mass
    # doubled, gamma times 1.2) must reach every solve of every suite: one
    # that rebuilt its problem from the config would solve the clean one.
    cfg = write_cfg(tmp_path, DIRAC_1D)
    run_cfg = RunConfig.from_file(cfg)
    assert main(["verify", cfg, "--out", str(tmp_path / "clean"), "--suite", "all"]) == 0
    clean = capsys.readouterr().out.splitlines()

    spec_from_config = cli._spec_from_config

    def defective_spec(cfg):
        spec = spec_from_config(cfg)
        mu = RadonMeasure(atoms=tuple((x, 2.0 * m) for x, m in spec.mu.atoms))
        return replace(spec, h=replace(spec.h, gamma=1.2 * spec.h.gamma), mu=mu)

    specs = []
    iter_sequence_, solve_regularized_ = cli.iter_sequence, cli.solve_regularized

    def recording_iter_sequence(spec, n_schedule=None, cfg=None):
        specs.append(spec)
        return iter_sequence_(spec, n_schedule, cfg)

    def recording_solve_regularized(spec, cfg=None, initial=None):
        specs.append(spec)
        return solve_regularized_(spec, cfg, initial)

    monkeypatch.setattr(cli, "_spec_from_config", defective_spec)
    monkeypatch.setattr(cli, "iter_sequence", recording_iter_sequence)
    monkeypatch.setattr(cli, "solve_regularized", recording_solve_regularized)
    code = main(["verify", cfg, "--out", str(tmp_path / "defect"), "--suite", "all"])
    assert code in (0, 3)
    defect = capsys.readouterr().out.splitlines()

    # Two schedules, three tight solves, the Hopf coarse solve and three
    # manufactured solves.
    assert len(specs) == 9
    assert {spec.h.gamma for spec in specs} == {1.2 * run_cfg.h.gamma}
    (mass,) = [m for _, m in run_cfg.mu.atoms]
    masses = [tuple(m for _, m in spec.mu.atoms) for spec in specs if spec.mu.atoms]
    # The full schedule and the tight mu and uniqueness solves carry 2 mu,
    # Kato's tight solve of twice the measure 4 mu.
    assert sorted(masses) == [(2.0 * mass,)] * 3 + [(4.0 * mass,)]
    changed = {row.split(",")[0] for row in set(defect) - set(clean)}
    assert "manufactured.error_cells64" in changed


def test_verify_tight_solves_start_warm_when_the_schedule_is_solved(tmp_path, monkeypatch):
    # Under --suite all the tight mu solve starts from the full schedule's
    # last level and the tight 2 mu solve from the tight mu one; the
    # uniqueness solve starts 1 above the tight mu one.  A lone kato suite
    # solves the full schedule for the same start.
    finals, tight = {}, []
    iter_sequence_, solve_regularized_ = cli.iter_sequence, cli.solve_regularized

    def recording_iter_sequence(spec, n_schedule=None, cfg=None):
        for level in iter_sequence_(spec, n_schedule, cfg):
            finals[spec.mu] = level[1].u.values
            yield level

    def recording_solve_regularized(spec, cfg=None, initial=None):
        res = solve_regularized_(spec, cfg, initial)
        if cfg.tol_fp == 1e-12:
            tight.append((spec.mu, None if initial is None else initial.values, res.u.values))
        return res

    monkeypatch.setattr(cli, "iter_sequence", recording_iter_sequence)
    monkeypatch.setattr(cli, "solve_regularized", recording_solve_regularized)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    mu = RunConfig.from_file(cfg).mu
    assert main(["verify", cfg, "--out", str(tmp_path / "all"), "--suite", "all"]) == 0
    full = finals[mu]
    (mu1, start1, u1), (mu2, start2, _), (mu3, start3, _) = tight
    assert mu1 == mu and np.array_equal(start1, full)
    assert mu2 == scale_measure(mu, 2.0) and np.array_equal(start2, u1)
    assert mu3 == mu and np.array_equal(start3, u1 + 1.0)

    tight.clear()
    finals.clear()
    assert main(["verify", cfg, "--out", str(tmp_path / "kato"), "--suite", "kato"]) == 0
    assert list(finals) == [mu] and np.array_equal(finals[mu], full)
    (mu1, start1, u1), (mu2, start2, _) = tight
    assert mu1 == mu and np.array_equal(start1, full)
    assert mu2 == scale_measure(mu, 2.0) and np.array_equal(start2, u1)


@pytest.mark.parametrize(
    "suite, expected_calls",
    [("all", 2), ("monotone", 1), ("uniqueness", 1), ("kato", 1), ("sandwich", 2)],
)
def test_verify_solves_each_schedule_once(tmp_path, monkeypatch, suite, expected_calls):
    calls = []

    def counting_iter_sequence(spec, n_schedule=None, cfg=None):
        calls.append((spec.mu.atoms, spec.mu.density, tuple(n_schedule)))
        yield from iter_sequence(spec, n_schedule, cfg)

    monkeypatch.setattr(cli, "iter_sequence", counting_iter_sequence)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", suite]) == 0
    # A lone suite solves only the schedules it reads itself: uniqueness
    # and kato read the full one, for the start of the tight solve, and
    # sandwich reads both, the full one's last level and its pair.
    assert len(calls) == expected_calls
    assert len(set(calls)) == expected_calls


def test_verify_solves_no_level_problem_twice(tmp_path, monkeypatch):
    # Every level solve goes through solver._iterate; two calls with the same
    # grid, level, data, tolerance and start repeat one solve.
    keys = []
    iterate = solver._iterate

    def recording_iterate(specs, lap, cfg, tol_fp, initials):
        for i, spec in enumerate(specs):
            prep = solver._prepare(spec)
            keys.append((
                prep.grid.dim,
                prep.grid.cells_per_side,
                prep.cap,
                prep.f_capped.tobytes(),
                prep.mu_vals.tobytes(),
                tol_fp,
                None if initials is None else np.asarray(initials[i]).tobytes(),
            ))
        return iterate(specs, lap, cfg, tol_fp, initials)

    monkeypatch.setattr(solver, "_iterate", recording_iterate)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", "all"]) == 0
    assert keys
    assert len(set(keys)) == len(keys)


def test_verify_solves_the_measure_free_top_level_once(tmp_path, monkeypatch):
    # The sandwich pair's subsolution is the measure-free schedule's last
    # level, not a cold solve of the same problem.
    top_levels = []
    iterate = solver._iterate

    def recording_iterate(specs, lap, cfg, tol_fp, initials):
        for spec in specs:
            prep = solver._prepare(spec)
            if prep.grid.cells_per_side == 32 and prep.cap == 64 and not prep.mu_vals.any():
                top_levels.append(initials is None)
        return iterate(specs, lap, cfg, tol_fp, initials)

    monkeypatch.setattr(solver, "_iterate", recording_iterate)
    text = DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 1.5")
    cfg = write_cfg(tmp_path, text)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", "all"]) == 0
    assert top_levels == [False]


def test_verify_keeps_one_level_per_schedule(tmp_path, monkeypatch):
    # The suites read per-level numbers of the two schedules, not the
    # levels: once the schedules are solved only the last level of each is
    # alive, whatever the length of the schedule.
    levels = []
    iter_sequence_ = cli.iter_sequence

    def recording_iter_sequence(spec, n_schedule=None, cfg=None):
        for level in iter_sequence_(spec, n_schedule, cfg):
            levels.append(weakref.ref(level[1].u.values))
            yield level

    alive = []
    kato = cli._SUITES["kato"]

    def counting_kato(cfg, run):
        alive.append(sum(ref() is not None for ref in levels))
        return kato.run(cfg, run)

    monkeypatch.setattr(cli, "iter_sequence", recording_iter_sequence)
    monkeypatch.setitem(cli._SUITES, "kato", kato._replace(run=counting_kato))
    cfg = centre_atom_cfg(tmp_path, 1, 16)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", "all"]) == 0
    assert len(levels) == 2 * len(solver.DEFAULT_SCHEDULE)
    assert len(alive) == 1 and alive[0] <= 2


@pytest.mark.parametrize(
    "suite, minima, slopes",
    [("kato", 0, 0), ("lower_bound", 2 * 5, 0), ("energy_law", 0, 5)],
)
def test_verify_takes_only_the_per_level_numbers_its_suites_declare(
    tmp_path, monkeypatch, suite, minima, slopes
):
    # The pass takes a suite's per-level number only when that suite runs:
    # here once per margin (two) at each of the 5 top-half levels of the
    # 10-level default schedule, or once per top-half level.
    calls = {"min_on_compact": 0, "_energy_slope": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(cli, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cli, name, counting)
    cfg = centre_atom_cfg(tmp_path, 1, 16)
    assert main(["verify", cfg, "--out", str(tmp_path / "out"), "--suite", suite]) == 0
    assert calls == {"min_on_compact": minima, "_energy_slope": slopes}


def test_verify_solves_the_schedules_in_lockstep(tmp_path, monkeypatch, capsys):
    # At each level the full schedule runs first, then the measure-free
    # one, and the first level that fails in that order ends the run: here
    # the measure-free level 4, before the full schedule's level 8.
    order = []
    iter_sequence_ = cli.iter_sequence

    def failing_iter_sequence(spec, n_schedule=None, cfg=None):
        full = bool(spec.mu.atoms)
        for n, res, l1, mx in iter_sequence_(spec, n_schedule, cfg):
            order.append((n, full))
            if n == (8 if full else 4):
                res = replace(res, converged=False)
            yield n, res, l1, mx

    monkeypatch.setattr(cli, "iter_sequence", failing_iter_sequence)
    out = tmp_path / "out"
    assert main(["verify", write_cfg(tmp_path, DIRAC_1D), "--out", str(out),
                 "--suite", "lower_bound"]) == 2
    assert order == [(2, True), (2, False), (4, True), (4, False)]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "reason,2,nonconvergence,level 4 did not converge"
    )
    assert (out / "verify_lower_bound.csv").read_text() == "name,observed,bound,status\n"


@pytest.mark.parametrize("schedule", ["1024", "512, 1024"])
def test_verify_short_schedule_reports_vacuous_checks_na(tmp_path, schedule):
    # One level has no consecutive pair to check for monotonicity, and a top
    # half of one level has no spread; both rows report na, and the run
    # still writes every other row.
    cfg = centre_atom_cfg(tmp_path, 2, 8)
    with open(cfg, "a", encoding="utf-8") as fh:
        fh.write(f"sequence.n_schedule = {schedule}\n")
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "all"]) == 0
    _, rows = read_rows(out / "verify_all.csv")
    rows = {row[0]: row for row in rows}
    for margin in ("0.125", "0.25"):
        assert rows[f"lower_bound.spread_margin{margin}"] == [
            f"lower_bound.spread_margin{margin}", "needs two levels in the top half", "", "na"
        ]
        assert rows[f"lower_bound.c_K_margin{margin}"][3] == "pass"
    monotone = rows["monotone.max_violation"]
    if schedule == "1024":
        assert monotone == ["monotone.max_violation", "needs two levels", "", "na"]
    else:
        assert monotone[3] == "pass"
    assert rows["lower_bound.domination"][3] == "pass"
    assert rows["sandwich.breach"][3] == "pass"


@pytest.mark.parametrize(
    "text, suite, rows",
    [
        ("domain.dim = 1\ndomain.cells = 32\nh.gamma = 0.5\n", "energy_law",
         ["energy_law.slope,needs gamma>=1,,na"]),
        ("domain.dim = 1\ndomain.cells = 32\nh.kind = bounded_plateau\nh.gamma = 1.5\n",
         "manufactured", ["manufactured.error,needs pure_power h,,na"]),
        ("domain.dim = 1\ndomain.cells = 32\nh.kind = bounded_plateau\nh.gamma = 1.5\n",
         "uniqueness", ["uniqueness.gap,needs strictly decreasing h,,na"]),
        # f = 0 and no measure: u_n = 0, whose tails have nothing to fit.
        ("domain.dim = 3\ndomain.cells = 8\nf.kind = zero\n", "tails",
         ["tails.gradient_slope,inconclusive,,na", "tails.u_slope,inconclusive,,na"]),
        ("domain.dim = 2\ndomain.cells = 16\nf.kind = zero\n"
         "measure.atom = [0.5, 0.5, 0.5, 1.0]\n", "sandwich",
         ["sandwich.breach,needs f>0 at every node,,na"]),
    ],
    ids=["energy_law", "manufactured", "uniqueness", "tails", "sandwich"],
)
def test_verify_inapplicable_suite_prints_its_na_rows(tmp_path, capsys, text, suite, rows):
    out = tmp_path / "out"
    assert main(["verify", write_cfg(tmp_path, text), "--out", str(out), "--suite", suite]) == 0
    assert capsys.readouterr().out.splitlines() == rows
    assert (out / f"verify_{suite}.csv").read_text().splitlines()[1:] == rows


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    """The config of a 2D/16 centre-atom run and its --suite all rows."""
    tmp_path = tmp_path_factory.mktemp("full_run")
    cfg = centre_atom_cfg(tmp_path, 2, 16)
    assert main(["verify", cfg, "--out", str(tmp_path / "all"), "--suite", "all"]) == 0
    return cfg, (tmp_path / "all" / "verify_all.csv").read_text()


@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_verify_lone_suite_rows_match_the_full_run(tmp_path, full_run, suite):
    # A suite writes the same rows alone as under --suite all.
    cfg, rows_all = full_run
    assert main(["verify", cfg, "--out", str(tmp_path / "lone"), "--suite", suite]) == 0
    lone = (tmp_path / "lone" / f"verify_{suite}.csv").read_text().split("\n", 1)[1]
    assert lone.startswith(suite + ".")
    assert lone in rows_all


def test_verify_kato_unconverged_solve_exits_two(tmp_path, monkeypatch, capsys):
    # Level 8 of the full schedule, which the tight solve starts from, does
    # not reach tol_fp = 1e-300 and ends the run before any tight solve.
    cfg = write_cfg(tmp_path, DIRAC_1D.replace("tol_fp = 1e-10", "tol_fp = 1e-300"))
    out = tmp_path / "schedule"
    assert main(["verify", cfg, "--out", str(out), "--suite", "kato"]) == 2
    assert capsys.readouterr().out.splitlines()[-1] == (
        "reason,2,nonconvergence,level 8 did not converge"
    )
    assert read_rows(out / "verify_kato.csv")[1] == []

    # Either tight solve, of mu or of 2 mu, that does not converge ends the
    # run, so the Kato residual is never formed from an unconverged solution.
    cfg = write_cfg(tmp_path, DIRAC_1D)
    mu = RunConfig.from_file(cfg).mu
    solve_regularized_ = cli.solve_regularized
    for k, failing in enumerate((mu, scale_measure(mu, 2.0))):
        def unconverged_tight(spec, cfg=None, initial=None):
            res = solve_regularized_(spec, cfg, initial)
            if cfg.tol_fp == 1e-12 and spec.mu == failing:
                return replace(res, converged=False)
            return res

        monkeypatch.setattr(cli, "solve_regularized", unconverged_tight)
        out = tmp_path / f"tight{k}"
        assert main(["verify", cfg, "--out", str(out), "--suite", "kato"]) == 2
        assert capsys.readouterr().out.splitlines()[-1] == (
            "reason,2,nonconvergence,tight-tolerance level solve"
        )
        assert read_rows(out / "verify_kato.csv")[1] == []


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


def test_verify_manufactured_suite_passes_for_strong_singularity(tmp_path):
    # At gamma = 5 the cap min(n, h) at n = 10^6 would be active at the first
    # node of the 128-cell grid and change the problem that is solved.
    cfg = write_cfg(tmp_path, DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 5"))
    out = tmp_path / "out"
    assert main(["verify", cfg, "--out", str(out), "--suite", "manufactured"]) == 0
    _, rows = read_rows(out / "verify_manufactured.csv")
    assert [row[3] for row in rows] == ["pass", "pass"]


def test_verify_manufactured_suite_huge_gamma_raises_no_warning(tmp_path):
    # h(1/n) = n^gamma overflows for the n that gamma = 200 needs; the suite
    # must say so instead of solving with an infinite source.
    cfg = write_cfg(tmp_path, DIRAC_1D.replace("h.gamma = 0.5", "h.gamma = 200"))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", cfg, "--out", str(out), "--suite", "manufactured"])
    assert code == 0
    _, rows = read_rows(out / "verify_manufactured.csv")
    assert {row[3] for row in rows} <= {"na", "pass"}


# -- sweep -------------------------------------------------------------------


SWEEP = DIRAC_1D + """
sweep.gamma = 0.5, 1.0
sweep.cells = 8, 16
sweep.measure = none, dirac_center
threads = 2
"""


def test_sweep_product_rows(tmp_path):
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
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
    real = cli._iter_stack

    def solve_outside_caller(*args, **kwargs):
        if os.getpid() == caller:
            raise RuntimeError("sweep row solved in the calling process")
        yield from real(*args, **kwargs)

    monkeypatch.setattr(cli, "_iter_stack", solve_outside_caller)
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    _, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 8
    assert [r[3] for r in rows] == ["ok"] * 8


def run_sweep_script(tmp_path, body):
    """Run ``body`` in a fresh interpreter, with ``cli``, ``os``, ``sys``,
    ``time``, ``cfg`` (the SWEEP config) and ``out`` defined, then
    ``code = cli.main(["sweep", cfg, "--out", out])``, and after it print
    ``caller,<pid>,<code>`` and whether any child process is left.  A hang
    fails the test through the timeout."""
    cfg = write_cfg(tmp_path, SWEEP)
    out = tmp_path / "out"
    script = textwrap.dedent("""
        import os, sys, time
        import singpde.cli as cli
        cfg, out = sys.argv[1:]
    """) + textwrap.dedent(body) + textwrap.dedent("""
        code = cli.main(["sweep", cfg, "--out", out])
        try:
            os.waitpid(-1, os.WNOHANG)
            left = "child-left"
        except ChildProcessError:
            left = "no-child"
        print(f"caller,{os.getpid()},{code},{left}")
    """)
    src = str(Path(singpde.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-c", script, cfg, str(out)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    finally:  # a failed run may leave workers behind: kill its whole group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 0, stdout + stderr
    return out, proc.pid, stdout.splitlines()


def test_sweep_worker_death_exits_two_without_hanging(tmp_path):
    # A worker that dies mid-row ends the sweep: it must report it and exit,
    # not wait for the lost row, and leave no child process behind.
    out, pid, lines = run_sweep_script(tmp_path, """
        stack = cli._sweep_stack

        def die_on_one_job(cfg, jobs):
            if (1.0, 8, "none") in jobs:
                os._exit(1)
            return stack(cfg, jobs)

        cli._sweep_stack = die_on_one_job
    """)
    assert lines[-2] == "reason,2,infrastructure,ChildProcessError: sweep worker exited with 1"
    assert lines[-1] == f"caller,{pid},2,no-child"
    assert not (out / "sweep.csv").exists()


def test_sweep_kills_the_workers_left_when_one_dies(tmp_path):
    # The first worker dies on its first stack while the second one would
    # solve for ten minutes: the parent kills and reaps it, and returns.
    out, pid, lines = run_sweep_script(tmp_path, """
        def first_dies_second_sleeps(cfg, jobs):
            if jobs[0][0] == 0.5:
                os._exit(1)
            time.sleep(600)

        cli._sweep_stack = first_dies_second_sleeps
    """)
    assert lines[-2] == "reason,2,infrastructure,ChildProcessError: sweep worker exited with 1"
    assert lines[-1] == f"caller,{pid},2,no-child"
    assert not (out / "sweep.csv").exists()


def test_sweep_worker_leaves_through_its_own_exit_on_a_base_exception(tmp_path):
    # SystemExit(0) passes _sweep_stack's per-row except Exception.  The
    # worker must still exit nonzero and never return into the caller's
    # code: only the parent prints a reason and a caller line, and the
    # worker does not flush the parent's buffered output a second time.
    out, pid, lines = run_sweep_script(tmp_path, """
        print("buffered before the fork")

        def exit_zero(cfg, jobs):
            raise SystemExit(0)

        cli._sweep_stack = exit_zero
    """)
    assert lines == [
        "buffered before the fork",
        "reason,2,infrastructure,ChildProcessError: sweep worker exited with 1",
        f"caller,{pid},2,no-child",
    ]
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
            grid=build_grid(1, 16), h=h, f=constant(1.0), mu=RadonMeasure()
        )
        final = final_level(spec, run.n_schedule, run.solver)
        assert row[3] == "ok"
        assert float(row[col]) == l1_norm(final.u)


def test_sweep_empty_gamma_list_is_config_error(tmp_path):
    cfg = write_cfg(tmp_path, DIRAC_1D + "sweep.cells = 8\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "command, lines, detail",
    [
        ("solve", "domain.margins = 0.25, 0.25", "domain.margins: repeated entry 0.25"),
        ("verify", "domain.margins = 0.1, 0.1000001", "domain.margins: repeated entry 0.1"),
        ("solve", "domain.margins = 0, -0", "domain.margins: repeated entry 0"),
        ("sweep", "sweep.gamma = 1.5, 1.5\nsweep.cells = 16, 8", "sweep.gamma: repeated entry 1.5"),
        ("sweep", "sweep.gamma = 1.5\nsweep.cells = 16, 16", "sweep.cells: repeated entry 16"),
        ("sweep", "sweep.gamma = 1.5\nsweep.measure = none, uniform, none",
         "sweep.measure: repeated entry none"),
    ],
    ids=["margins", "margins-same-name", "margins-signed-zero", "gamma", "cells", "measure"],
)
def test_repeated_list_entry_is_config_error(tmp_path, capsys, command, lines, detail):
    # Each entry names output columns or rows: a repeated margin wrote its
    # min_K column and lower_bound rows twice, and a repeated gamma and cells
    # solved one sweep row four times.  Margins that print the same {m:g}
    # name are one entry, and so are 0 and -0, which print min_K_0 and
    # min_K_-0 over the same values.
    out = tmp_path / "out"
    assert main([command, write_cfg(tmp_path, DIRAC_1D + lines + "\n"), "--out", str(out)]) == 1
    assert reason_fields(capsys.readouterr().out) == ["reason", "1", "config", detail]
    assert not out.exists()


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


def test_sweep_row_aborted_past_the_first_level(tmp_path):
    # The row keeps the levels solved, the aborted one included, and its
    # final difference is that of level 4, the last converged level after
    # the first: the one solve writes to sequence.csv.
    cfg = write_cfg(tmp_path, ABORT_AT_8 + "sweep.gamma = 0.5\n")
    assert main(["sweep", cfg, "--out", str(tmp_path / "sweep")]) == 0
    header, rows = read_rows(tmp_path / "sweep" / "sweep.csv")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert (row["status"], row["levels"]) == ("nonconverged", "3")
    assert main(["solve", cfg, "--out", str(tmp_path / "solve")]) == 2
    seq_header, seq_rows = read_rows(tmp_path / "solve" / "sequence.csv")
    level4 = dict(zip(seq_header, seq_rows[1]))
    assert level4["level"] == "4"
    assert row["final_l1_diff"] == level4["l1_diff"] != "nan"
    assert row["final_residual"] == seq_rows[2][seq_header.index("residual")]


def test_sweep_row_that_raises_in_a_stack_reads_its_error_alone(tmp_path, monkeypatch):
    # The gamma = 1 rows raise inside their stacks (the forked workers
    # inherit the patch), so each stack is solved again one row at a time:
    # only those rows read error:FloatingPointError, and every other line is
    # the line of a sweep without them.
    real = solver.eval_h_n

    def fails_at_gamma_one(h, n, s):
        if h.gamma == 1.0:
            raise FloatingPointError("injected")
        return real(h, n, s)

    monkeypatch.setattr(solver, "eval_h_n", fails_at_gamma_one)
    text = SWEEP.replace("sweep.gamma = 0.5, 1.0", "sweep.gamma = 0.5, 1.0, 1.5")
    out, without = tmp_path / "out", tmp_path / "without"
    assert main(["sweep", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    text = text.replace("sweep.gamma = 0.5, 1.0, 1.5", "sweep.gamma = 0.5, 1.5")
    assert main(["sweep", write_cfg(tmp_path, text, "without.cfg"), "--out", str(without)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    failed = [line for line in lines if line.startswith("1,")]
    assert len(failed) == 4
    assert all(line.split(",")[3:5] == ["error:FloatingPointError", "0"] for line in failed)
    assert [line for line in lines if not line.startswith("1,")] == (
        (without / "sweep.csv").read_text().splitlines()
    )


def test_sweep_threads_below_one_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP.replace("threads = 2", "threads = 0"))
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 1
    assert reason_fields(capsys.readouterr().out) == [
        "reason", "1", "config", "threads: must be at least 1, got 0"
    ]
    assert not (out / "sweep.csv").exists()


@pytest.fixture
def recording_fork(monkeypatch):
    """Stands in for ``cli._fork_map``: records its worker count and the
    sizes of the stacks it is given, and runs them in this process, so no
    process starts."""
    record = SimpleNamespace(workers=[], stack_sizes=[])

    def fork_map(fn, stacks, workers):
        record.workers.append(workers)
        record.stack_sizes.append([len(stack) for stack in stacks])
        return [fn(stack) for stack in stacks]

    monkeypatch.setattr(cli, "_fork_map", fork_map)
    return record


@pytest.mark.parametrize("affinity", [True, False])
def test_sweep_workers_capped_at_usable_cpus(tmp_path, monkeypatch, recording_fork, affinity):
    # threads = 10**6 would fork a worker per stack: the 8 jobs run on the 3
    # CPUs the process may use, read from the affinity mask or, where the
    # platform has none, from the CPU count.
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = write_cfg(tmp_path, SWEEP.replace("threads = 2", f"threads = {10**6}"))
    out = tmp_path / "out"
    assert main(["sweep", cfg, "--out", str(out)]) == 0
    assert recording_fork.workers == [3]
    _, rows = read_rows(out / "sweep.csv")
    assert [r[3] for r in rows] == ["ok"] * 8


def test_sweep_rows_of_one_grid_spread_over_the_workers(tmp_path, monkeypatch, recording_fork):
    # A sweep over one cells value keeps the workers busy: its 6 rows are
    # split into stacks of at most ceil(6 / workers) rows, not solved as one
    # stack on one worker.  Four workers get 3 stacks of 2 rows, which end
    # as soon as 4 stacks would, and the bytes do not change.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    text = SWEEP.replace("sweep.gamma = 0.5, 1.0", "sweep.gamma = 0.5, 1.0, 1.5")
    for threads, sizes, workers in [(1, [6], 1), (2, [3, 3], 2), (4, [2, 2, 2], 3)]:
        cfg = write_cfg(tmp_path, text.replace("sweep.cells = 8, 16", "sweep.cells = 16")
                        .replace("threads = 2", f"threads = {threads}"))
        assert main(["sweep", cfg, "--out", str(tmp_path / str(threads))]) == 0
        assert recording_fork.stack_sizes[-1] == sizes
        assert recording_fork.workers[-1] == workers
        assert (tmp_path / str(threads) / "sweep.csv").read_bytes() == (
            tmp_path / "1" / "sweep.csv"
        ).read_bytes()


def test_sweep_grid_above_the_stack_cap_runs_one_row_per_stack(tmp_path, monkeypatch,
                                                                recording_fork):
    # Under the cap the 8 rows of one worker make one stack per cells value.
    # Above it (7 and 15 unknowns against a cap of 6) each row is its own
    # stack, as before rows were stacked, and sweep.csv keeps its bytes.
    cfg = write_cfg(tmp_path, SWEEP.replace("threads = 2", "threads = 1"))
    assert main(["sweep", cfg, "--out", str(tmp_path / "stacked")]) == 0
    monkeypatch.setattr(cli, "_STACK_UNKNOWNS", 6)
    assert main(["sweep", cfg, "--out", str(tmp_path / "alone")]) == 0
    assert recording_fork.stack_sizes == [[4, 4], [1] * 8]
    assert (tmp_path / "alone" / "sweep.csv").read_bytes() == (
        tmp_path / "stacked" / "sweep.csv"
    ).read_bytes()


def test_sweep_stacks_hold_one_cells_value_under_the_cap(tmp_path):
    # 1D/512 has 511 unknowns, so 16 rows fit under the cap of 8,192; 2D/128
    # has 16,129, above it, so its rows are solved one at a time.  With 3
    # workers, 1D/512 holds 3 * 10,220 / 13,380 = 2.3 workers' shares of
    # the unknowns, so its rows are split over 3 stacks; 1D/128 and 1D/32
    # hold less than one share each and stay whole.
    assert cli._STACK_UNKNOWNS == 8192
    jobs = sorted((g, c, "none") for g in range(1, 21) for c in (32, 128, 512))
    cfg_1d = RunConfig.from_file(write_cfg(tmp_path, "domain.dim = 1\n", "1d.cfg"))
    stacks = cli._sweep_stacks(cfg_1d, jobs, 1)
    assert [(s[0][1], len(s)) for s in stacks] == [(512, 16), (512, 4), (128, 20), (32, 20)]
    assert sorted(itertools.chain(*stacks)) == jobs
    stacks = cli._sweep_stacks(cfg_1d, jobs, 3)
    assert [(s[0][1], len(s)) for s in stacks] == [
        (512, 7), (512, 7), (512, 6), (128, 20), (32, 20)
    ]
    assert sorted(itertools.chain(*stacks)) == jobs
    cfg_2d = RunConfig.from_file(write_cfg(tmp_path, "domain.dim = 2\n", "2d.cfg"))
    assert [len(s) for s in cli._sweep_stacks(cfg_2d, jobs, 1)] == [1] * 40 + [8, 8, 4]


@pytest.mark.parametrize("command", ["solve", "verify", "sweep"])
def test_threads_flag_is_unrecognized(tmp_path, capsys, command):
    # The worker count is the threads key and has no command-line flag.
    cfg = write_cfg(tmp_path, DIRAC_1D)
    assert main([command, cfg, "--out", str(tmp_path / "out"), "--threads", "2"]) == 1
    assert "reason,1,config,usage: unrecognized arguments: --threads 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args, detail",
    [
        (["solve", "{cfg}", "--bogus"], "unrecognized arguments: --bogus"),
        (["verify", "{cfg}", "--suite", "nope"], "argument --suite: invalid choice: 'nope'"),
        (["sweep", "{cfg}", "--suite", "all"], "unrecognized arguments: --suite all"),
        ([], "the following arguments are required: command"),
    ],
)
def test_usage_error_exits_one_with_reason(tmp_path, capsys, args, detail):
    cfg = write_cfg(tmp_path, DIRAC_1D)
    assert main([a.format(cfg=cfg) for a in args]) == 1
    fields = reason_fields(capsys.readouterr().out)
    assert fields[:3] == ["reason", "1", "config"] and len(fields) == 4
    assert fields[3].startswith("usage: " + detail)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--suite" in capsys.readouterr().out


def test_sweep_deterministic(tmp_path):
    cfg1 = write_cfg(tmp_path, SWEEP.replace("threads = 2", "threads = 3"), "a.cfg")
    cfg2 = write_cfg(tmp_path, SWEEP.replace("threads = 2", "threads = 1"), "b.cfg")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", cfg1, "--out", str(out1)]) == 0
    assert main(["sweep", cfg2, "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
