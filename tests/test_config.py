import csv
import io
import math

import numpy as np
import pytest

from singpde.cli import main
from singpde.config import ConfigError, RunConfig, load_raw_config
from singpde.mesh import GridFunction, build_grid, min_on_compact


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BASIC = """
# basic 1D point-load run
domain.dim = 1
domain.cells = 32
h.kind = pure_power
h.gamma = 0.5
f.kind = constant
f.value = 1.0
measure.atom = [0.5, 0.5, 0.5, 1.0]
sequence.n_schedule = 2, 4, 8
solver.tol_fp = 1e-10
"""


def test_parse_basic_config(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, BASIC))
    assert cfg.dim == 1
    assert cfg.cells == 32
    assert cfg.h.gamma == 0.5
    assert cfg.mu.atoms[0][1] == 1.0
    assert cfg.n_schedule == (2, 4, 8)
    assert cfg.solver.tol_fp == 1e-10


def test_atoms_accumulate_and_bare_key(tmp_path):
    text = BASIC + "measure.atom = [0.25, 0.5, 0.5, 2.0]\n"
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert len(cfg.mu.atoms) == 2
    masses = sorted(m for _, m in cfg.mu.atoms)
    assert masses == [1.0, 2.0]
    # The bare key is no alias of measure.atom: one key per setting.
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, BASIC + "atom = [0.25, 0.5, 0.5, 2.0]\n"))
    assert err.value.key == "atom"


def test_duplicate_key_rejected(tmp_path):
    text = BASIC + "domain.cells = 64\n"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert "domain.cells" in str(err.value)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, BASIC + "domain.shape = ball\n"))
    assert "domain.shape" in str(err.value)


@pytest.mark.parametrize(
    "line",
    [
        "seed = 7",
        "solver.tol_seq = 1e-6",
        "h.theta = 1.0",
        "solver.damping = 0.5",
        "solver.tol_mono = 1e-8",
        "verify.suite = kato",
        "output.dir = out",
        "atom = [0.5, 0.5, 0.5, 1.0]",
    ],
)
def test_removed_keys_rejected(tmp_path, line):
    # Nothing read these keys, or a command-line option or another key sets
    # the same value, so they are no longer accepted.
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, BASIC + line + "\n"))
    assert line.split(" =")[0] in str(err.value)


def test_negative_gamma_names_offending_key(tmp_path):
    text = BASIC.replace("h.gamma = 0.5", "h.gamma = -1")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert err.value.key == "h.gamma"


@pytest.mark.parametrize(
    "old, new, key",
    [
        pytest.param("h.gamma = 0.5", "h.gamma = inf", "h.gamma", id="gamma-inf"),
        pytest.param("h.gamma = 0.5", "h.gamma = nan", "h.gamma", id="gamma-nan"),
        pytest.param("f.value = 1.0", "f.value = nan", "f.value", id="f-value-nan"),
        pytest.param(
            "solver.tol_fp = 1e-10", "solver.tol_fp = nan", "solver.tol_fp", id="tol-fp-nan"
        ),
        pytest.param(
            "[0.5, 0.5, 0.5, 1.0]", "[0.5, 0.5, 0.5, nan]", "measure.atom", id="atom-mass-nan"
        ),
        pytest.param(
            "solver.tol_fp = 1e-10",
            "solver.tol_fp = 1e-10\nsweep.gamma = 0.5, nan",
            "sweep.gamma",
            id="sweep-gamma-nan",
        ),
        pytest.param(
            "solver.tol_fp = 1e-10",
            "solver.tol_fp = 1e-10\nmeasure.density = constant(inf)",
            "measure.density",
            id="density-inf",
        ),
    ],
)
def test_non_finite_numbers_rejected(tmp_path, old, new, key):
    # float() accepts nan and inf, and no "<= 0" check catches nan.
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, BASIC.replace(old, new)))
    assert err.value.key == key


def test_large_finite_gamma_parses(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, BASIC.replace("h.gamma = 0.5", "h.gamma = 41")))
    assert cfg.h.gamma == 41.0


def test_bad_schedule_rejected(tmp_path):
    text = BASIC.replace("sequence.n_schedule = 2, 4, 8", "sequence.n_schedule = 8, 4")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert err.value.key == "sequence.n_schedule"


def test_atom_outside_domain_rejected(tmp_path):
    text = BASIC.replace("[0.5, 0.5, 0.5, 1.0]", "[1.5, 0.5, 0.5, 1.0]")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert err.value.key == "measure.atom"


def test_atom_coordinates_beyond_dim_ignored(tmp_path):
    # y = 7 would be invalid, but dim = 1 only reads x
    text = BASIC.replace("[0.5, 0.5, 0.5, 1.0]", "[0.5, 7.0, -3.0, 1.0]")
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert cfg.mu.atoms[0][0][0] == 0.5


def test_density_builtins(tmp_path):
    text = BASIC + "measure.density = constant(2.0)\n"
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert cfg.mu.density is not None
    assert cfg.mu.density.name == "constant"

    text = BASIC + "measure.density = gaussian_bump(0.5, 0.5, 0.5, 0.1, 2.0)\n"
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert cfg.mu.density.name == "gaussian_bump"

    text = BASIC + "measure.density = lump(1.0)\n"
    with pytest.raises(ConfigError):
        RunConfig.from_file(write(tmp_path, text))


@pytest.mark.parametrize(
    "density", ["constant(-1)", "gaussian_bump(0.5, 0.5, 0.5, 0.1, -1)"]
)
def test_negative_density_rejected(tmp_path, density):
    text = BASIC + f"measure.density = {density}\n"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert err.value.key == "measure.density"


def test_environment_does_not_override_the_file(tmp_path, monkeypatch):
    # The file is the only source of a run's settings.
    monkeypatch.setenv("SINGPDE_H_GAMMA", "2.0")
    monkeypatch.setenv("SINGPDE_DOMAIN_CELLS", "16")
    cfg = RunConfig.from_file(write(tmp_path, BASIC))
    assert cfg.h.gamma == 0.5
    assert cfg.cells == 32


def test_malformed_line_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_raw_config(write(tmp_path, "just some words\n"))


def test_defaults_when_keys_absent(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, "domain.dim = 2\n"))
    assert cfg.cells == 64
    assert cfg.h.kind == "pure_power"
    assert cfg.f.name == "constant"
    assert cfg.mu.atoms == () and cfg.mu.density is None
    assert cfg.n_schedule[-1] == 1024
    assert cfg.threads == 1


def test_unknown_h_kind_lists_the_kinds(tmp_path):
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, BASIC.replace("pure_power", "cubic")))
    assert str(err.value) == (
        "h.kind: must be one of ('pure_power', 'shifted_power', 'bounded_plateau'), "
        "got 'cubic'"
    )


@pytest.mark.parametrize("cells", range(2, 10))
@pytest.mark.parametrize("key", ["domain.cells", "sweep.cells"])
def test_margin_deeper_than_the_grid_rejected(tmp_path, cells, key):
    # The deepest node lies at (cells // 2) / cells; with even cells that is
    # 0.5, which no margin reaches, so the largest margin is the float below.
    top = min((cells // 2) / cells, math.nextafter(0.5, 0.0))
    text = f"domain.dim = 2\n{key} = {cells}\nsweep.gamma = 1\n"
    cfg = RunConfig.from_file(write(tmp_path, text + f"domain.margins = {top!r}\n"))
    assert cfg.margins == (top,)
    grid = build_grid(2, cells)
    assert min_on_compact(GridFunction(grid, np.ones(grid.interior_count)), top) == 1.0
    above = math.nextafter(top, 1.0)
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text + f"domain.margins = 0.125, {above!r}\n"))
    assert err.value.key == "domain.margins"
    with pytest.raises(ValueError):
        min_on_compact(GridFunction(grid, np.ones(grid.interior_count)), above)


@pytest.mark.parametrize(
    "dim, line",
    [(3, "f.center = 0.3, 0.7"), (2, "f.center = 0.3"), (2, "f.center =")],
)
def test_gaussian_center_needs_a_coordinate_per_axis(tmp_path, dim, line):
    # A short centre used to fail numpy's broadcast in 3D, or be broadcast
    # to (0.3, 0.3) in 2D and solve a problem the file did not state.
    text = f"domain.dim = {dim}\ndomain.cells = 8\nf.kind = gaussian_bump\n{line}\n"
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, text))
    assert err.value.key == "f.center"
    text = text.replace(line, "f.center = " + ", ".join(["0.3"] * dim))
    assert RunConfig.from_file(write(tmp_path, text)).f.params[:dim] == (0.3,) * dim


@pytest.mark.parametrize(
    "kind, key",
    [
        ("h.kind = pure_power", "h.shift = 3"),
        ("h.kind = pure_power", "h.plateau = 3"),
        ("h.kind = bounded_plateau", "h.shift = 3"),
        ("h.kind = shifted_power", "h.plateau = 3"),
        ("f.kind = sin_pi", "f.value = 7"),
        ("f.kind = zero", "f.value = 7"),
        ("f.kind = gaussian_bump", "f.value = 7"),
        ("f.kind = constant", "f.center = 0.5"),
        ("f.kind = sin_pi", "f.width = 0.2"),
        ("f.kind = constant", "f.scale = 2"),
        ("f.kind = manufactured_singular", "f.scale = 2"),
    ],
)
def test_key_the_kind_does_not_read_is_rejected(tmp_path, kind, key):
    # Such a key used to be ignored: the run solved a problem without it.
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(write(tmp_path, f"domain.dim = 1\n{kind}\n{key}\n"))
    assert err.value.key == key.split(" =")[0]


@pytest.mark.parametrize(
    "lines",
    [
        "h.kind = shifted_power\nh.shift = 3",
        "h.kind = bounded_plateau\nh.plateau = 3",
        "f.kind = constant\nf.value = 7",
        "f.kind = gaussian_bump\nf.center = 0.3\nf.width = 0.2\nf.scale = 2",
        "f.kind = sin_pi\nf.scale = 2",
        "f.kind = zero",
        "h.gamma = 1.5\nf.kind = manufactured_singular",
    ],
)
def test_keys_the_kind_reads_are_accepted(tmp_path, lines):
    RunConfig.from_file(write(tmp_path, f"domain.dim = 1\n{lines}\n"))


@pytest.mark.parametrize(
    "lines, key, message",
    [
        ("h.gamma = half", "h.gamma", "expected a number"),
        ("domain.cells = 3.5", "domain.cells", "expected an integer"),
        ("sequence.n_schedule = 2, four", "sequence.n_schedule", "expected a comma-separated list"),
        ("h.kind = shifted_power\nh.shift = 0", "h.shift", "must be positive"),
        ("h.kind = bounded_plateau\nh.plateau = 0", "h.plateau", "must be positive"),
        ("f.kind = cubic", "f.kind", "must be one of"),
        ("f.kind = constant\nf.value = -1", "f.value", "must be nonnegative"),
        ("f.kind = gaussian_bump\nf.width = 0", "f.width", "must be positive"),
        ("f.kind = gaussian_bump\nf.scale = -1", "f.scale", "must be nonnegative"),
        ("f.kind = sin_pi\nf.scale = -1", "f.scale", "must be nonnegative"),
        ("measure.atom = [0.5, 0.5, 1.0]", "measure.atom", "expected [x, y, z, mass]"),
        ("measure.atom = [0.5, 0.5, 0.5, heavy]", "measure.atom", "non-numeric entry"),
        ("measure.atom = [0.5, 0.5, 0.5, -1]", "measure.atom", "mass must be nonnegative"),
        ("measure.density = constant(1, 2)", "measure.density", "takes exactly one argument"),
        ("measure.density = gaussian_bump(0.5, 0.5, 0.5, 0.1)", "measure.density",
         "takes (cx, cy, cz, width, scale)"),
        ("domain.dim = 4", "domain.dim", "must be 1, 2 or 3"),
        ("domain.cells = 1", "domain.cells", "must be at least 2"),
        ("sequence.n_schedule =", "sequence.n_schedule", "must not be empty"),
        ("solver.tol_fp = 0", "solver.tol_fp", "must be positive"),
        ("solver.max_iters = 0", "solver.max_iters", "must be at least 1"),
        ("sweep.measure = ball", "sweep.measure", "must be one of"),
        ("sweep.cells = 1", "sweep.cells", "must be at least 2"),
        ("sweep.gamma = 0", "sweep.gamma", "must be positive"),
        # The grid margin was stored on the grid and read by nothing.
        ("domain.margin = 0.1", "domain.margin", "unknown configuration key"),
    ],
    ids=lambda value: value.replace("\n", "; "),
)
def test_rejected_config_names_its_key_and_exits_one(tmp_path, capsys, lines, key, message):
    path = write(tmp_path, f"{lines}\n")
    with pytest.raises(ConfigError) as err:
        RunConfig.from_file(path)
    assert err.value.key == key
    assert main(["solve", path, "--out", str(tmp_path / "out")]) == 1
    reasons = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert reasons == [["reason", "1", "config", str(err.value)]]
    assert str(err.value).startswith(f"{key}: ") and message in str(err.value)

