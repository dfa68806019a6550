import pytest

from singpde.config import ConfigError, RunConfig, load_raw_config


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
output.dir = out
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
    text = BASIC + "atom = [0.25, 0.5, 0.5, 2.0]\n"
    cfg = RunConfig.from_file(write(tmp_path, text))
    assert len(cfg.mu.atoms) == 2
    masses = sorted(m for _, m in cfg.mu.atoms)
    assert masses == [1.0, 2.0]


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
    "line", ["seed = 7", "solver.tol_seq = 1e-6", "h.theta = 1.0", "solver.damping = 0.5"]
)
def test_removed_keys_rejected(tmp_path, line):
    # Nothing read these keys, so they are no longer accepted.
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
            "output.dir = out", "sweep.gamma = 0.5, nan", "sweep.gamma", id="sweep-gamma-nan"
        ),
        pytest.param(
            "output.dir = out",
            "measure.density = constant(inf)",
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


def test_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SINGPDE_H_GAMMA", "2.0")
    monkeypatch.setenv("SINGPDE_DOMAIN_CELLS", "16")
    cfg = RunConfig.from_file(write(tmp_path, BASIC))
    assert cfg.h.gamma == 2.0
    assert cfg.cells == 16


def test_env_override_atoms_semicolon_list(tmp_path, monkeypatch):
    monkeypatch.setenv(
        "SINGPDE_MEASURE_ATOM", "[0.3, 0.5, 0.5, 1.0]; [0.7, 0.5, 0.5, 2.0]"
    )
    cfg = RunConfig.from_file(write(tmp_path, BASIC))
    assert len(cfg.mu.atoms) == 2


def test_verify_suite_validation(tmp_path):
    cfg = RunConfig.from_file(write(tmp_path, BASIC + "verify.suite = kato\n"))
    assert cfg.suite == "kato"
    with pytest.raises(ConfigError):
        RunConfig.from_file(write(tmp_path, BASIC + "verify.suite = everything\n"))


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
    assert cfg.suite == "all"
    assert cfg.threads == 1
