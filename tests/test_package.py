import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = (
    "cli",
    "config",
    "diagnostics",
    "fields",
    "measures",
    "mesh",
    "singularity",
    "solver",
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # Tools that wrap a module's public functions look each name up with
    # getattr, so a stale __all__ entry would break them.
    module = importlib.import_module(f"singpde.{name}")
    assert module.__all__
    for attr in module.__all__:
        getattr(module, attr)


def test_package_re_exports_nothing():
    # Every public name has one import path, the module that defines it, and
    # loading the config path leaves the diagnostics and the CLI unloaded.
    script = (
        "import json, sys, singpde\n"
        "names = sorted(n for n in vars(singpde) if not n.startswith('_'))\n"
        "import singpde.config\n"
        "print(json.dumps([names, sorted(m for m in sys.modules if m.startswith('singpde'))]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    names, loaded = json.loads(proc.stdout)
    assert names == []
    assert "singpde.diagnostics" not in loaded and "singpde.cli" not in loaded
