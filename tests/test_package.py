import importlib

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
