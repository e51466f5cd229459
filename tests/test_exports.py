import importlib

import pytest

SUBMODULES = ("model", "recursions", "schemes", "simulate", "stationarity", "cli")


@pytest.mark.parametrize("name", ("statecast",) + tuple(f"statecast.{m}" for m in SUBMODULES))
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
