import importlib

import pytest

MODULES = ("hilbert", "randomness", "gap", "conditional", "typicality", "stats")


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"gaplab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"gaplab.{module}.__all__ names missing objects: {missing}"
