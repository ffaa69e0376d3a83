"""The package exports what its modules export: every name in the
`__all__` of an `h2sync.*` module is an attribute of `h2sync`."""

import importlib

import pytest

import h2sync
from test_tolerances import MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_reach_the_package(name):
    module = importlib.import_module(f"h2sync.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(h2sync, n)] == []
