"""The numerical thresholds belong to the package: every solver, check
and norm reads them from `h2sync.tolerances.DEFAULT` when it is called,
and no function or record takes a `tols` option.  A test that needs
another threshold replaces the module attribute."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import h2sync
from h2sync import tolerances
from h2sync.conditions import check_clhp

MODULES = sorted(info.name for info in pkgutil.iter_modules(h2sync.__path__))


def own_callables(module):
    """(qualified name, object) of the functions and classes `module`
    defines, and of the methods of those classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # static/class methods
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_no_tols_option(name):
    module = importlib.import_module(f"h2sync.{name}")
    offenders = []
    for qualname, obj in own_callables(module):
        if inspect.isfunction(obj) and "tols" in inspect.signature(obj).parameters:
            offenders.append(f"{qualname}()")
        if dataclasses.is_dataclass(obj) and "tols" in {f.name for f in dataclasses.fields(obj)}:
            offenders.append(f"{qualname}.tols")
    assert not offenders, f"h2sync.{name} takes a tols option: {', '.join(offenders)}"


def test_guard_walks_every_module():
    assert {"linalg", "conditions", "graph", "modal", "closedloop", "protocol"} <= set(MODULES)


def test_thresholds_are_read_at_call_time(monkeypatch):
    # an abscissa of 1e-3 lies outside the default closed-left-half-plane
    # margin (1e-9 (1 + ||A||)) and inside one a thousand times wider
    A = [[1e-3]]
    assert not check_clhp(A)
    monkeypatch.setattr(tolerances, "DEFAULT",
                        dataclasses.replace(tolerances.DEFAULT, clhp_margin=1e-3))
    assert check_clhp(A)
