"""A record that checks itself when it is made stays frozen, so a field
holds exactly what its check passed: every dataclass of the package
that defines `__post_init__` is `frozen=True`, and `dataclasses.replace`
is the one way to change a field.  The per-call model gate that only a
reassignable model needed, `conditions._matrices`, stays gone."""

import ast
import dataclasses
import importlib
import inspect
import types

import pytest
from test_one_type_gate import _tree
from test_tolerances import MODULES

GONE = "_matrices"


def checked_records(module):
    """The dataclasses `module` defines with a `__post_init__` of their own."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj) and "__post_init__" in vars(obj)}


def unfrozen(module):
    return [name for name, cls in checked_records(module).items()
            if not cls.__dataclass_params__.frozen]


@pytest.mark.parametrize("name", MODULES)
def test_checked_records_are_frozen(name):
    offenders = unfrozen(importlib.import_module(f"h2sync.{name}"))
    assert not offenders, f"h2sync.{name} has checked records that are not frozen: {offenders}"


def test_the_six_checked_records():
    found = set()
    for name in MODULES:
        found |= set(checked_records(importlib.import_module(f"h2sync.{name}")))
    assert found == {"AgentModel", "CommGraph", "ProtocolRealization", "ModeData",
                     "SolvabilityReport", "SimConfig"}


@pytest.mark.parametrize("name", MODULES)
def test_per_call_model_gate_stays_gone(name):
    names = {getattr(node, attr, None) for node in ast.walk(_tree(name))
             for attr in ("name", "id", "attr")}
    assert GONE not in names, f"h2sync.{name} brings back {GONE}"


def test_guard_sees_an_unfrozen_record():
    module = types.ModuleType("sample")

    @dataclasses.dataclass
    class Checked:
        x: int

        def __post_init__(self):
            pass

    @dataclasses.dataclass(frozen=True)
    class Frozen:
        x: int

        def __post_init__(self):
            pass

    @dataclasses.dataclass
    class Plain:  # checks nothing when made, so it may stay unfrozen
        x: int

    for cls in (Checked, Frozen, Plain):
        cls.__module__ = module.__name__
        setattr(module, cls.__name__, cls)
    assert unfrozen(module) == ["Checked"]
