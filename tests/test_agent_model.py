"""An agent model is its four matrices (A, B, C, E).  Which solvability
conditions apply is the protocol's choice, passed to `full_report` as
its kind, so no model field and no function parameter carries a
coupling label."""

import dataclasses
import importlib
import inspect

import pytest

from h2sync.conditions import AgentModel
from test_tolerances import MODULES, own_callables


def test_model_fields_are_the_four_matrices():
    assert [f.name for f in dataclasses.fields(AgentModel)] == ["A", "B", "C", "E"]


@pytest.mark.parametrize("name", MODULES)
def test_no_coupling_kind_parameter(name):
    # a report says which conditions it checked: its field, and so its
    # constructor, is the one place the label lives
    module = importlib.import_module(f"h2sync.{name}")
    offenders = [
        f"{qualname}()"
        for qualname, obj in own_callables(module)
        if inspect.isfunction(obj) and qualname != "SolvabilityReport.__init__"
        and "coupling_kind" in inspect.signature(obj).parameters
    ]
    assert not offenders, f"h2sync.{name} takes a coupling_kind option: {', '.join(offenders)}"
