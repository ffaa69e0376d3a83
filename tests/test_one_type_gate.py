"""A type refusal is stated once.  `errors._require_instance` is the one
check that an argument is of the class a function takes, so no other
function of the package raises its own "expected a ..." error, and the
per-type checks it replaced (`_require_model`, `_require_graph`,
`_require_laplacian`, `_require_realization`) stay gone."""

import ast
import importlib
import re

import pytest
from test_tolerances import MODULES

from h2sync.closedloop import ClosedLoop, ModeData
from h2sync.conditions import AgentModel
from h2sync.errors import DimensionMismatch, _require_instance
from h2sync.graph import CommGraph

GATE = ("errors", "_require_instance")
GONE = {"_require_model", "_require_graph", "_require_laplacian", "_require_realization"}


def _leading_text(node):
    """The literal text a message argument starts with: all of a str
    constant, the first part of an f-string, else ''."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def type_refusals(tree):
    """(function, line) of each `raise E("expected a ...")` or
    `raise E(f"expected an ...")`."""
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and node.exc.args and re.match(r"expected an? ",
                                                   _leading_text(node.exc.args[0]))):
                yield func.name, node.lineno


def gone_names(tree):
    """The names of GONE that `tree` defines, imports or uses."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names & GONE


def _tree(name):
    with open(importlib.import_module(f"h2sync.{name}").__file__) as fh:
        return ast.parse(fh.read())


@pytest.mark.parametrize("name", MODULES)
def test_no_type_refusal_outside_the_gate(name):
    offenders = [(f, line) for f, line in type_refusals(_tree(name)) if (name, f) != GATE]
    assert not offenders, f"h2sync.{name} refuses a type outside {GATE[1]}: {offenders}"


@pytest.mark.parametrize("name", MODULES)
def test_per_type_checks_stay_gone(name):
    back = gone_names(_tree(name))
    assert not back, f"h2sync.{name} brings back {back}"


@pytest.mark.parametrize("source, flagged", [
    ("def f(x):\n    raise DimensionMismatch(f'expected a CommGraph, got {x}')\n", True),
    ("def f(x):\n    if x:\n        raise TypeError('expected an AgentModel')\n", True),
    ("def f(x):\n    raise ParseError(f'expected agent count, got {x!r}')\n", False),
    ("def f(n):\n    raise ParseError(f'expected {n} matrix entries')\n", False),
    ("raise DimensionMismatch('expected a CommGraph')\n", False),  # in no function
])
def test_guard_sees_the_pattern(source, flagged):
    assert bool(list(type_refusals(ast.parse(source)))) is flagged


@pytest.mark.parametrize("obj, cls, message", [
    (None, CommGraph, "expected a CommGraph, got NoneType"),
    ([[0.0]], AgentModel, "expected an AgentModel, got list"),
    (None, (ModeData, ClosedLoop), "expected a ModeData or a ClosedLoop, got NoneType"),
])
def test_gate_names_both_types(obj, cls, message):
    with pytest.raises(DimensionMismatch) as exc:
        _require_instance(obj, cls)
    assert str(exc.value) == message
