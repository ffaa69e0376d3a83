"""A refusal is stated once, by the check that makes it.  An `except E`
handler that raises E(...) again only restates what the caught error
already says (and what its caller already knows), so no module of the
package does it.  Translating to another type (DimensionMismatch to
ParseError, say) and a bare `raise` stay allowed."""

import ast
import importlib

import pytest

from test_tolerances import MODULES


def rewraps(tree):
    """(line, exception name) of each `raise E(...)` inside a handler
    that catches E."""
    for handler in ast.walk(tree):
        if not isinstance(handler, ast.ExceptHandler) or handler.type is None:
            continue
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        caught = {ast.unparse(t) for t in types}
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and ast.unparse(node.exc.func) in caught):
                    yield node.lineno, ast.unparse(node.exc.func)


@pytest.mark.parametrize("name", MODULES)
def test_no_handler_raises_what_it_caught(name):
    module = importlib.import_module(f"h2sync.{name}")
    with open(module.__file__) as fh:
        offenders = list(rewraps(ast.parse(fh.read())))
    assert not offenders, f"h2sync.{name} rewraps a caught error at line(s) {offenders}"


@pytest.mark.parametrize("source, flagged", [
    ("try:\n    f()\nexcept E as exc:\n    raise E(f'more: {exc}') from exc\n", True),
    ("try:\n    f()\nexcept (A, E):\n    if x:\n        raise E('again')\n", True),
    ("try:\n    f()\nexcept m.E:\n    raise m.E('again')\n", True),
    ("try:\n    f()\nexcept DimensionMismatch as exc:\n    raise ParseError(str(exc))\n", False),
    ("try:\n    f()\nexcept E:\n    cleanup()\n    raise\n", False),
    ("try:\n    f()\nexcept E as exc:\n    raise exc\n", False),
])
def test_guard_sees_the_pattern(source, flagged):
    assert bool(list(rewraps(ast.parse(source)))) is flagged
