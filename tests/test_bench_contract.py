"""The benchmark's span recorder wraps public h2sync functions by name
(`PUBLIC` in bench/spans.py); a refactor that drops one of them would
break the traced benchmark run, so the contract is checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_public():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PUBLIC


@pytest.mark.parametrize("layer, name", [
    (layer, name) for layer, names in load_public().items() for name in names
])
def test_public_name_resolves(layer, name):
    module = importlib.import_module(f"h2sync.{layer}")
    assert callable(getattr(module, name, None)), f"h2sync.{layer}.{name} is missing"
