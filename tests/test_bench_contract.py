"""The benchmark's span recorder wraps public h2sync functions by name
(`PUBLIC` in bench/spans.py); a refactor that drops one of them would
break the traced benchmark run, so the contract is checked here, along
with a tiny run of every workload the benchmark declares."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "bench" / "spans.py"


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


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def harness(tmp_path, monkeypatch):
    """bench/harness.py, imported as the benchmark imports it, writing
    under tmp_path."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    harness = importlib.import_module("harness")
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / "work")
    return harness


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_passes_every_check(harness, name, trace):
    # the workloads and the tracer read the package beyond these names
    # (a loop's A_cl, say), so each one is also run, on tiny inputs
    result = harness.measure(name, 3, seconds=0.0, trace=trace, tiny=True,
                             log=lambda *_: None)
    assert result["correct"] and result["failed"] == 0
