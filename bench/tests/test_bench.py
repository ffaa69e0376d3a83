"""Tests of the benchmark itself: a tiny run of each workload, the
tracer's restore guarantee, exact repeat of the traced counts, and the
agreement of BENCHMARK.json with the harness.

    python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(autouse=True)
def scratch_work_root(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK_ROOT", tmp_path / "work")


def tiny_run(name, trace, seed=3):
    return harness.measure(name, seed, seconds=0.0, trace=trace, tiny=True,
                           log=lambda *_: None)


def h2sync_bindings():
    return {(mod_name, key): value
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "h2sync" or mod_name.startswith("h2sync.")
            for key, value in vars(mod).items()}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_every_check(name, trace):
    result = tiny_run(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_restores_every_patched_name():
    import h2sync.closedloop as closedloop
    import h2sync.linalg as linalg

    before = h2sync_bindings()
    original = linalg.is_hurwitz
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            # both bindings of the function see the same wrapper
            assert closedloop.is_hurwitz is linalg.is_hurwitz
            assert linalg.is_hurwitz.__wrapped__ is original
            loop = closedloop.ClosedLoop(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)),
                                         2, "error-form", "")
            closedloop.error_h2(loop)
            raise RuntimeError("leave the block by an exception")
    after = h2sync_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    names = [s.name for s in tracer.spans]
    assert names[0] == "closedloop.error_h2"
    assert "linalg.is_hurwitz" in names and "linalg.solve_lyapunov" in names
    stats = tracer.stats()
    assert stats["calls"]["linalg.is_hurwitz"] == 2
    assert stats["self"]["closedloop.error_h2"] <= stats["total"]["closedloop.error_h2"]


def test_missing_private_helper_is_reported(monkeypatch):
    import h2sync.sim as sim

    monkeypatch.delattr(sim, "_max_pair_error")
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == ["sim._max_pair_error"]


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly_with_the_same_seed(name):
    counted = [k for k, unit in harness.LAYER_FIGURES.items() if unit in ("count", "MB")]
    first, second = (tiny_run(name, trace=True, seed=5) for _ in range(2))
    assert ({k: first["metrics"][k]["value"] for k in counted}
            == {k: second["metrics"][k]["value"] for k in counted})


def test_reference_time_is_not_counted_in_iterations(monkeypatch):
    def slow_reference(self):
        time.sleep(0.05)
        return 0.05

    class Sleeper(workloads.Workload):
        def run(self, inputs):
            time.sleep(0.3)
            self.checkpoint()  # 0.3 s since the last sample: one reference call
            time.sleep(0.3)
            return True

    monkeypatch.setattr(harness.Reference, "_once", slow_reference)
    loop = harness.run_loop(Sleeper(), seconds=0.0, trace=False, tracer=spans.Tracer())
    walls = loop.walls[False]
    assert len(walls) == harness.MIN_ITERATIONS
    # start, one checkpoint per iteration and one sample after each
    assert len(loop.reference.samples) == 1 + 2 * harness.MIN_ITERATIONS
    assert all(0.6 <= wall < 0.64 for wall in walls)
    scale = harness.REFERENCE_S["compute"] / 0.05
    assert loop.scaled_walls(False) == pytest.approx([w * scale for w in walls])


def test_setup_probe_runs_in_a_fresh_process():
    median, samples = harness.measure_setup(BENCH / "run.py", "design", 1, 2)
    assert len(samples) == 2 and median > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert spec["paths"] == [BENCH.name]


def test_fails_without_the_package(tmp_path):
    """In a tree holding only the benchmark, the command fails and
    prints no result."""
    (tmp_path / BENCH.name).mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / BENCH.name / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "design", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
