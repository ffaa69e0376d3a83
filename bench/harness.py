"""Measurement loop, metrics and result line of the benchmark.

A run is one process and a single-caller closed loop: each iteration
starts after the previous one ends.  With tracing off it reports the
end-to-end metrics; with tracing on it alternates untraced and traced
iterations and reports the per-layer metrics, the workload-specific
figures measured on its untraced iterations, and `trace.overhead_frac`.

The speed of a shared host drifts by up to 1.6x over seconds to
minutes.  So the run also times a fixed reference kernel that does not
use the package, between iterations, between the operations of an
iteration (`Workload.checkpoint`) and between set-up probes; the
reference drifts with the host.  `iter_s` divides each iteration's time
by the median reference time around it and multiplies by the
reference's nominal time (REFERENCE_S), and repeats far better from run
to run than the raw `wall_s`.
"""

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer
from workloads import WORKLOADS, Check

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_build" / "h2sync"

END_TO_END = {"setup_s": "s", "iter_s": "s", "peak_rss_mb": "MiB"}

# workload-specific figures, measured by the benchmark's own timers on
# untraced iterations; zero on workloads they do not apply to
WORKLOAD_FIGURES = {
    "wall_s": "s",
    "agent_steps_per_s": "1/s",
    "h2_s.n20": "s",
    "h2_s.n50": "s",
    "h2_s.n100": "s",
    "hinf_s.n20": "s",
    "designs_per_s": "1/s",
}

# per-layer figures from the traced iterations
LAYER_FIGURES = {
    "cli.trajectory_csv_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "count",
    "sim.simulate_self_s": "s",
    "sim.max_pair_error_s": "s",
    "sim.states_mb_computed": "MB",
    "sim.monte_carlo_rms_self_s": "s",
    "sim.white_noise_rms_s": "s",
    "sim.step_matrices_s": "s",
    "closedloop.assemble_stacked_s": "s",
    "closedloop.assemble_p2_s": "s",
    "closedloop.error_h2_self_s": "s",
    "closedloop.a_cl_dim": "count",
    "closedloop.a_cl_mb_computed": "MB",
    "linalg.is_hurwitz_s": "s",
    "linalg.is_hurwitz_calls": "count",
    "linalg.solve_lyapunov_s": "s",
    "linalg.solve_lyapunov_calls": "count",
    "linalg.hinf_norm_s": "s",
    "linalg.solve_care_standard_s": "s",
    "linalg.solve_care_standard_calls": "count",
    "linalg.solve_filter_riccati_s": "s",
    "linalg.solve_filter_riccati_calls": "count",
    "linalg.newton_steps": "count",
    "protocol.synthesize_p1_s": "s",
    "protocol.synthesize_p2_self_s": "s",
    "protocol.delta_tries": "count",
    "protocol.roundtrip_s": "s",
    "conditions.full_report_s": "s",
    "conditions.check_calls": "count",
    "graph.laplacian_s": "s",
    "graph.has_spanning_tree_s": "s",
    "graph.reduced_spectrum_check_s": "s",
    "trace.overhead_frac": "ratio",
}
PER_LAYER = {**LAYER_FIGURES, **WORKLOAD_FIGURES}

MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 4  # two untraced, two traced
# stop starting iterations past this point so a slowed-down program
# still finishes a run well inside its time limit
HARD_STOP_S = 120.0
SETUP_REPEATS = 5
# seconds one call of each reference kernel is taken to last at the
# reference host speed (about its median on the two-core VM the
# benchmark was tuned on)
REFERENCE_S = {"compute": 0.0125, "memory": 0.0096}
# share of the run spent timing the reference kernel
REFERENCE_SHARE = 0.03


class Reference:
    """A fixed piece of work that does not use the package.  `samples`
    holds the time of every call and `spent` the time all sampling took.

    The `compute` kernel (eigenvalues of a 120x120 matrix, an
    interpreted loop and a pass over 200 000 floats) works inside the
    core's own caches, as the Python-bound and small-matrix workloads
    do, and drifts with them.  The `memory` kernel (25 products of an
    8 MB matrix with a vector) is bound by the shared cache, as the dense
    solves on the 891-state loops of `n_sweep` are: over four noisy
    minutes one N = 100 `error_h2` spread 0.07 unscaled, 0.18 scaled by
    the compute kernel and 0.02 scaled by the memory kernel (quartile
    distance over median of medians of five)."""

    def __init__(self, kind="compute"):
        rng = np.random.default_rng(0)
        self.kind = kind
        self.nominal = REFERENCE_S[kind]
        if kind == "compute":
            self.matrix = rng.standard_normal((120, 120))
            self.vector = rng.standard_normal(200_000)
        else:
            self.matrix = rng.standard_normal((1000, 1000))
            self.vector = rng.standard_normal(1000)
        self.samples = []
        self.spent = 0.0
        self._once()  # warm-up, not recorded
        self.last = time.perf_counter()

    def _once(self):
        t0 = time.perf_counter()
        if self.kind == "compute":
            np.linalg.eigvals(self.matrix)
            acc = 0.0
            for k in range(60_000):
                acc += k * 0.5
            float((self.vector * 1.0001 + acc).sum())
        else:
            for _ in range(25):
                self.matrix @ self.vector
        return time.perf_counter() - t0

    def sample(self, minimum=1):
        """Time the kernel for REFERENCE_SHARE of the time since the
        previous sample, at least `minimum` times."""
        start = time.perf_counter()
        reps = max(minimum, round(REFERENCE_SHARE * (start - self.last) / self.nominal))
        if not reps:
            return
        self.samples.extend(self._once() for _ in range(reps))
        self.last = time.perf_counter()
        self.spent += self.last - start

    def median(self, window=(0, None)):
        return statistics.median(self.samples[slice(*window)])


def layer_figures(stats):
    """Per-layer figures of one traced iteration."""
    total, own, calls = stats["total"], stats["self"], stats["calls"]
    under = stats["under"]
    assemblers = [k for k in stats["nbytes"] if k.startswith("closedloop.assemble_")]
    riccati = ("linalg.solve_care_standard", "linalg.solve_filter_riccati")
    return {
        "cli.trajectory_csv_s": total["cli._trajectory_csv"],
        "cli.self_s": own["cli.main"],
        "sim.simulate_self_s": own["sim.simulate"],
        "sim.max_pair_error_s": total["sim._max_pair_error"],
        "sim.states_mb_computed": stats["nbytes"]["sim.simulate"] / 1e6,
        "sim.monte_carlo_rms_self_s": own["sim.monte_carlo_rms"],
        "sim.white_noise_rms_s": total["sim.white_noise_rms"],
        "sim.step_matrices_s": total["sim.step_matrices"],
        "closedloop.assemble_stacked_s": total["closedloop.assemble_stacked"],
        "closedloop.assemble_p2_s": total["closedloop.assemble_p2"],
        "closedloop.error_h2_self_s": own["closedloop.error_h2"],
        "closedloop.a_cl_dim": max((stats["max_dim"][k] for k in assemblers), default=0),
        "closedloop.a_cl_mb_computed": sum(stats["nbytes"][k] for k in assemblers) / 1e6,
        "linalg.is_hurwitz_s": total["linalg.is_hurwitz"],
        "linalg.is_hurwitz_calls": calls["linalg.is_hurwitz"],
        "linalg.solve_lyapunov_s": total["linalg.solve_lyapunov"],
        "linalg.solve_lyapunov_calls": calls["linalg.solve_lyapunov"],
        "linalg.hinf_norm_s": total["linalg.hinf_norm"],
        "linalg.solve_care_standard_s": total["linalg.solve_care_standard"],
        "linalg.solve_care_standard_calls": calls["linalg.solve_care_standard"],
        "linalg.solve_filter_riccati_s": total["linalg.solve_filter_riccati"],
        "linalg.solve_filter_riccati_calls": calls["linalg.solve_filter_riccati"],
        "linalg.newton_steps": sum(under[(r, "linalg.solve_lyapunov")] for r in riccati),
        "protocol.synthesize_p1_s": total["protocol.synthesize_p1"],
        "protocol.synthesize_p2_self_s": own["protocol.synthesize_p2"],
        "protocol.delta_tries": under[("protocol.synthesize_p2", "linalg.solve_filter_riccati")],
        "protocol.roundtrip_s": (total["protocol.realization_to_text"]
                                 + total["protocol.parse_realization"]),
        "conditions.full_report_s": total["conditions.full_report"],
        "conditions.check_calls": sum(c for k, c in calls.items()
                                      if k.startswith("conditions.check_")),
        "graph.laplacian_s": total["graph.laplacian"],
        "graph.has_spanning_tree_s": total["graph.has_spanning_tree"],
        "graph.reduced_spectrum_check_s": total["graph.reduced_spectrum_check"],
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if unknown."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps
                   if "openblas" in ln.lower() and ".so" in ln.split()[-1]})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


def workdir_for(name):
    return WORK_ROOT / f"{name}-{os.getpid()}"


def setup_probe(name, seed):
    """Child side of the set-up measurement: set up, say so, clean up."""
    workdir = workdir_for(name)
    workload = WORKLOADS[name](seed, workdir)
    print("ready", flush=True)
    workload.close()
    shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(script, name, seed, repeats):
    """Seconds from process start to a workload ready to time: the median
    over `repeats` fresh processes, scaled like `iter_s` by the reference
    kernel timed before each of them.  Returns it and the raw samples."""
    reference = Reference()
    samples = []
    for _ in range(repeats):
        reference.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(script), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        samples.append(elapsed)
    reference.sample()
    return statistics.median(samples) * reference.nominal / reference.median(), samples


class Loop:
    """Outcome of the timed loop: wall times split by traced flag, the
    span of reference samples around each of them, layer statistics and
    spans of the traced iterations, and op counts."""

    def __init__(self, reference_kind):
        self.walls = {False: [], True: []}
        self.windows = {False: [], True: []}
        self.layer_stats = []
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.iterations = 0
        self.reference = Reference(reference_kind)

    def scaled_walls(self, traced):
        """Wall times scaled to the reference host speed."""
        return [wall * self.reference.nominal / self.reference.median(window)
                for wall, window in zip(self.walls[traced], self.windows[traced])]


def run_loop(workload, seconds, trace, tracer):
    """Single-caller closed loop: iterate until `seconds` have passed,
    alternating untraced and traced iterations when `trace` is set.  The
    reference kernel is timed before the first iteration, after each one
    and at the workload's checkpoints; that time is not counted in the
    iteration's wall time."""
    loop = Loop(workload.reference)
    reference = loop.reference
    workload.checkpoint = lambda: reference.sample(minimum=0)
    min_iters = MIN_TRACED_ITERATIONS if trace else MIN_ITERATIONS
    start = time.perf_counter()
    reference.sample()
    mark = 0  # first reference sample taken just before this iteration
    while True:
        i = loop.iterations
        traced = trace and i % 2 == 1
        inputs = workload.prepare(i)
        loop.attempted += workload.ops_per_iteration
        wall = 0.0
        with tracer if traced else contextlib.nullcontext():
            try:
                spent = reference.spent
                t0 = time.perf_counter()
                output = workload.run(inputs)
                wall = time.perf_counter() - t0 - (reference.spent - spent)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                loop.failed += workload.ops_per_iteration
                output = None
        after = len(reference.samples)
        reference.sample()
        if output is not None:
            loop.walls[traced].append(wall)
            loop.windows[traced].append((mark, len(reference.samples)))
            loop.failed += workload.record(i, inputs, output, traced)
        mark = after
        if traced:
            loop.layer_stats.append(tracer.stats())
            loop.spans.append({"iteration": i, "spans": tracer.dump()})
            tracer.clear()
        loop.iterations += 1
        elapsed = time.perf_counter() - start
        if loop.iterations >= min_iters and elapsed + 0.5 * wall >= seconds:
            return loop
        if elapsed >= HARD_STOP_S:
            return loop


def run_checks(workload, loop):
    if not (loop.walls[False] or loop.walls[True]):
        return []
    try:
        return workload.checks()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [Check("checks ran", False, repr(exc))]


def traced_metrics(workload, loop, wall_s):
    """Per-layer figures: medians of times over traced iterations, counts
    from the first traced iteration, and the trace overhead."""
    metrics = {key: 0.0 for key in LAYER_FIGURES}
    per_iter = [layer_figures(s) for s in loop.layer_stats]
    for key in per_iter[0] if per_iter else ():
        values = [fig[key] for fig in per_iter]
        if LAYER_FIGURES[key] in ("count", "MB"):
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics.update(workload.counts())
    traced = loop.walls[True]
    if traced and wall_s:
        metrics["trace.overhead_frac"] = statistics.median(traced) / wall_s - 1.0
    return metrics


def measure(name, seed, seconds, trace, tiny=False, setup_repeats=0, script=None,
            log=print):
    """Run one workload and return its result dict (the last output line).

    With `setup_repeats`, `setup_s` is measured in that many fresh
    processes started from `script` (see `measure_setup`); otherwise it
    is this process's own set-up time, imports excluded and unscaled."""
    setup_samples = []
    if setup_repeats:
        setup_s, setup_samples = measure_setup(script, name, seed, setup_repeats)
    workdir = workdir_for(name)
    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed, workdir, tiny=tiny)
    if not setup_repeats:
        setup_s = time.perf_counter() - t0
    tracer = Tracer()
    try:
        loop = run_loop(workload, seconds, trace, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks = run_checks(workload, loop)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop.attempted + len(checks)
    failed = loop.failed + sum(not c.ok for c in checks)
    for c in checks:
        log(f"check {'PASS' if c.ok else 'FAIL'} {c.name} {c.detail}".rstrip())
    untraced = loop.walls[False]
    wall_s = statistics.median(untraced) if untraced else 0.0
    reference_s = loop.reference.median()
    iter_s = statistics.median(loop.scaled_walls(False)) if untraced else 0.0
    figures = {k: 0.0 for k in WORKLOAD_FIGURES}
    if untraced:
        figures.update({k: v for k, v in workload.extra_metrics(wall_s).items()
                        if k in WORKLOAD_FIGURES})
        figures["wall_s"] = wall_s
    info = {"iterations": loop.iterations, "untraced_iterations": len(untraced),
            "traced_iterations": len(loop.walls[True]), "failed_frac": failed / attempted,
            "reference": loop.reference.kind, "reference_s": reference_s,
            "reference_samples": len(loop.reference.samples),
            "setup_samples_s": setup_samples}
    if trace:
        metrics = {**traced_metrics(workload, loop, wall_s), **figures}
        units = PER_LAYER
        trace_file = WORK_ROOT / f"trace-{name}-seed{seed}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                          "environment": environment(),
                                          "iterations": loop.spans}))
        info.update(missing_wraps=tracer.missing, trace_file=str(trace_file))
    else:
        metrics = {"setup_s": setup_s, "iter_s": iter_s,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
        for key, value in figures.items():
            if value:
                log(f"figure {key} = {value!r} {WORKLOAD_FIGURES[key]}")
        log(f"figure failed_frac = {info['failed_frac']!r} ratio")
    log("info " + json.dumps(info))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
