"""Span recorder for the traced benchmark run.

`Tracer` wraps public functions at each h2sync module boundary without
editing the package: while installed, every `h2sync.*` module namespace
that binds a wrapped function object sees the wrapper instead, so both
`h2sync.closedloop.is_hurwitz` and `h2sync.linalg.is_hurwitz` are
caught, and calls made inside a module through its globals are caught
too.  Spans stay in memory; `Tracer.stats` reduces one iteration's
spans to totals, self times and call counts.
"""

import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in the traced run.  Private helpers
# are optional: a refactor may remove them, and they are then reported
# as missing rather than breaking the benchmark.
PUBLIC = {
    "cli": ("main",),
    "sim": ("simulate", "monte_carlo_rms", "white_noise_rms",
            "rms_vs_h2_consistency", "step_matrices", "rms"),
    "closedloop": ("assemble_p1", "assemble_p2", "assemble_stacked",
                   "reduce_to_differences", "error_h2", "rho_scaling_probe"),
    "linalg": ("is_hurwitz", "spectral_abscissa", "solve_lyapunov", "h2_norm",
               "hinf_norm", "solve_care_standard", "solve_filter_riccati"),
    "protocol": ("synthesize_p1", "synthesize_p2", "controller_matrices",
                 "realization_to_text", "parse_realization"),
    "conditions": ("full_report", "check_stabilizable", "check_detectable",
                   "check_clhp", "check_disturbance_match",
                   "check_minphase_leftinv", "invariant_zeros"),
    "graph": ("laplacian", "has_spanning_tree", "reduced_spectrum_check"),
}
PRIVATE = {
    "cli": ("_trajectory_csv",),
    "sim": ("_max_pair_error",),
}
LAYERS = tuple(PUBLIC)


def _payload_bytes(name, result):
    """Array bytes a call produced, computed from shapes (no measurement)."""
    if name.startswith("closedloop.assemble_"):
        return result.A_cl.nbytes, result.A_cl.shape[0]
    if name == "sim.simulate":
        return result.states.nbytes, 0
    return None


class Span:
    __slots__ = ("name", "start", "end", "parent", "nbytes", "dim")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.nbytes = self.dim = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Install wrappers with `with tracer:`; spans accumulate in
    `tracer.spans` until `clear()`.  Leaving the block restores every
    binding it replaced."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            span = Span(name, tracer._stack[-1] if tracer._stack else -1)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            sized = _payload_bytes(name, result)
            if sized is not None:
                span.nbytes, span.dim = sized
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "h2sync" or key.startswith("h2sync."))]
        self.missing = []
        for layer in LAYERS:
            home = sys.modules.get(f"h2sync.{layer}")
            names = [(n, False) for n in PUBLIC[layer]]
            names += [(n, True) for n in PRIVATE.get(layer, ())]
            for attr, optional in names:
                fn = getattr(home, attr, None) if home is not None else None
                if fn is None:
                    if not optional:
                        self._restore()
                        raise AttributeError(f"h2sync.{layer}.{attr} not found")
                    self.missing.append(f"{layer}.{attr}")
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._saved.append((mod, key, fn))
                            setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved = []
        self._stack = []

    def clear(self):
        self.spans = []

    def stats(self, spans=None):
        """Reduce spans to per-name totals, self times and call counts,
        plus the derived counts the benchmark reports."""
        spans = self.spans if spans is None else spans
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        nbytes = defaultdict(int)
        max_dim = defaultdict(int)
        under = defaultdict(int)
        for i, span in enumerate(spans):
            total[span.name] += span.duration
            self_time[span.name] += span.duration - child_time[i]
            calls[span.name] += 1
            nbytes[span.name] += span.nbytes
            max_dim[span.name] = max(max_dim[span.name], span.dim)
            ancestors = set()
            p = span.parent
            while p >= 0:
                ancestors.add(spans[p].name)
                p = spans[p].parent
            for anc in ancestors:
                under[(anc, span.name)] += 1
        return {"total": total, "self": self_time, "calls": calls,
                "nbytes": nbytes, "max_dim": max_dim, "under": under}

    def dump(self):
        """Spans as plain lists [name, start, end, parent] for a JSON file."""
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
