"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (the
set-up), then runs timed iterations through `run`.  `prepare` makes an
iteration's inputs outside the timed region, `record` keeps what the
correctness checks need (also outside it), and `checks` runs them at
the end.  `run` calls `checkpoint` between its longer operations, where
the harness may time its reference kernel (not counted as run time).
Calls into the package go through module attributes
(`closedloop.error_h2`, not a bound name) so that the traced run's
wrappers see them.

See README.md in this directory for why each workload exists.
"""

import contextlib
import hashlib
import io
import math
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

import h2sync.cases as cases
import h2sync.cli as cli
import h2sync.closedloop as closedloop
import h2sync.conditions as conditions
import h2sync.graph as graph
import h2sync.linalg as linalg
import h2sync.protocol as protocol
import h2sync.sim as sim
from h2sync.tolerances import DEFAULT as TOLS

# relative agreement required between the error-form H2 and the
# stacked-then-reduced oracle, as in the package's own stacked
# cross-check.  The two are different Lyapunov solves on 171-state
# loops; over 2400 random N = 20 graphs they differed by up to 3.2e-9.
ORACLE_REL = 1e-6
# pairing tolerance for the reduced Laplacian spectrum, times
# (1 + ||L||_2).  Random digraphs at N = 100 have clusters of nearly
# equal eigenvalues of a non-normal L, which eigvals computes only to
# about eps^(1/k) for a cluster of k; over 2400 graphs the worst pair
# was 3.0e-5 apart on this scale.  A wrong reduction moves eigenvalues
# by the size of an edge weight (>= 0.1), far beyond this tolerance,
# and the well-conditioned identity Pi L = L_reduced Pi is checked
# separately to rounding (INTERTWINE_REL).
SPECTRUM_REL = 1e-3
INTERTWINE_REL = 1e-12


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def random_spanning_tree_graph(rng, n_agents):
    """Random weighted digraph with a directed spanning tree: a random
    arborescence from a random root plus up to 2N extra edges."""
    adj = np.zeros((n_agents, n_agents))
    order = rng.permutation(n_agents)
    for k in range(1, n_agents):
        parent = order[rng.integers(0, k)]
        adj[order[k], parent] = rng.uniform(0.1, 2.0)
    for _ in range(rng.integers(0, 2 * n_agents)):
        i, j = rng.integers(0, n_agents, size=2)
        if i != j:
            adj[i, j] = rng.uniform(0.1, 2.0)
    return graph.CommGraph(adj)


def _median(values):
    return statistics.median(values) if values else 0.0


class Workload:
    """Base class; subclasses set `name` and `ops_per_iteration`."""

    name = ""
    ops_per_iteration = 1
    # the harness's reference kernel whose drift this workload's time
    # follows (see harness.Reference)
    reference = "compute"

    def prepare(self, i):
        return None

    def checkpoint(self):
        """A point between operations of `run`; the harness replaces it."""

    def run(self, inputs):
        raise NotImplementedError

    def record(self, i, inputs, output, traced):
        """Keep what the checks need; return the number of failed ops."""
        return 0

    def checks(self):
        return []

    def extra_metrics(self, wall_s):
        """Workload-specific metrics from untraced iterations, given the
        median untraced wall time per iteration."""
        return {}

    def counts(self):
        """Exact per-iteration counts the workload measures itself."""
        return {}

    def close(self):
        pass


class Reproduce(Workload):
    """`reproduce-case1` and `reproduce-case2` with white noise, run
    in-process through the CLI entry point."""

    name = "reproduce"
    ops_per_iteration = 2

    def __init__(self, seed, workdir, tiny=False):
        self.dt = 1e-3
        self.t_final = 0.2 if tiny else 5.0
        self.steps = int(round(self.t_final / self.dt))
        self.noise_seed = int(np.random.default_rng(seed).integers(0, 2**31 - 1))
        self.out = workdir / "reproduce"
        self.agents = {1: cases.case1_graph().n_agents, 2: cases.case2_graph().n_agents}
        self.digests = None
        self.identical = []
        self.bytes_written = 0
        self.exit_codes = []
        # warm lazy imports and caches with a minimal run of each case
        for which in self.agents:
            self._invoke(which, 100 * self.dt, workdir / "warm")
        shutil.rmtree(workdir / "warm")

    def _invoke(self, which, t_final, out):
        argv = [f"reproduce-case{which}", "--noise", "white",
                "--seed", str(self.noise_seed), "--t-final", repr(t_final),
                "--dt", repr(self.dt), "--out", str(out / f"case{which}")]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run(self, inputs):
        codes = []
        for which in self.agents:
            codes.append(self._invoke(which, self.t_final, self.out))
            self.checkpoint()
        return codes

    def record(self, i, inputs, output, traced):
        self.exit_codes.append(output)
        digests = {}
        total = 0
        for path in sorted(self.out.rglob("*")):
            if path.is_file():
                data = path.read_bytes()
                total += len(data)
                digests[str(path.relative_to(self.out))] = hashlib.sha256(data).hexdigest()
        self.bytes_written = total
        if self.digests is None:
            self.digests = digests
        else:
            self.identical.append(digests == self.digests)
        return sum(rc != 0 for rc in output)

    def counts(self):
        return {"cli.bytes_written": self.bytes_written}

    def extra_metrics(self, wall_s):
        agent_steps = self.steps * len(cases.CASE_RHOS) * sum(self.agents.values())
        return {"agent_steps_per_s": agent_steps / wall_s}

    def checks(self):
        out = [Check("exit codes are 0",
                     all(rc == 0 for codes in self.exit_codes for rc in codes),
                     f"{self.exit_codes[:1]}")]
        n = cases.triple_integrator().n
        for which, n_agents in self.agents.items():
            case_dir = self.out / f"case{which}"
            summary = (case_dir / "summary.csv").read_text().splitlines()[1:]
            for row in summary:
                _, rho, _, seed, printed = row.split(",")
                path = case_dir / f"trajectory_case{which}_rho{rho}.csv"
                lines = path.read_text().splitlines()
                shape_ok = (len(lines) == self.steps + 2
                            and len(lines[0].split(",")) == n_agents * n + 2)
                out.append(Check(f"{path.name} shape", shape_ok,
                                 f"{len(lines)} rows, {len(lines[0].split(','))} columns"))
                sync = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines[1:]])
                start = len(sync) - math.ceil(len(sync) * 0.5)
                recomputed = math.sqrt(float(np.mean(sync[start:] ** 2)))
                # two units in the 10th significant digit that %.10g prints
                ok = (abs(recomputed - float(printed)) <= 2e-9 * abs(float(printed))
                      and int(seed) == self.noise_seed)
                out.append(Check(f"case{which} rho={rho} tail rms matches summary", ok,
                                 f"{recomputed!r} vs {printed}"))
        out.append(Check("outputs byte-identical across iterations",
                         all(self.identical), f"{len(self.identical) + 1} iterations"))
        return out

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)


class McRms(Workload):
    """Batched Monte-Carlo RMS: the case-1 H2-vs-RMS consistency run,
    `monte_carlo_rms` on case 2 for each of CASE_RHOS, and the scalar
    `white_noise_rms` kernel; only statistics are kept."""

    name = "mc_rms"
    ops_per_iteration = 2 + len(cases.CASE_RHOS)

    def __init__(self, seed, workdir, tiny=False):
        rng = np.random.default_rng(seed)
        self.n_seeds = 3 if tiny else 20
        self.base_seed = int(rng.integers(0, 2**31 - 1 - self.n_seeds))
        self.seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=self.n_seeds)]
        self.t1, self.dt1 = (0.2, 1e-3) if tiny else (20.0, 1e-3)
        self.t2, self.dt2 = (0.4, 2e-3) if tiny else (10.0, 2e-3)
        self.t0, self.dt0 = (0.2, 1e-3) if tiny else (20.0, 1e-3)
        model = cases.triple_integrator()
        reals = {rho: protocol.synthesize_p2(model, rho, delta_hint=cases.CASE_DELTA)
                 for rho in cases.CASE_RHOS}
        self.cfg1 = sim.SimConfig(model=model, graph=cases.case1_graph(),
                                  protocol=reals[cases.CASE_RHOS[0]],
                                  t_final=self.t1, dt=self.dt1, noise="white",
                                  seed=self.base_seed)
        self.cfg2 = [sim.SimConfig(model=model, graph=cases.case2_graph(),
                                   protocol=reals[rho], t_final=self.t2, dt=self.dt2,
                                   noise="white", seed=self.seeds[0])
                     for rho in cases.CASE_RHOS]
        self.first = None
        self.finite = []
        self.identical = []

    def run(self, inputs):
        cons = sim.rms_vs_h2_consistency(self.cfg1, self.n_seeds)
        self.checkpoint()
        case2 = []
        for cfg in self.cfg2:
            case2.append(sim.monte_carlo_rms(cfg, self.seeds))
            self.checkpoint()
        scalar = sim.white_noise_rms(-1.0, 1.0, 1.0, self.dt0, self.t0, self.seeds)
        return [cons.per_seed_rms, np.array([cons.predicted_h2])] + [
            a for pair in case2 for a in pair] + [scalar]

    def record(self, i, inputs, output, traced):
        finite = all(np.isfinite(a).all() for a in output)
        self.finite.append(finite)
        if self.first is None:
            self.first = output
        else:
            self.identical.append(all(np.array_equal(a, b)
                                      for a, b in zip(output, self.first)))
        return 0 if finite else self.ops_per_iteration

    def extra_metrics(self, wall_s):
        def steps(t, dt):
            return int(round(t / dt))
        agent_steps = self.n_seeds * (
            steps(self.t1, self.dt1) * self.cfg1.graph.n_agents
            + steps(self.t2, self.dt2) * self.cfg2[0].graph.n_agents * len(self.cfg2)
            + steps(self.t0, self.dt0))
        return {"agent_steps_per_s": agent_steps / wall_s}

    def checks(self):
        return [
            Check("results finite", all(self.finite), f"{len(self.finite)} iterations"),
            Check("per-seed rms identical across iterations", all(self.identical),
                  f"{len(self.identical) + 1} iterations"),
        ]


class NSweep(Workload):
    """One p2 realization on seeded random spanning-tree digraphs of
    growing size: solvability report, Laplacian, spectrum pairing,
    error-form assembly and `error_h2` per graph, plus one `hinf_norm`
    on the smallest loop.  Every iteration draws fresh graphs, so the
    medians average over graphs as well as over repeats."""

    name = "n_sweep"
    reference = "memory"

    def __init__(self, seed, workdir, tiny=False):
        self.seed = seed
        self.sizes = (4, 6) if tiny else (20, 50, 100)
        self.ops_per_iteration = len(self.sizes) + 1
        self.model = cases.triple_integrator()
        self.real = protocol.synthesize_p2(self.model, cases.CASE_RHOS[0],
                                           delta_hint=cases.CASE_DELTA)
        self.h2_times = {n: [] for n in self.sizes}
        self.hinf_times = []
        self.small = []  # (graph, h2, hinf, loop) at the smallest N
        self.reports_ok = []
        self.intertwine_worst = 0.0
        # warm lazy imports on a tiny loop
        self.run({3: self._with_tol(random_spanning_tree_graph(np.random.default_rng(0), 3))})

    @staticmethod
    def _with_tol(g):
        """The graph and its spectrum-pairing tolerance (see SPECTRUM_REL)."""
        adj = g.adjacency
        L = np.diag(adj.sum(axis=1)) - adj
        return g, SPECTRUM_REL * (1.0 + np.linalg.norm(L, 2))

    def prepare(self, i):
        rng = np.random.default_rng([self.seed, i])
        return {n: self._with_tol(random_spanning_tree_graph(rng, n)) for n in self.sizes}

    def run(self, graphs):
        out = {}
        smallest = min(graphs)
        for n, (g, tol) in graphs.items():
            report = conditions.full_report(self.model, g)
            lp = graph.laplacian(g)
            graph.reduced_spectrum_check(lp, tol)
            loop = closedloop.assemble_p2(self.model, self.real, lp)
            t0 = time.perf_counter()
            h2 = closedloop.error_h2(loop)
            t_h2 = time.perf_counter() - t0
            out[n] = (report.overall, h2, t_h2, lp)
            if n == smallest:
                t0 = time.perf_counter()
                hinf = linalg.hinf_norm(loop.A_cl, loop.B_cl, loop.C_cl)
                out["hinf"] = (hinf, time.perf_counter() - t0, loop)
            self.checkpoint()
        return out

    def record(self, i, graphs, output, traced):
        smallest = min(self.sizes)
        if not traced:
            for n in self.sizes:
                self.h2_times[n].append(output[n][2])
            self.hinf_times.append(output["hinf"][1])
        hinf, _, loop = output["hinf"]
        self.small.append((graphs[smallest][0], output[smallest][1], hinf, loop))
        self.reports_ok.append(all(output[n][0] for n in self.sizes))
        for n in self.sizes:
            lp = output[n][3]
            gap = np.linalg.norm(lp.Pi @ lp.L - lp.L_reduced @ lp.Pi, 2)
            scale = 1.0 + np.linalg.norm(lp.L, 2)
            self.intertwine_worst = max(self.intertwine_worst, gap / scale)
        return 0

    def extra_metrics(self, wall_s):
        out = {f"h2_s.n{n}": _median(t) for n, t in self.h2_times.items()}
        out[f"hinf_s.n{min(self.sizes)}"] = _median(self.hinf_times)
        return out

    def checks(self):
        out = [Check("every graph passes the solvability report", all(self.reports_ok)),
                 Check("Pi L = L_reduced Pi on every graph",
                       self.intertwine_worst <= INTERTWINE_REL,
                       f"worst gap {self.intertwine_worst:.2e} times (1 + ||L||_2)")]
        worst_rel, worst_gap = 0.0, math.inf
        for g, h2, hinf, loop in self.small:
            stacked = closedloop.assemble_stacked(self.model, self.real, g)
            reduced = closedloop.reduce_to_differences(stacked, self.model, self.real)
            oracle = closedloop.error_h2(reduced)
            worst_rel = max(worst_rel, abs(h2 - oracle) / abs(oracle))
            # independent DC gain: sigma_max(C (-A)^-1 B)
            dc = np.linalg.svd(loop.C_cl @ np.linalg.solve(-loop.A_cl, loop.B_cl),
                               compute_uv=False)[0]
            worst_gap = min(worst_gap, hinf / dc - 1.0)
        n = min(self.sizes)
        out.append(Check(f"error-form H2 matches stacked oracle at N={n}",
                         worst_rel <= ORACLE_REL, f"worst relative gap {worst_rel:.2e}"))
        out.append(Check(f"hinf_norm >= DC gain at N={n}", worst_gap >= -1e-9,
                         f"smallest hinf/dc - 1 = {worst_gap:.3e}"))
        return out


class Design(Workload):
    """Protocol design over a fixed rho grid: solvability reports on both
    reference graphs, p1 and p2 synthesis (delta searched), case-1
    error-form H2 and H-infinity norms, and a text round trip of each
    realization.  No random input."""

    name = "design"
    RHOS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 24.0, 32.0)

    def __init__(self, seed, workdir, tiny=False):
        self.rhos = (1.0, 4.0) if tiny else self.RHOS
        self.ops_per_iteration = 2 * len(self.rhos)
        self.model = cases.triple_integrator()
        self.model_fs = cases.triple_integrator_full_state()
        self.graphs = (cases.case1_graph(), cases.case2_graph())
        self.lp1 = graph.laplacian(self.graphs[0])
        self.first = None
        self.texts = None
        self.identical = []
        # warm lazy imports with one design
        self._design(4.0)

    def _design(self, rho):
        reports = [conditions.full_report(self.model, g).overall for g in self.graphs]
        p1 = protocol.synthesize_p1(self.model_fs, rho)
        p2 = protocol.synthesize_p2(self.model, rho)
        loop = closedloop.assemble_p2(self.model, p2, self.lp1)
        h2 = closedloop.error_h2(loop)
        hinf = linalg.hinf_norm(loop.A_cl, loop.B_cl, loop.C_cl)
        trips = []
        for real in (p1, p2):
            text = protocol.realization_to_text(real)
            trips.append((text, protocol.parse_realization(text)))
        return reports, p1, p2, h2, hinf, trips

    def run(self, inputs):
        return [self._design(rho) for rho in self.rhos]

    def record(self, i, inputs, output, traced):
        texts = [text for *_, trips in output for text, _ in trips]
        if self.first is None:
            self.first, self.texts = output, texts
        else:
            self.identical.append(texts == self.texts)
        return 0

    def extra_metrics(self, wall_s):
        return {"designs_per_s": self.ops_per_iteration / wall_s}

    def checks(self):
        A, B, C, E = self.model.A, self.model.B, self.model.C, self.model.E
        scale = (1.0 + np.linalg.norm(A, 2)) ** 2
        care_cap = TOLS.care_residual * scale
        filter_cap = TOLS.filter_residual * scale
        P0 = self.first[0][1].P
        care_res = np.linalg.norm(A.T @ P0 + P0 @ A - P0 @ B @ B.T @ P0 + np.eye(len(A)), 2)
        filter_worst = 0.0
        p_same = True
        trips_exact = True
        reports_ok = True
        norms_ok = True
        for (reports, p1, p2, h2, hinf, trips), rho in zip(self.first, self.rhos):
            Q, d = p2.Q_rho, p2.delta
            res = (Q @ A.T + A @ Q + E @ E.T - Q @ C.T @ C @ Q / d**2
                   + rho**2 * Q @ Q)
            filter_worst = max(filter_worst, np.linalg.norm(res, 2))
            p_same &= all(r.P.tobytes() == P0.tobytes() for r in (p1, p2))
            reports_ok &= all(reports)
            norms_ok &= bool(np.isfinite(h2) and np.isfinite(hinf) and h2 > 0 and hinf > 0)
            for (text, back), real in zip(trips, (p1, p2)):
                trips_exact &= (
                    back.kind == real.kind and back.rho == real.rho
                    and back.delta == real.delta
                    and back.P.tobytes() == real.P.tobytes()
                    and (real.Q_rho is None
                         or back.Q_rho.tobytes() == real.Q_rho.tobytes())
                    and protocol.realization_to_text(back) == text)
        return [
            Check("solvability reports pass on both graphs", reports_ok),
            Check("CARE residual under cap", care_res <= care_cap,
                  f"{care_res:.2e} <= {care_cap:.2e}"),
            Check("filter Riccati residuals under cap", filter_worst <= filter_cap,
                  f"{filter_worst:.2e} <= {filter_cap:.2e}"),
            Check("P bit-identical across rho and protocols", p_same),
            Check("realization text round trip bit-exact", trips_exact),
            Check("H2 and H-infinity norms finite and positive", norms_ok),
            Check("realizations identical across iterations", all(self.identical),
                  f"{len(self.identical) + 1} iterations"),
        ]


WORKLOADS = {cls.name: cls for cls in (Reproduce, McRms, NSweep, Design)}
