"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to stream them) and asserting its runtime budget."""

import time

import numpy as np
from conftest import random_spanning_tree_graph

from h2sync.cases import (
    CASE_DELTA,
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.cli import main
from h2sync.closedloop import assemble_p1, assemble_p2, rho_scaling_probe
from h2sync.conditions import AgentModel, model_to_text
from h2sync.graph import graph_to_text, laplacian, reduced_spectrum_check
from h2sync.linalg import hinf_norm, solve_care_standard, solve_filter_riccati, spectral_abscissa
from h2sync.protocol import realization_to_text, synthesize_p1, synthesize_p2
from h2sync.sim import SimConfig, monte_carlo_rms, rms_vs_h2_consistency, simulate, white_noise_rms

TRIPLE = triple_integrator()
TRIPLE_FS = triple_integrator_full_state()


class Budget:
    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def report(num, ok, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({budget.elapsed:.1f}s) - {detail}")


def test_criterion_1_reduced_laplacian_spectra():
    with Budget(5.0) as b:
        lp = laplacian(case1_graph())
        ev_L = np.sort_complex(np.linalg.eigvals(lp.L))
        ev_R = np.sort_complex(np.linalg.eigvals(lp.L_reduced))
        ok = (
            np.abs(ev_L - np.array([0.0, 1.0, 1.0])).max() < 1e-10
            and np.abs(ev_R - np.array([1.0, 1.0])).max() < 1e-10
        )
        rng = np.random.default_rng(2024)
        matched = 0
        for _ in range(100):
            g, _ = random_spanning_tree_graph(rng, int(rng.integers(2, 16)))
            passed, _ = reduced_spectrum_check(laplacian(g), tol=1e-8)
            matched += passed
        ok = ok and matched == 100
    report(1, ok and b.elapsed < 5.0,
           b, f"case-I spectra exact, {matched}/100 random digraphs matched")
    assert ok
    assert b.elapsed < 5.0


def test_criterion_2_riccati_certificates():
    with Budget(1.0) as b:
        ok = True
        A, B, C = TRIPLE.A, TRIPLE.B, TRIPLE.C
        res = solve_care_standard(A, B)
        P = res.solution
        ok &= res.residual_norm < 1e-10
        ok &= np.linalg.eigvalsh(P).min() > 0
        for rho in (1.0, 4.0, 6.0, 10.0):
            ok &= spectral_abscissa(A - rho * B @ B.T @ P) < 0
        for rho in (4.0, 6.0, 10.0):
            fres = solve_filter_riccati(A, B, C, rho, CASE_DELTA)
            ok &= np.linalg.eigvalsh(fres.solution).min() > 0
            ok &= fres.closed_loop_spectrum.real.max() < 0
    report(2, ok and b.elapsed < 1.0, b,
           f"control ARE residual {res.residual_norm:.1e}, "
           f"filter ARE solvable at delta={CASE_DELTA} for rho in 4,6,10")
    assert ok
    assert b.elapsed < 1.0


def test_criterion_3_disturbance_free_synchronization():
    with Budget(30.0) as b:
        ok = True
        details = []
        for g, gname in ((case1_graph(), "case1"), (case2_graph(), "case2")):
            lp = laplacian(g)
            for kind in ("p1", "p2"):
                for rho in (1.0, 4.0, 10.0):
                    if kind == "p1":
                        model = TRIPLE_FS
                        real = synthesize_p1(model, rho)
                        cl = assemble_p1(model, real, lp)
                    else:
                        model = TRIPLE
                        real = synthesize_p2(model, rho)
                        cl = assemble_p2(model, real, lp)
                    alpha = spectral_abscissa(cl.A_cl)
                    ok &= alpha < 0
                    horizon = 30.0 / abs(alpha)
                    res = simulate(SimConfig(
                        model=model, graph=g, protocol=real,
                        t_final=horizon, dt=5e-3, seed=17, integrator="zoh",
                    ))
                    decay = res.sync_error[-1] / res.sync_error[0]
                    ok &= decay < 1e-6
                    details.append(f"{gname}/{kind}/rho={rho:g}: "
                                   f"absc={alpha:.3f} decay={decay:.1e}")
    report(3, ok and b.elapsed < 30.0, b, "; ".join(details[:4]) + " ...")
    assert ok
    assert b.elapsed < 30.0


def test_criterion_4_h2_scaling_with_rho():
    with Budget(30.0) as b:
        ok = True
        rhos = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        summary = []
        for kind, model in (("p1", TRIPLE_FS), ("p2", TRIPLE)):
            rows = rho_scaling_probe(model, case1_graph(), kind, rhos)
            h2s = [r[1] for r in rows]
            prods = [r[2] for r in rows]
            ok &= all(v <= 1.05 * max(prods) for v in prods)
            ok &= all(a > b2 for a, b2 in zip(h2s, h2s[1:]))
            summary.append(f"{kind}: h2 {h2s[0]:.3f}->{h2s[-1]:.3f}, "
                           f"max rho*h2 {max(prods):.2f}")
    report(4, ok and b.elapsed < 30.0, b, "; ".join(summary))
    assert ok
    assert b.elapsed < 30.0


def test_criterion_5_hinf_side_bounds():
    with Budget(60.0) as b:
        lp = laplacian(case1_graph())
        products = []
        for rho in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            Ae = np.kron(np.eye(2), TRIPLE.A) - rho * np.kron(lp.L_reduced, np.eye(3))
            products.append(rho * hinf_norm(Ae, np.eye(6), np.eye(6)))
        ok = max(products) <= 1.05 * products[0]

        bound_const = np.linalg.norm(lp.L_reduced, 2) * np.linalg.norm(lp.Pi, 2)
        worst_margin = np.inf
        for rho in (4.0, 6.0, 10.0):
            real = synthesize_p2(TRIPLE, rho, delta_hint=CASE_DELTA)
            filt = TRIPLE.A - (real.Q_rho @ TRIPLE.C.T @ TRIPLE.C) / real.delta**2
            Ae = np.kron(np.eye(2), filt)
            Be = np.kron(lp.L_reduced @ lp.Pi, TRIPLE.E)
            val = hinf_norm(Ae, Be, np.eye(6))
            bound = bound_const / rho
            ok &= val <= bound + 1e-6
            worst_margin = min(worst_margin, bound - val)
    report(5, ok and b.elapsed < 60.0, b,
           f"rho*||T2^-1||_inf in [{min(products):.2f}, {max(products):.2f}], "
           f"observer-error bound margin >= {worst_margin:.3f}")
    assert ok
    assert b.elapsed < 60.0


def _paired_trend_ok(per_seed_by_rho, rhos):
    """One-sided paired comparison at 95% (common random numbers):
    rms must strictly drop at each step up in rho."""
    t_crit = 1.729  # one-sided 95%, n = 20 seeds
    for r_small, r_large in zip(rhos, rhos[1:]):
        d = per_seed_by_rho[r_small] - per_seed_by_rho[r_large]
        n = len(d)
        t_stat = d.mean() / (d.std(ddof=1) / np.sqrt(n))
        if d.mean() <= 0 or t_stat <= t_crit:
            return False
    return True


def test_criterion_6_h2_rms_consistency():
    with Budget(300.0) as b:
        # scalar oracle: dx = -x + w has H2 norm 1/sqrt(2)
        vals = white_noise_rms([[-1.0]], [[1.0]], [[1.0]], dt=1e-3,
                               t_final=200.0, seeds=range(50))
        emp_scalar = float(np.sqrt(np.mean(vals**2)))
        ok = abs(emp_scalar - 1 / np.sqrt(2)) < 0.05 / np.sqrt(2)

        # case-I P2 rho=4: empirical xbar RMS within 10% of the H2 norm
        real4 = synthesize_p2(TRIPLE, 4.0, delta_hint=CASE_DELTA)
        cfg = SimConfig(model=TRIPLE, graph=case1_graph(), protocol=real4,
                        t_final=80.0, dt=1e-3, noise="white", seed=500,
                        integrator="zoh")
        cons = rms_vs_h2_consistency(cfg, n_seeds=20)
        ok &= abs(cons.ratio - 1.0) <= 0.10

        # qualitative trend rms(10) < rms(6) < rms(4), paired over 20 seeds
        rhos = (4.0, 6.0, 10.0)
        seeds = list(range(900, 920))
        trend_ok = {}
        for g, gname, t_final, dt in (
            (case1_graph(), "case1", 80.0, 1e-3),
            (case2_graph(), "case2", 60.0, 2e-3),
        ):
            per_seed = {}
            for rho in rhos:
                real = synthesize_p2(TRIPLE, rho, delta_hint=CASE_DELTA)
                c = SimConfig(model=TRIPLE, graph=g, protocol=real,
                              t_final=t_final, dt=dt, noise="white",
                              integrator="zoh")
                rms_sync, _ = monte_carlo_rms(c, seeds)
                per_seed[rho] = rms_sync
            trend_ok[gname] = _paired_trend_ok(per_seed, rhos)
            ok &= trend_ok[gname]
    report(6, ok and b.elapsed < 300.0, b,
           f"scalar RMS {emp_scalar:.4f} (target 0.7071), "
           f"case1 ratio {cons.ratio:.3f}, trend case1={trend_ok['case1']} "
           f"case2={trend_ok['case2']}")
    assert ok
    assert b.elapsed < 300.0


def test_criterion_7_scale_free_realization():
    with Budget(1.0) as b:
        # built once per (rho, delta); the graph and N never enter
        for_case1 = synthesize_p2(TRIPLE, 6.0, delta_hint=CASE_DELTA)
        for_case2 = synthesize_p2(TRIPLE, 6.0, delta_hint=CASE_DELTA)
        bytes1 = realization_to_text(for_case1).encode()
        bytes2 = realization_to_text(for_case2).encode()
        ok = bytes1 == bytes2
        # the same realization object drives both networks untouched
        cl1 = assemble_p2(TRIPLE, for_case1, laplacian(case1_graph()))
        cl2 = assemble_p2(TRIPLE, for_case1, laplacian(case2_graph()))
        ok &= cl1.A_cl.shape == (18, 18) and cl2.A_cl.shape == (171, 171)
        ok &= bytes1 == realization_to_text(for_case1).encode()
    report(7, ok and b.elapsed < 1.0, b,
           "serialized realization byte-identical across case sizes")
    assert ok
    assert b.elapsed < 1.0


def test_criterion_8_necessity_gating(tmp_path, capsys):
    with Budget(5.0) as b:
        graph_ok = tmp_path / "chain.txt"
        graph_ok.write_text(graph_to_text(case1_graph()))
        no_tree = tmp_path / "disc.txt"
        no_tree.write_text("4\n2 1 1\n4 3 1\n")

        A_unstable = np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 1]])  # eig at +1
        # E outside im B while the E-channel stays minimum phase: the mode
        # E misses must be strictly stable, or it shows up as an axis zero
        mismatch = AgentModel(
            np.diag([-1.0, -2.0]), np.array([[0.0], [1.0]]),
            np.array([[1.0, 0.0]]), np.array([[1.0], [0.0]]),
        )
        A_nmp = np.array([[0.0, 1], [0, 0]])
        BE_nmp = np.array([[0.0], [1]])
        C_nmp = np.array([[1.0, -1]])  # invariant zero at +1

        mutations = [
            ("eig_plus_one", AgentModel(A_unstable, TRIPLE.B, TRIPLE.C, TRIPLE.E),
             graph_ok, "(b)"),
            ("e_not_in_imb", mismatch, graph_ok, "(e)"),
            ("nonmin_phase", AgentModel(A_nmp, BE_nmp, C_nmp, BE_nmp),
             graph_ok, "(c)"),
            ("no_spanning_tree", TRIPLE, no_tree, "(d)"),
        ]
        ok = True
        named = []
        for name, model, gfile, letter in mutations:
            mfile = tmp_path / f"{name}.txt"
            mfile.write_text(model_to_text(model))
            code = main(["check", "--model", str(mfile), "--graph", str(gfile),
                         "--out", str(tmp_path / name)])
            captured = capsys.readouterr()
            ok &= code == 1
            # exactly the one violated condition is named
            failed_line = [ln for ln in captured.out.splitlines()
                           if ln.startswith("failed_conditions=")][0]
            failures = failed_line.split("=", 1)[1].split()
            ok &= len(failures) == 1 and failures[0].startswith(letter)
            named.append(f"{name}->{failures}")
    report(8, ok and b.elapsed < 5.0, b, "; ".join(named))
    assert ok
    assert b.elapsed < 5.0
