import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.linalg as sla
from conftest import random_spanning_tree_graph
from scipy.integrate import quad

import h2sync.closedloop as closedloop
import h2sync.linalg as linalg
from h2sync.cases import (
    case1_graph,
    case2_graph,
    triple_integrator,
    triple_integrator_full_state,
)
from h2sync.closedloop import (
    ClosedLoop,
    assemble_p1,
    assemble_p2,
    assemble_stacked,
    error_h2,
    probe_to_csv,
    reduce_to_differences,
    rho_scaling_probe,
)
from h2sync.conditions import AgentModel
from h2sync.errors import DimensionMismatch, NotHurwitz, PreconditionFailed
from h2sync.graph import CommGraph, laplacian
from h2sync.linalg import h2_norm, hinf_norm, is_hurwitz, spectral_abscissa
from h2sync.protocol import synthesize_p1, synthesize_p2
from h2sync.tolerances import Tolerances


def scalar_model_full():
    return AgentModel.full_state([[0.0]], [[1.0]], [[1.0]])


def scalar_model_partial():
    return AgentModel([[0.0]], [[1.0]], [[1.0]], [[1.0]])


def two_agent_chain():
    return CommGraph(np.array([[0.0, 0], [1, 0]]))


def dense_only(cl: ClosedLoop) -> ClosedLoop:
    """The same loop without mode data, so error_h2 takes the dense path."""
    return dataclasses.replace(cl, modes=None)


@pytest.fixture(scope="module")
def designs():
    """(model, realization, assembler) for p1 and p2 at rho = 4."""
    full, partial = triple_integrator_full_state(), triple_integrator()
    return [
        (full, synthesize_p1(full, 4.0), assemble_p1),
        (partial, synthesize_p2(partial, 4.0, delta_hint=0.0004), assemble_p2),
    ]


class TestAssembleP1:
    def test_two_scalar_agents_hand_oracle(self):
        # P = 1 from the scalar Riccati; Lbar = [1]; hand substitution
        rho = 3.0
        real = synthesize_p1(scalar_model_full(), rho)
        cl = assemble_p1(scalar_model_full(), real, laplacian(two_agent_chain()))
        np.testing.assert_allclose(cl.A_cl, [[-rho, rho], [0, -rho]], atol=1e-12)
        np.testing.assert_allclose(cl.B_cl, [[1, -1], [1, -1]], atol=1e-12)
        np.testing.assert_allclose(cl.C_cl, [[1.0, 0.0]])

    def test_case1_dimensions_and_stability(self):
        m = triple_integrator_full_state()
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert cl.A_cl.shape == (12, 12)  # 2 (N-1) n
        ok, _ = is_hurwitz(cl.A_cl)
        assert ok

    @pytest.mark.parametrize("rho", [1.0, 2.0, 7.5, 40.0])
    def test_stable_for_any_rho(self, rho):
        m = triple_integrator_full_state()
        real = synthesize_p1(m, rho)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert spectral_abscissa(cl.A_cl) < 0

    def test_kind_mismatch(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        with pytest.raises(DimensionMismatch):
            assemble_p1(m, real, laplacian(case1_graph()))


class TestAssembleP2:
    def test_case1_dimensions_and_stability(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        assert cl.A_cl.shape == (18, 18)  # 3 (N-1) n
        assert spectral_abscissa(cl.A_cl) < 0

    def test_two_scalar_agents_block_structure(self):
        # exact block-triangular structure from symbolic substitution
        rho, delta = 2.0, 0.1
        m = scalar_model_partial()
        real = synthesize_p2(m, rho, delta_hint=delta)
        q = 1.0 / np.sqrt(delta**-2 - rho**2)
        assert real.Q_rho[0, 0] == pytest.approx(q, rel=1e-12)
        cl = assemble_p2(m, real, laplacian(two_agent_chain()))
        expect = np.array([
            [-rho, 0.0, rho],
            [0.0, -q / delta**2, 0.0],
            [0.0, rho, -rho],
        ])
        np.testing.assert_allclose(cl.A_cl, expect, atol=1e-12)
        np.testing.assert_allclose(cl.B_cl, [[1, -1], [1, -1], [1, -1]], atol=1e-12)

    def test_zero_disturbance_gives_zero_b(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert np.all(cl.B_cl == 0.0)

    def test_zero_disturbance_gives_zero_b_p2(self):
        # synthesis needs E != 0, but the assembled loop for an E = 0
        # variant of the model has no disturbance input at all
        base = triple_integrator()
        real = synthesize_p2(base, 4.0, delta_hint=0.0004)
        m0 = AgentModel(base.A, base.B, base.C, np.zeros((3, 1)))
        cl = assemble_p2(m0, real, laplacian(case1_graph()))
        assert np.all(cl.B_cl == 0.0)


class TestStackedCrossCheck:
    def check(self, model, real, g, expected_raw_dim=None):
        raw = assemble_stacked(model, real, g)
        if expected_raw_dim is not None:
            assert raw.A_cl.shape == (expected_raw_dim, expected_raw_dim)
            # whole network is only marginally stable (synchronized motion)
            assert abs(spectral_abscissa(raw.A_cl)) < 1e-3
            with pytest.raises(NotHurwitz):
                error_h2(raw)
        red = reduce_to_differences(raw, model, real)
        lp = laplacian(g)
        if real.kind == "p1":
            err = assemble_p1(model, real, lp)
        else:
            err = assemble_p2(model, real, lp)
        assert err.modes is not None and red.modes is None
        v_err = error_h2(err)
        # the modal kernel against a dense Lyapunov solve on A_cl
        assert v_err == pytest.approx(h2_norm(err.A_cl, err.B_cl, err.C_cl), rel=1e-8)
        v_raw = error_h2(red)
        assert v_raw == pytest.approx(v_err, rel=1e-6)

    def test_p1_case1(self):
        m = triple_integrator_full_state()
        self.check(m, synthesize_p1(m, 4.0), case1_graph(), 2 * 3 * 3)

    def test_p1_case2(self):
        m = triple_integrator_full_state()
        self.check(m, synthesize_p1(m, 6.0), case2_graph(), 2 * 20 * 3)

    def test_p2_case1(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        self.check(m, real, case1_graph(), 3 * 3 * 3)

    def test_p2_case2(self):
        m = triple_integrator()
        real = synthesize_p2(m, 6.0, delta_hint=0.0004)
        self.check(m, real, case2_graph(), 3 * 20 * 3)

    # sizes up to 16 keep the two dense oracles affordable; graph 0 has
    # N = 50
    @pytest.mark.parametrize("seed", range(100))
    def test_random_graph(self, designs, seed):
        rng = np.random.default_rng([7, seed])
        g, _ = random_spanning_tree_graph(rng, 50 if seed == 0 else int(rng.integers(2, 17)))
        for model, real, _ in designs:
            self.check(model, real, g)

    def test_reduction_rejects_error_form(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        with pytest.raises(DimensionMismatch):
            reduce_to_differences(cl, m, real)

    def test_reduction_rejects_non_diffusive_loop(self):
        # absolute (non-relative) coupling leaks into the difference
        # states and must be caught
        m = scalar_model_full()
        real = synthesize_p1(m, 2.0)
        raw = assemble_stacked(m, real, two_agent_chain())
        raw.A_cl = raw.A_cl.copy()
        raw.A_cl[0, 0] -= 0.3  # absolute feedback on agent 1 only
        with pytest.raises(DimensionMismatch):
            reduce_to_differences(raw, m, real)


def frequency_response(cl, omega):
    """C (j omega I - A)^-1 B of a loop."""
    n = cl.A_cl.shape[0]
    return cl.C_cl @ np.linalg.solve(1j * omega * np.eye(n) - cl.A_cl, cl.B_cl)


# case 1, case 2 and 20 seeded random spanning-tree digraphs (N = 2-16)
ORACLE_GRAPHS = ["case1", "case2"] + [f"random{seed}" for seed in range(20)]


def oracle_graph(name):
    if name == "case1":
        return case1_graph()
    if name == "case2":
        return case2_graph()
    rng = np.random.default_rng([11, int(name[6:])])
    return random_spanning_tree_graph(rng, int(rng.integers(2, 17)))[0]


class TestDenseForm:
    @pytest.mark.parametrize("graph", ORACLE_GRAPHS)
    def test_frequency_response_matches_stacked(self, designs, graph):
        # every entry of the dense matrices against the independent
        # stacked derivation, through the transfer function they realize
        g = oracle_graph(graph)
        for model, real, assemble in designs:
            err = assemble(model, real, laplacian(g))
            red = reduce_to_differences(assemble_stacked(model, real, g), model, real)
            for omega in (0.0, 0.3, 3.0, 30.0):
                G, G_ref = frequency_response(err, omega), frequency_response(red, omega)
                assert np.linalg.norm(G - G_ref) <= 1e-9 * np.linalg.norm(G_ref)

    @pytest.mark.parametrize("graph", ["case1", "random3"])
    def test_dense_is_block_permutation_of_mode_formula(self, designs, graph):
        # the ModeData docstring: agent-major I (x) D - rho Lbar (x) S,
        # sum_a M[a] (x) E[a] and I (x) C_out, reordered block-major
        lp = laplacian(oracle_graph(graph))
        for model, real, assemble in designs:
            cl = assemble(model, real, lp)
            md = cl.modes
            m, n, d = lp.L_reduced.shape[0], md.n, md.D.shape[0]
            S = np.zeros((d, d))
            S[md.block(md.coupled), md.block(md.coupled)] = np.eye(n)
            A = np.kron(np.eye(m), md.D) - md.rho * np.kron(md.L_reduced, S)
            B = sum(np.kron(Ma, Ea) for Ma, Ea in zip(md.M, md.E))
            C = np.kron(np.eye(m), np.eye(d)[md.block(md.output)])
            # the assembled loop is laid out (xbar, e) or (xbar, ebar, e)
            layout = (0, 1) if real.kind == "p1" else (0, 2, 1)
            for order in itertools.permutations(range(d // n)):
                perm = np.concatenate([k * d + b * n + np.arange(n)
                                       for b in order for k in range(m)])
                A_d, B_d, C_d = (cl.A_cl, cl.B_cl, cl.C_cl) if order == layout else md.dense(order)
                np.testing.assert_array_equal(A_d, A[np.ix_(perm, perm)])
                np.testing.assert_array_equal(B_d, B[perm])
                np.testing.assert_array_equal(C_d, C[:, perm])


class TestErrorH2:
    def test_stacked_form_refused(self, designs):
        model, real, _ = designs[1]
        raw = assemble_stacked(model, real, case1_graph())
        with pytest.raises(NotHurwitz, match="reduce_to_differences"):
            error_h2(raw)

    def test_zero_disturbance(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        real = synthesize_p1(m, 4.0)
        cl = assemble_p1(m, real, laplacian(case1_graph()))
        assert error_h2(cl) == 0.0

    def test_zero_disturbance_p2(self):
        base = triple_integrator()
        real = synthesize_p2(base, 4.0, delta_hint=0.0004)
        m0 = AgentModel(base.A, base.B, base.C, np.zeros((3, 1)))
        h2 = error_h2(assemble_p2(m0, real, laplacian(case1_graph())))
        assert h2 == 0.0 and math.copysign(1.0, h2) == 1.0

    def test_dense_path_checks_hurwitz_once(self, designs, monkeypatch):
        calls = []
        original = linalg.is_hurwitz

        def counting(A):
            calls.append(A.shape)
            return original(A)

        # error_h2 reaches is_hurwitz through both module bindings
        monkeypatch.setattr(linalg, "is_hurwitz", counting)
        monkeypatch.setattr(closedloop, "is_hurwitz", counting, raising=False)
        model, real, assemble = designs[1]
        cl = assemble(model, real, laplacian(case2_graph()))
        dense = error_h2(dense_only(cl))
        assert calls == [cl.A_cl.shape]
        calls.clear()
        # the modal path needs no eigendecomposition of A_cl
        assert error_h2(cl) == pytest.approx(dense, rel=1e-8)
        assert calls == []

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_no_spanning_tree_has_zero_mode(self, designs, path):
        # agents 0 and 2 are both roots: Lbar has a zero eigenvalue
        adj = np.zeros((4, 4))
        adj[1, 0] = adj[3, 2] = 1.0
        for model, real, assemble in designs:
            cl = assemble(model, real, laplacian(CommGraph(adj)))
            with pytest.raises(NotHurwitz):
                error_h2(cl if path == "modal" else dense_only(cl))

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_unstable_design(self, designs, path):
        # P of the wrong sign turns the feedback A - rho BB^T P unstable
        for model, real, assemble in designs:
            bad = dataclasses.replace(real, P=-real.P)
            cl = assemble(model, bad, laplacian(case1_graph()))
            with pytest.raises(NotHurwitz, match="closed loop is not Hurwitz"):
                error_h2(cl if path == "modal" else dense_only(cl))

    @pytest.mark.parametrize("path", ["modal", "dense"])
    def test_checks_follow_tolerances(self, designs, path):
        for model, real, assemble in designs:
            cl = assemble(model, real, laplacian(case1_graph()))
            cl = cl if path == "modal" else dense_only(cl)
            with pytest.raises(NotHurwitz, match="spectral abscissa"):
                error_h2(cl, Tolerances(hurwitz_margin=1e3))
            with pytest.raises(NotHurwitz, match="Lyapunov residual"):
                error_h2(cl, Tolerances(lyapunov_residual=0.0))

    def test_mode_data_must_be_block_triangular(self, designs):
        model, real, assemble = designs[1]
        modes = assemble(model, real, laplacian(case1_graph())).modes
        D = modes.D.copy()
        D[-1, 0] = 1.0
        with pytest.raises(DimensionMismatch):
            dataclasses.replace(modes, D=D)

    def test_case1_p2_impulse_energy_oracle(self):
        m = triple_integrator()
        real = synthesize_p2(m, 4.0, delta_hint=0.0004)
        cl = assemble_p2(m, real, laplacian(case1_graph()))
        v4 = error_h2(cl)
        assert v4 > 0
        T = 30.0 / abs(spectral_abscissa(cl.A_cl))
        f = lambda t: np.sum((cl.C_cl @ sla.expm(cl.A_cl * t) @ cl.B_cl) ** 2)
        energy, _ = quad(f, 0.0, T, limit=400)
        assert f(T) < 1e-10
        assert v4**2 == pytest.approx(energy, rel=1e-6)

    def test_larger_rho_attenuates(self):
        m = triple_integrator()
        lp = laplacian(case1_graph())
        v4 = error_h2(assemble_p2(m, synthesize_p2(m, 4.0, delta_hint=0.0004), lp))
        v10 = error_h2(assemble_p2(m, synthesize_p2(m, 10.0, delta_hint=0.0004), lp))
        assert v10 < v4


class TestScalingProbe:
    def test_case1_p1_bounded_product(self):
        m = triple_integrator_full_state()
        rows = rho_scaling_probe(m, case1_graph(), "p1", [1, 2, 4, 8, 16])
        rho_h2 = {r: rh2 for r, _, rh2, _ in rows}
        assert all(v <= 1.05 * rho_h2[1] for v in rho_h2.values())
        h2s = [h2 for _, h2, _, _ in rows]
        assert all(a > b for a, b in zip(h2s, h2s[1:]))
        assert all(absc < 0 for *_, absc in rows)

    @pytest.mark.parametrize("graph", [case1_graph, case2_graph])
    def test_p2_h2_decreases_up_to_rho_128(self, graph):
        rows = rho_scaling_probe(triple_integrator(), graph(), "p2",
                                 [2.0**k for k in range(8)])
        h2s = [h2 for _, h2, _, _ in rows]
        assert all(a > b for a, b in zip(h2s, h2s[1:]))

    @pytest.mark.parametrize("kind,model,letter", [
        ("p1", triple_integrator_full_state, "(c)"),
        ("p2", triple_integrator, "(d)"),
    ])
    def test_no_spanning_tree_refused(self, kind, model, letter):
        disconnected = CommGraph(np.array([[0, 0, 0, 0], [1.0, 0, 0, 0],
                                           [0, 0, 0, 0], [0, 0, 1.0, 0]]))
        with pytest.raises(PreconditionFailed) as exc:
            rho_scaling_probe(model(), disconnected, kind, [4.0])
        assert exc.value.condition == letter

    def test_two_agent_scalar_closed_form(self):
        # hand Lyapunov solve gives H2 = sqrt(5 / (2 rho))
        rows = rho_scaling_probe(
            scalar_model_full(), two_agent_chain(), "p1", [1.0, 4.0, 9.0]
        )
        for rho, h2, _, _ in rows:
            assert h2 == pytest.approx(np.sqrt(5.0 / (2.0 * rho)), rel=1e-9)

    def test_zero_disturbance_all_zero(self):
        m = AgentModel.full_state(
            triple_integrator().A, triple_integrator().B, np.zeros((3, 1))
        )
        rows = rho_scaling_probe(m, case1_graph(), "p1", [1, 2, 4])
        assert all(h2 == 0.0 for _, h2, _, _ in rows)

    def test_csv_format(self):
        rows = rho_scaling_probe(
            scalar_model_full(), two_agent_chain(), "p1", [1.0, 2.0]
        )
        csv = probe_to_csv(rows)
        lines = csv.strip().splitlines()
        assert lines[0] == "rho,h2,rho_times_h2,spectral_abscissa"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        assert float(first[2]) == pytest.approx(float(first[0]) * float(first[1]))


class TestHinfSideBounds:
    def test_rho_scaled_resolvent_bounded(self):
        # subsystem de = (I (x) A - rho Lbar (x) I) e with B = C = I
        m = triple_integrator()
        lp = laplacian(case1_graph())
        products = []
        for rho in (1.0, 4.0, 16.0):
            Ae = np.kron(np.eye(2), m.A) - rho * np.kron(lp.L_reduced, np.eye(3))
            products.append(rho * hinf_norm(Ae, np.eye(6), np.eye(6), tol=1e-6))
        assert max(products) <= 1.05 * products[0]

    def test_observer_error_hinf_bound(self):
        # ||T_{w -> ebar}||_inf <= ||Lbar|| ||Pi|| / rho
        m = triple_integrator()
        lp = laplacian(case1_graph())
        bound_const = np.linalg.norm(lp.L_reduced, 2) * np.linalg.norm(lp.Pi, 2)
        for rho in (4.0, 10.0):
            real = synthesize_p2(m, rho, delta_hint=0.0004)
            filt = m.A - (real.Q_rho @ m.C.T @ m.C) / real.delta**2
            Ae = np.kron(np.eye(2), filt)
            Be = np.kron(lp.L_reduced @ lp.Pi, m.E)
            val = hinf_norm(Ae, Be, np.eye(6), tol=1e-6)
            assert val <= bound_const / rho + 1e-6
